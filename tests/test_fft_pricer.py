"""Grid construction, integrand assembly, inversion, and price surfaces."""

import io
import json
import math

import numpy as np
import pytest

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer.boundary import boundary_curve
from mellin_pricer import fft_pricer
from mellin_pricer.errors import (GridTooCoarse, NoAdmissibleK, NonFiniteSpot,
                                  OutOfRange)
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM,
                                      EUROPEAN_PUT, build_grid,
                                      discounted_payoff_transform,
                                      integrand_european, integrand_premium,
                                      invert_transform_lattice, premium_time_grid,
                                      premium_transform, price_american_call,
                                      price_at, price_european_call,
                                      price_put, price_surface,
                                      PriceSurface, simpson_weight,
                                      surface_to_csv,
                                      surface_to_json, _lattice_w)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import black_scholes


class TestBuildGrid:
    def test_reference_spacing(self):
        # landing on ln(100) with N = 2^14 and target spacing 0.25 puts the
        # lattice offset at 3002 and the frequency spacing at 0.2499913
        g = build_grid(1, 2**14, 1.0, [100.0])
        assert g.landing_index[0] - 2**13 == 3002
        assert_close(g.deltas[0], 0.2499913, atol=5e-8)

    def test_roundtrip_identity(self):
        g = build_grid(1, 2**14, 1.0, [100.0])
        k = g.landing_index[0]
        assert abs((k - 2**13) * g.lams[0] - math.log(100.0)) < 1e-12

    def test_unit_spot_lands_center(self):
        g = build_grid(1, 2**10, 1.0, [1.0])
        assert g.landing_index[0] == 2**9

    def test_spot_below_one_negative_offset(self):
        g = build_grid(1, 2**10, 1.0, [0.5])
        assert g.landing_index[0] < 2**9
        k = g.landing_index[0]
        assert abs((k - 2**9) * g.lams[0] - math.log(0.5)) < 1e-12

    def test_coupling_invariant(self):
        g = build_grid(2, 2**9, 1.0, [50.0, 80.0])
        assert np.allclose(g.deltas * g.lams, 2 * math.pi / 2**9, rtol=1e-14)

    def test_k_hint(self):
        g = build_grid(1, 2**14, 1.0, [100.0], k_hint=[2**13 + 3002])
        assert g.landing_index[0] == 2**13 + 3002

    @pytest.mark.parametrize("spot", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spot(self, spot):
        # NaN used to reach int(round(nan)) and inf int(round(inf))
        with pytest.raises(NonFiniteSpot, match="spot must be finite"):
            build_grid(2, 2**9, 1.0, [50.0, spot])

    def test_grid_too_coarse(self):
        # admissible offset exists but needs a log spacing above 1
        with pytest.raises(GridTooCoarse):
            build_grid(1, 4, 1.0, [math.exp(2.0)], delta_target=0.8)

    def test_no_admissible_index(self):
        # a huge target spacing forces an offset beyond the lattice edge
        with pytest.raises(NoAdmissibleK):
            build_grid(1, 8, 1.0, [100.0], delta_target=1000.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_grid(1, 100, 1.0, [100.0])


class TestSimpsonWeight:
    def test_values(self):
        assert_close(simpson_weight(0), 1.0 / 3.0, atol=1e-15)
        assert_close(simpson_weight(1), 4.0 / 3.0, atol=1e-15)
        assert_close(simpson_weight(2), 2.0 / 3.0, atol=1e-15)

    def test_vectorized(self):
        w = simpson_weight(np.arange(6))
        assert np.allclose(w, [1 / 3, 4 / 3, 2 / 3, 4 / 3, 2 / 3, 4 / 3])


class TestPremiumTimeGrid:
    def test_simpson_weights_sum(self):
        t, w = premium_time_grid(250, 0.5, "simpson")
        assert t[0] == 0.0 and abs(t[-1] - 0.5) < 1e-15
        assert_close(w.sum(), 0.5, rtol=3e-3)  # composite pattern, even count

    def test_trapezoid_weights(self):
        t, w = premium_time_grid(5, 1.0, "trapezoid")
        assert_close(w.sum(), 1.0, rtol=1e-14)
        assert w[0] == w[-1] == 0.125

    def test_flat_weights(self):
        t, w = premium_time_grid(5, 1.0, "flat")
        assert np.allclose(w, 0.2)

    def test_single_step_degenerate(self):
        t, w = premium_time_grid(1, 0.7, "simpson")
        assert t.tolist() == [0.0]
        assert w.tolist() == [0.7]


class TestIntegrands:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.grid = build_grid(1, 256, 1.0, [100.0], m_steps=8)
        self.curve = boundary_curve(self.spec, 8, 0.5)

    def test_european_at_center_tau_zero(self):
        # at b = 0 and tau = 0 the integrand is the payoff transform with
        # the center-index sign
        got = integrand_european([128], self.grid, self.spec, 0.0)
        theta = 100.0 ** 2 / (1.0 * 2.0)
        assert_close(got, (-1.0) ** 128 * theta, rtol=1e-12)

    def test_european_conjugate_symmetry(self):
        N = self.grid.size
        for j in (1, 7, 100):
            a = integrand_european([j], self.grid, self.spec, 0.5)
            b = integrand_european([N - j], self.grid, self.spec, 0.5)
            # (-1)^j parity matches, transform values conjugate
            sign = (-1.0) ** j / (-1.0) ** (N - j)
            assert abs(a - sign * np.conj(b)) < 1e-12 * max(1.0, abs(a))

    def test_european_matches_alpha_polynomial_form(self):
        # same value through the single-asset closed form
        # theta(w) exp(sigma^2 alpha(w) tau / 2) with the discount inside
        r, q, sig = self.spec.rate, float(self.spec.dividends[0]), \
            float(self.spec.vols[0])
        k1 = 2 * r / sig**2
        k2 = 2 * (r - q) / sig**2
        tau = 0.5
        for j in (40, 128, 200):
            w = complex(1.0, self.grid.frequencies(0)[j])
            alpha = w**2 + (1 - k2) * w - k1
            want = ((-1.0) ** j * 100.0 ** (w + 1) / (w * (w + 1))
                    * np.exp(0.5 * sig**2 * alpha * tau))
            got = integrand_european([j], self.grid, self.spec, tau)
            assert abs(got - want) < 1e-11 * abs(want)

    def test_premium_zero_when_no_rate_no_dividend(self):
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.0, 0.2)
        curve = boundary_curve(spec, 8, 0.5)
        got = integrand_premium([40], 3, self.grid, spec, 0.5, curve)
        assert got == 0

    def test_premium_time_zero_factors(self):
        # l = 0: characteristic function and discount are both unity
        from mellin_pricer.mellin_core import early_exercise_mellin

        j = 77
        got = integrand_premium([j], 0, self.grid, self.spec, 0.5, self.curve)
        w = np.array([1.0 + 1j * self.grid.frequencies(0)[j]])
        want = ((-1.0) ** j
                * early_exercise_mellin(w, self.curve.at_tte(0.5), self.spec))
        assert_close(got, complex(want), rtol=1e-12)


class TestFftVsDirectSum:
    def test_every_lattice_point_n64(self):
        # the FFT output must equal the O(N^2) double sum exactly
        r, q, sig = GROUPING_PARAMS[1]
        spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        grid = build_grid(1, 64, 1.0, [2.0], m_steps=6)
        curve = boundary_curve(spec, 6, 0.5)
        w = _lattice_w(grid)
        transform = (discounted_payoff_transform(w, spec, 0.5)
                     - premium_transform(w, spec, 0.5, curve, "simpson"))
        fft_vals = invert_transform_lattice(grid, transform).real

        N = 64
        b = grid.frequencies(0)
        s = grid.log_prices(0)
        arr = (-1.0) ** np.arange(N) * transform
        arr[0] = arr[0].real
        direct = np.empty(N)
        for k in range(N):
            acc = np.sum(arr * np.exp(-2j * math.pi * np.arange(N) * k / N))
            direct[k] = ((-1.0) ** k * grid.deltas[0] / (2 * math.pi)
                         * math.exp(-s[k]) * acc).real
        scale = np.abs(fft_vals).max()
        assert np.abs(fft_vals - direct).max() <= 1e-10 * scale


class TestEuropeanSurface:
    def test_black_scholes_exactness(self):
        for q in (0.0, 0.03):
            spec = BasketSpec.single(100.0, 1.0, 0.05, q, 0.2)
            grid = build_grid(1, 2**14, 1.0, [100.0])
            surf = price_surface(spec, grid, 1.0, EUROPEAN_PUT)
            want = black_scholes(100, 100, 0.05, q, 0.2, 1.0, "put").price
            assert abs(surf.landing_value() - want) <= 1e-8

    def test_monotone_in_spot_central_half(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        grid = build_grid(1, 2**12, 1.0, [100.0])
        surf = price_surface(spec, grid, 1.0, EUROPEAN_PUT)
        lo, hi = 2**10, 3 * 2**10
        diffs = np.diff(surf.values[lo:hi])
        assert diffs.max() <= 1e-8

    def test_simpson_weights_penalty_measured(self):
        # replacing trapezoid weights by composite-Simpson alpha changes the
        # landing value at the 1e-4 scale (Simpson is only O(delta^4) while
        # plain trapezoid is spectrally accurate here); see the decisions
        # ledger for why trapezoid ships as the default
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        grid = build_grid(1, 2**14, 1.0, [100.0])
        flat = price_surface(spec, grid, 1.0, EUROPEAN_PUT,
                             b_weights="trapezoid").landing_value()
        # the Simpson-mode surface also trips the hard negative gate in the
        # deep-OTM region, another symptom of the same O(delta^4) error
        simp = price_surface(spec, grid, 1.0, EUROPEAN_PUT,
                             b_weights="simpson",
                             quality_checks=False).landing_value()
        diff = abs(flat - simp)
        assert 1e-6 < diff < 5e-4

    def test_payoff_limit_away_from_kink(self):
        # tau -> 0 reconstructs the payoff; the +-5 lattice points around
        # the strike kink carry the slow-tail ringing (ledger) and are
        # excluded here
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        grid = build_grid(1, 2**14, 1.0, [100.0])
        surf = price_surface(spec, grid, 1e-8, EUROPEAN_PUT,
                             quality_checks=False)
        s = np.exp(grid.log_prices(0))
        payoff = np.maximum(100.0 - s, 0.0)
        err = np.abs(surf.values - payoff)
        mask = (s >= 50.0) & (s <= 150.0)
        k0 = grid.landing_index[0]
        mask[k0 - 5:k0 + 6] = False
        assert err[mask].max() <= 1e-4

    def test_basket_two_assets_runs(self, basket2_spec):
        grid = build_grid(2, 2**9, 1.0, [50.0, 50.0], m_steps=2)
        surf = price_surface(basket2_spec, grid, 0.5, EUROPEAN_PUT)
        v = surf.landing_value()
        assert 4.0 < v < 7.0


class TestAmericanSurface:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.grid = build_grid(1, 2**13, 1.0, [100.0], m_steps=120)
        self.curve = boundary_curve(self.spec, 120, 0.5)

    def test_dominates_european(self):
        amer = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        euro = price_surface(self.spec, self.grid, 0.5, EUROPEAN_PUT)
        lo, hi = self.grid.size // 4, 3 * self.grid.size // 4
        gap = amer.values[lo:hi] - euro.values[lo:hi]
        assert gap.min() >= -1e-6 * self.spec.strike

    def test_dominates_intrinsic(self):
        amer = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        s = np.exp(self.grid.log_prices(0))
        lo, hi = self.grid.size // 4, 3 * self.grid.size // 4
        intrinsic = np.maximum(self.spec.strike - s, 0.0)
        gap = amer.values[lo:hi] - intrinsic[lo:hi]
        assert gap.min() >= -1e-4 * self.spec.strike

    def test_premium_style_is_difference(self):
        amer = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        euro = price_surface(self.spec, self.grid, 0.5, EUROPEAN_PUT)
        prem = price_surface(self.spec, self.grid, 0.5,
                             EARLY_EXERCISE_PREMIUM, boundary=self.curve)
        lo, hi = self.grid.size // 4, 3 * self.grid.size // 4
        resid = (amer.values - euro.values - prem.values)[lo:hi]
        # negative clamping acts per-surface, so additivity holds to the
        # clamp scale rather than exactly
        assert np.abs(resid).max() < 1e-6 * self.spec.strike

    def test_requires_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT)

    def test_basket_american_unsupported(self, basket2_spec):
        grid = build_grid(2, 2**6, 1.0, [50.0, 50.0], m_steps=4)
        with pytest.raises(NotImplementedError):
            price_surface(basket2_spec, grid, 0.5, AMERICAN_PUT,
                          boundary=self.curve)


class TestPriceAt:
    def setup_method(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        self.grid = build_grid(1, 2**12, 1.0, [100.0])
        self.surf = price_surface(spec, self.grid, 1.0, EUROPEAN_PUT)

    def test_exact_landing(self):
        q = price_at(self.surf, [100.0])
        assert not q.interpolated
        assert q.value == self.surf.landing_value()

    def test_midpoint_interpolation(self):
        s = self.grid.log_prices(0)
        k = self.grid.landing_index[0]
        mid = math.exp(0.5 * (s[k] + s[k + 1]))
        q = price_at(self.surf, [mid])
        assert q.interpolated
        want = 0.5 * (self.surf.values[k] + self.surf.values[k + 1])
        assert_close(q.value, want, rtol=1e-12)

    @pytest.mark.parametrize("spot", [math.nan, math.inf])
    def test_rejects_non_finite_spot(self, spot):
        with pytest.raises(NonFiniteSpot, match="spot must be finite"):
            price_at(self.surf, [spot])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            price_at(self.surf, [1e300])


class TestCallDrivers:
    def test_table_row_via_symmetry(self):
        r, q, sig = GROUPING_PARAMS[1]
        got = price_american_call(80.0, 100.0, r, q, sig, 0.5)
        assert abs(got - 0.2198) < 2e-3

    def test_reference_itm_row(self):
        r, q, sig = GROUPING_PARAMS[1]
        got = price_american_call(110.0, 100.0, r, q, sig, 0.5)
        assert abs(got - 11.1269) < 2e-3

    def test_no_dividend_call_has_no_premium(self):
        got = price_american_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "call").price
        assert abs(got - want) < 1e-3

    def test_european_call_parity(self):
        got = price_european_call(100.0, 100.0, 0.05, 0.0, 0.2, 1.0)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "call").price
        assert abs(got - want) < 1e-8

    def test_parity_symmetric_point(self):
        # S = K and r = q make call and put prices equal
        c = price_european_call(100.0, 100.0, 0.04, 0.04, 0.3, 1.0)
        p, _ = price_put(100.0, 100.0, 0.04, 0.04, 0.3, 1.0,
                         style=EUROPEAN_PUT)
        assert abs(c - p) < 1e-10


class TestExports:
    def setup_method(self):
        spec = BasketSpec.single(2.5, 1.0, 0.05, 0.0, 0.2)
        self.grid = build_grid(1, 16, 1.0, [2.0], m_steps=2,
                               delta_target=0.9)
        self.surf = price_surface(spec, self.grid, 1.0, EUROPEAN_PUT,
                                  quality_checks=False)

    def test_csv_shape(self):
        buf = io.StringIO()
        surface_to_csv(self.surf, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index_1,logS_1,S_1,value"
        assert len(lines) == 1 + 16

    @staticmethod
    def per_row_csv(surface, fp):
        """The row-by-row writer the chunked one replaced, as reference."""
        g = surface.grid
        head = ([f"index_{i+1}" for i in range(g.n)]
                + [f"logS_{i+1}" for i in range(g.n)]
                + [f"S_{i+1}" for i in range(g.n)] + ["value"])
        fp.write(",".join(head) + "\n")
        logs = [g.log_prices(i) for i in range(g.n)]
        for idx in np.ndindex(*([g.size] * g.n)):
            x = [logs[i][idx[i]] for i in range(g.n)]
            row = ([str(i) for i in idx] + [f"{v:.12g}" for v in x]
                   + [f"{math.exp(v):.12g}" for v in x]
                   + [f"{surface.values[idx]:.12g}"])
            fp.write(",".join(row) + "\n")

    def assert_csv_matches_per_row(self, surface):
        got, want = io.StringIO(), io.StringIO()
        surface_to_csv(surface, got)
        self.per_row_csv(surface, want)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("chunk", [7, 2**14])
    def test_csv_matches_per_row_writer(self, monkeypatch, basket2_spec,
                                        chunk):
        # a chunk of 7 rows leaves a partial last chunk on both grids
        monkeypatch.setattr(fft_pricer, "CSV_CHUNK_ROWS", chunk)
        self.assert_csv_matches_per_row(self.surf)
        grid = build_grid(2, 16, [1.0, 0.8], [2.0, 3.0], m_steps=2,
                          delta_target=0.9)
        surf = price_surface(basket2_spec, grid, 0.5, EUROPEAN_PUT,
                             quality_checks=False)
        self.assert_csv_matches_per_row(surf)

    def test_csv_matches_per_row_writer_on_awkward_values(self):
        special = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 2.0 / 3.0 * 1e15,
                   123456789012.5, 99999999999.95, 1e22, -1e-5, 1e-5,
                   math.nextafter(1.0, 2.0), 7.0, 1e16, 0.5]
        surf = PriceSurface(grid=self.grid, values=np.array(special),
                            style=EUROPEAN_PUT, tau=1.0)
        self.assert_csv_matches_per_row(surf)

    def test_json_fields(self):
        payload = surface_to_json(self.surf)
        assert payload["grid"]["N"] == 16
        assert payload["grid"]["M"] == 2
        assert payload["style"] == EUROPEAN_PUT
        assert len(payload["values"]) == 16
        json.dumps(payload)  # serializable
