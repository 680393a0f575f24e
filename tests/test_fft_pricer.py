"""Grid construction, integrand assembly, inversion, and price surfaces."""

import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer.boundary import (boundary_curve, premium_time_grid,
                                    simpson_weight)
from mellin_pricer import fft_pricer
from mellin_pricer import greeks as gk
from mellin_pricer.errors import (GridTooCoarse, ImagResidualTooLarge,
                                  NoAdmissibleK, NoBracket, NonFiniteSpot,
                                  SurfaceQualityError)
from mellin_pricer.fft_pricer import (AMERICAN_CALL, AMERICAN_PUT, Axis,
                                      EARLY_EXERCISE_PREMIUM, EUROPEAN_CALL,
                                      EUROPEAN_PUT, build_grid, contour_sum,
                                      discounted_payoff_transform,
                                      invert_transform_lattice,
                                      lattice_pieces, node0_step,
                                      premium_transform, price_american_call,
                                      price_put, price_surface,
                                      PriceSurface, put_transform,
                                      reduce_to_put, sample_transform,
                                      surface_to_csv, surface_to_json,
                                      unit_payoff_transform)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct, char_exponent_wi,
                                       early_exercise_mellin, payoff_mellin)
from mellin_pricer.oracles import black_scholes


def raw_inverse(spec, grid, tau):
    """(values, imag_residual): the European put's inverse before the
    quality gates of ``price_surface`` read it, unclamped."""
    return invert_transform_lattice(grid, *sample_transform(
        grid, lambda axes: put_transform(axes, spec, tau, EUROPEAN_PUT,
                                         None)), strike=spec.strike)


class TestBuildGrid:
    def test_reference_spacing(self):
        # landing on ln(100) with N = 2^14 and spacing 0.25 puts the
        # lattice offset at 3002; the spacing is the target exactly
        g = build_grid(1, 2**14, 1.0, [100.0])
        assert g.landing_index[0] - 2**13 == 3002
        assert g.deltas.tolist() == [0.25]

    def test_roundtrip_identity(self):
        g = build_grid(1, 2**14, 1.0, [100.0])
        k = g.landing_index[0]
        assert abs(g.log_prices(0)[k] - math.log(100.0)) < 1e-12

    def test_unit_spot_lands_center(self):
        g = build_grid(1, 2**10, 1.0, [1.0])
        assert g.landing_index[0] == 2**9

    def test_spot_below_one_negative_offset(self):
        g = build_grid(1, 2**10, 1.0, [0.5])
        assert g.landing_index[0] < 2**9
        k = g.landing_index[0]
        assert abs(g.log_prices(0)[k] - math.log(0.5)) < 1e-12

    def test_basket_lattice_frequencies_do_not_depend_on_the_spot(self):
        # delta = delta_target exactly on every axis; the spot is reached by
        # a sub-cell shift of the origin at the landing index of today
        grids = [build_grid(2, 2**9, 1.0, s)
                 for s in ([50.0, 50.0], [48.0, 53.0], [0.7, 120.0])]
        for g in grids:
            assert g.axes == grids[0].axes
            assert g.deltas.tolist() == [0.25, 0.25]
            for i, k in enumerate(g.landing_index):
                assert 0.0 < abs(g.origin[i]) <= g.lams[i] / 2
                assert k == 2**8 + round(g.target_logS[i] / g.lams[i])
                assert abs(g.log_prices(i)[k] - g.target_logS[i]) <= 1e-13

    def test_one_asset_lattice_frequencies_do_not_depend_on_the_spot(self):
        # the basket rule for one asset: delta = delta_target exactly and a
        # sub-cell origin, so one market's put quotes share one axis
        grids = [build_grid(1, 2**14, 1.0, [s])
                 for s in (80.0, 90.0, 100.0, 110.0, 120.0, 0.7)]
        for g in grids:
            assert g.axes == grids[0].axes
            assert g.deltas.tolist() == [0.25]
            assert abs(g.origin[0]) <= g.lams[0] / 2
            k, = g.landing_index
            assert abs(g.log_prices(0)[k] - g.target_logS[0]) <= 1e-13

    def test_coupling_invariant(self):
        g = build_grid(2, 2**9, 1.0, [50.0, 80.0])
        assert np.allclose(g.deltas * g.lams, 2 * math.pi / 2**9, rtol=1e-14)

    @pytest.mark.parametrize("spot", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spot(self, spot):
        # NaN used to reach int(round(nan)) and inf int(round(inf))
        with pytest.raises(NonFiniteSpot, match="spot must be finite"):
            build_grid(2, 2**9, 1.0, [50.0, spot])

    def test_rejects_nan_strip(self):
        # NaN passed the old "<= 0" check and the price came out NaN
        with pytest.raises(ValueError, match="strip abscissa"):
            price_put(100.0, 100.0, 0.05, 0.02, 0.2, 0.5, style=EUROPEAN_PUT,
                      size=4096, strip_a=math.nan)

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

    def test_three_assets_at_default_n_exceed_the_point_budget(self):
        # N = 2^9, n = 3: a 2^18 * 257 = 67M-point half lattice, refused
        # before any lattice-sized array exists
        tracemalloc.start()
        try:
            with pytest.raises(GridTooCoarse, match="N=512"):
                build_grid(3, 2**9, 1.0, [50.0, 52.0, 48.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_point_budget_edge(self):
        # 4096 * 2049 points fit in 2^24, 8192 * 4097 do not
        build_grid(2, 2**12, 1.0, [50.0, 50.0])
        with pytest.raises(GridTooCoarse, match="N=8192"):
            build_grid(2, 2**13, 1.0, [50.0, 50.0])

    @pytest.mark.parametrize("n, N", [(1, 2**14), (2, 2**9)])
    def test_axes_are_the_lattice_frequencies(self, n, N):
        # b_j = (j - N/2) delta_i as the same floats, on Re w = a_i
        g = build_grid(n, N, [1.0, 0.7][:n], [100.0, 40.0][:n])
        for ax, a, d in zip(g.axes, g.strip_a, g.deltas):
            assert (ax.a, ax.h, ax.first, ax.count) == (a, d, -N // 2, N)
            want = a + 1j * (np.arange(N) - N / 2) * d
            assert np.array_equal(ax.points, want)


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
        g = premium_time_grid(250, 0.5)
        t, w = g.t, g.c
        assert t[0] == 0.0 and abs(t[-1] - 0.5) < 1e-15
        assert_close(w.sum(), 0.5, rtol=3e-3)  # composite pattern, even count

    def test_single_step_degenerate(self):
        g = premium_time_grid(1, 0.7)
        assert g.t.tolist() == [0.0]
        assert g.c.tolist() == [0.7]

    @pytest.mark.parametrize("m", [0, -3, 2.5, float("nan"), float("inf")])
    def test_refuses_fewer_than_one_node(self, m):
        # M = 0 gave an empty grid, and M = 2.5 three nodes past tau
        with pytest.raises(ValueError, match="m_steps must be an integer"):
            premium_time_grid(m, 0.5)

    @pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
    def test_refuses_a_tau_that_is_not_finite_and_positive(self, tau):
        # tau = nan gave NaN nodes
        with pytest.raises(ValueError, match="tau must be positive"):
            premium_time_grid(3, tau)


def integrand_european(j, grid, spec, tau):
    """FFT input at one-asset lattice index j: (-1)^j times the discounted
    payoff transform at strike K, K^(w+1) times the one at strike 1, at
    a + i b_j."""
    axes = (grid.axes[0].part(j[0], j[0] + 1),)
    return (-1.0) ** j[0] * (spec.strike ** (1.0 + axes[0].points)
                             * unit_payoff_transform(axes, spec, tau)).item()


def integrand_premium(j, l, grid, spec, tau, boundary):
    """Premium FFT input at frequency index j and time node l, unweighted:
    (-1)^j f(w, s*_l) exp(-t_l (Psi(wi) + r)), s*_l read at tau - t_l."""
    w = grid.axes[0].points[j[:1]]
    t_l = boundary.grid.t[l]
    s_star = boundary.s_star[l]
    if s_star <= 0.0:
        return 0j
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    return (-1.0) ** j[0] * complex(early_exercise_mellin(w, s_star, spec)
                                    * np.exp(-t_l * psi - spec.rate * t_l))


class TestIntegrands:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.grid = build_grid(1, 256, 1.0, [100.0], m_steps=8)
        self.curve = boundary_curve(self.spec, premium_time_grid(8, 0.5))

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
            w = complex(self.grid.axes[0].points[j])
            alpha = w**2 + (1 - k2) * w - k1
            want = ((-1.0) ** j * 100.0 ** (w + 1) / (w * (w + 1))
                    * np.exp(0.5 * sig**2 * alpha * tau))
            got = integrand_european([j], self.grid, self.spec, tau)
            assert abs(got - want) < 1e-11 * abs(want)

    def test_premium_zero_when_no_rate_no_dividend(self):
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.0, 0.2)
        curve = boundary_curve(spec, premium_time_grid(8, 0.5))
        got = integrand_premium([40], 3, self.grid, spec, 0.5, curve)
        assert got == 0
        axes = (self.grid.axes[0].part(40, 41),)
        assert premium_transform(axes, spec, curve)[0] == 0

    def test_premium_time_zero_factors(self):
        # at t = 0 characteristic function and discount are both unity
        j = 77
        got = integrand_premium([j], 0, self.grid, self.spec, 0.5, self.curve)
        w = self.grid.axes[0].points[[j]]
        want = early_exercise_mellin(w, self.curve.s_star[0], self.spec)
        assert_close(got, (-1.0) ** j * complex(want), rtol=1e-12)
        # a single time node sits at t = 0 with weight tau: it is out of
        # the transform and is the step tau (rK - qS) 1{S < s*_0} in S
        curve1 = boundary_curve(self.spec, premium_time_grid(1, 0.5))
        single = put_transform((self.grid.axes[0].part(j, j + 1),),
                               self.spec, 0.5, EARLY_EXERCISE_PREMIUM, curve1)
        assert single[0] == 0
        r, q = self.spec.rate, float(self.spec.dividends[0])
        s0 = curve1.s_star[0]
        steps = node0_step([0.5 * s0, s0, 2.0 * s0], self.spec, curve1)
        want = 0.5 * (r * 100.0 - q * np.array([0.5 * s0, s0, 2.0 * s0]))
        np.testing.assert_allclose(steps, want * [1.0, 0.5, 0.0], rtol=1e-15)


def direct_inverse(grid, transform):
    """The complex inverse at every lattice point as the O(N^n) double sum.

    ``transform`` is sampled on the full lattice; it takes the phase
    e^(-i sum_i b_i origin_i) of the lattice origin, and then the corner
    is real-ified, as the inverter does.
    """
    N, n = grid.size, grid.n
    index = np.indices((N,) * n)
    phase = np.exp(-1j * sum(np.ix_(*(ax.points.imag * x for ax, x
                                       in zip(grid.axes, grid.origin)))))
    arr = (-1.0) ** index.sum(axis=0) * phase * transform
    arr[(0,) * n] = arr[(0,) * n].real
    prefactor = grid.delta_b / (2 * math.pi) ** n
    out = np.empty((N,) * n, dtype=complex)
    for k in np.ndindex(*out.shape):
        kernel = np.exp(-2j * math.pi * np.tensordot(k, index, axes=1) / N)
        damp = math.exp(-sum(grid.strip_a[i] * grid.log_prices(i)[k[i]]
                             for i in range(n)))
        out[k] = (-1.0) ** sum(k) * prefactor * damp * np.sum(arr * kernel)
    return out


def half_and_edges(grid, transform):
    """Split a full-lattice sample into the inverter's half and edges."""
    N, n = grid.size, grid.n
    half = transform[..., :N // 2 + 1]
    edges = [transform[(slice(None),) * i + (slice(0, 1),)][..., N // 2 + 1:]
             for i in range(n - 1)]
    return half, edges


def small_basket(n):
    return BasketSpec(n=n, strike=100.0, maturity=0.5, rate=0.05,
                      dividends=[0.02, 0.03, 0.01][:n],
                      vols=[0.2, 0.3, 0.25][:n],
                      corr=np.where(np.eye(n) > 0, 1.0, 0.4))


def strike_k(grid, transform, strike=100.0):
    """A strike-1 transform on the lattice, moved to ``strike``: times
    K^(1 + sum w)."""
    return strike ** (1.0 + sum(np.ix_(*(ax.points for ax in grid.axes)))
                      ) * transform


class TestFftVsDirectSum:
    def test_every_lattice_point_n64(self):
        # the FFT output must equal the O(N^2) double sum exactly
        r, q, sig = GROUPING_PARAMS[1]
        spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        grid = build_grid(1, 64, 1.0, [2.0], m_steps=6)
        curve = boundary_curve(spec, premium_time_grid(6, 0.5))
        transform = strike_k(grid, put_transform(grid.axes, spec, 0.5,
                                                 AMERICAN_PUT, curve))
        fft_vals, imag_resid = invert_transform_lattice(
            grid, *half_and_edges(grid, transform))
        direct = direct_inverse(grid, transform).real
        scale = np.abs(fft_vals).max()
        assert np.abs(fft_vals - direct).max() <= 1e-10 * scale
        # the only unpaired frequency is the real-ified corner
        assert imag_resid == 0.0

    @pytest.mark.parametrize("n, N", [(2, 16), (2, 32), (3, 16)])
    def test_basket_lattice(self, n, N):
        # at this coarse frequency spacing the transform is far from zero
        # at the unpaired edge -N delta/2, so the imaginary residual is
        # truncation, many orders above rounding
        spec = small_basket(n)
        grid = build_grid(n, N, 1.0, [50.0, 40.0, 30.0][:n],
                          delta_target=0.5)
        transform = strike_k(grid, discounted_payoff_transform(grid.axes,
                                                               spec, 0.5))
        values, imag_resid = invert_transform_lattice(
            grid, *half_and_edges(grid, transform))
        direct = direct_inverse(grid, transform)
        scale = np.abs(direct).max()
        assert np.abs(values - direct.real).max() <= 1e-10 * scale
        k = grid.landing_index
        assert abs(values[k] - direct[k].real) <= 1e-13 * abs(direct[k].real)
        central = (slice(N // 4, 3 * N // 4),) * n
        want = np.abs(direct.imag[central]).max()
        assert want > 1.0
        assert abs(imag_resid - want) <= 1e-10 * want

    # at delta = 0.5 the transform is far from zero on the unpaired edges,
    # so a wrong weight there shows; spots of 0.3 and 0.5 land left of the
    # centre, the others right of it
    @pytest.mark.parametrize("n, N, spots", [
        (1, 64, [2.0]), (1, 64, [0.3]), (2, 16, [50.0, 40.0]),
        (2, 32, [50.0, 40.0]), (2, 32, [0.5, 70.0]),
        (3, 16, [50.0, 40.0, 30.0])])
    def test_landing_sum_is_the_inverse_at_landing(self, n, N, spots):
        grid = build_grid(n, N, 1.0, spots, m_steps=6, delta_target=0.5)
        if n == 1:
            r, q, sig = GROUPING_PARAMS[1]
            spec = BasketSpec.single(100.0, 0.5, q, r, sig)
            transform = strike_k(grid, put_transform(
                grid.axes, spec, 0.5, AMERICAN_PUT,
                boundary_curve(spec, premium_time_grid(6, 0.5))))
        else:
            transform = strike_k(grid, discounted_payoff_transform(
                grid.axes, small_basket(n), 0.5))
        # a basket lattice lands by a nonzero origin
        assert n == 1 or np.all(grid.origin != 0.0)
        samples = half_and_edges(grid, transform)
        k = grid.landing_index
        want = direct_inverse(grid, transform)[k].real
        # the contour sums of the lattice's pieces at the spot
        got = sum(contour_sum(*piece, spots)
                  for piece in lattice_pieces(grid, *samples))
        assert abs(got - want) <= 1e-13 * abs(want)
        fft = invert_transform_lattice(grid, *samples)[0][k]
        assert abs(got - fft) <= 1e-13 * abs(fft)

    def test_landing_sum_checks_its_input(self):
        grid = build_grid(2, 16, 1.0, [50.0, 40.0], delta_target=0.5)
        full = np.ones((16, 16), dtype=complex)
        with pytest.raises(ValueError, match="shapes"):
            lattice_pieces(grid, full, [full[:1, 9:]])
        # a piece whose values are not on its axes
        half = grid.lattice.parts[0]
        weights = grid.lattice.sum_weights[0]
        with pytest.raises(ValueError, match="shape"):
            contour_sum(full, half, weights, [50.0, 40.0])
        with pytest.raises(ValueError, match="shape"):
            contour_sum(full[:, :9].T, half, weights, [50.0, 40.0])

    def test_sampled_pieces_are_the_lattice_slices(self):
        # sample_transform evaluates exactly the half and the edge pieces
        grid = build_grid(3, 8, 1.0, [2.0, 1.5, 2.5], delta_target=1.0)
        def coordinate(axes, i):
            shape = tuple(ax.count for ax in axes)
            return np.broadcast_to(np.ix_(*(ax.points for ax in axes))[i],
                                   shape)

        for i in range(3):
            half, edges = fft_pricer.sample_transform(
                grid, lambda axes: coordinate(axes, i))
            want_half, want_edges = half_and_edges(
                grid, coordinate(grid.axes, i))
            assert np.array_equal(half, want_half)
            assert len(edges) == 2
            for got, want in zip(edges, want_edges):
                assert np.array_equal(got, want)

    def test_rejects_a_full_lattice(self):
        grid = build_grid(2, 16, 1.0, [50.0, 40.0], delta_target=0.5)
        full = np.ones((16, 16), dtype=complex)
        with pytest.raises(ValueError, match="shapes"):
            invert_transform_lattice(grid, full, [full[:1, 9:]])


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

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.0, 0.15), q=st.floats(0.0, 0.15),
           vol=st.floats(0.1, 0.6),
           log_tau=st.floats(math.log(0.05), math.log(2.0)),
           log_moneyness=st.floats(-0.4, 0.4))
    def test_put_and_parity_call_match_black_scholes(self, r, q, vol,
                                                     log_tau, log_moneyness):
        # the default N = 2^14 lattice, and the call through the parity of
        # reduce_to_put, on random markets
        tau, strike = math.exp(log_tau), 100.0
        spot = strike * math.exp(log_moneyness)
        spec = BasketSpec.single(strike, tau, r, q, vol)
        for style, bs in ((EUROPEAN_PUT, "put"), (EUROPEAN_CALL, "call")):
            put, spots, put_style, term = reduce_to_put(style, spec, [spot])
            got = price_put(spots[0], put.strike, r, q, vol, tau,
                            put_style)[0] + term
            want = black_scholes(spot, strike, r, q, vol, tau, bs).price
            assert abs(got - want) <= 1e-9 * strike, style

    def test_payoff_limit_away_from_kink(self):
        # tau -> 0 reconstructs the payoff; the +-5 lattice points around
        # the strike kink carry the slow-tail ringing (ledger) and are
        # excluded here
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        grid = build_grid(1, 2**14, 1.0, [100.0])
        values, _ = raw_inverse(spec, grid, 1e-8)
        s = np.exp(grid.log_prices(0))
        payoff = np.maximum(100.0 - s, 0.0)
        err = np.abs(values - payoff)
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
        self.curve = boundary_curve(self.spec, premium_time_grid(120, 0.5))

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

    def test_surface_points_are_the_landing_values_there(self):
        # node 0's step is added at every lattice price below s*_0, the
        # points on either side of s*_0 included, as a quote landing on
        # that price adds it
        amer = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        log_s = self.grid.log_prices(0)
        k0 = int(np.searchsorted(log_s, math.log(self.curve.s_star[0])))
        for k in (k0 - 300, k0 - 1, k0, k0 + 1, k0 + 300):
            grid = build_grid(1, 2**13, 1.0, [math.exp(log_s[k])],
                              m_steps=120)
            assert grid.landing_index == (k,)
            want = price_surface(self.spec, grid, 0.5, AMERICAN_PUT,
                                 boundary=self.curve).landing_value()
            assert abs(amer.values[k] - want) <= 1e-10 * self.spec.strike

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

    @pytest.mark.parametrize("m, tau", [(119, 0.5), (120, 0.4)])
    def test_refuses_a_curve_for_another_m_or_tau(self, m, tau):
        curve = boundary_curve(self.spec, premium_time_grid(m, tau))
        with pytest.raises(ValueError, match="not on the time grid"):
            price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                          boundary=curve)

    def test_basket_american_unsupported(self, basket2_spec):
        grid = build_grid(2, 2**6, 1.0, [50.0, 50.0], m_steps=4)
        with pytest.raises(NotImplementedError):
            price_surface(basket2_spec, grid, 0.5, AMERICAN_PUT,
                          boundary=self.curve)


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
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        put, spots, style, term = reduce_to_put(EUROPEAN_CALL, spec, [100.0])
        value, _ = price_put(spots[0], put.strike, put.rate,
                             put.dividends[0], put.vols[0], 1.0, style)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "call").price
        assert abs(value + term - want) < 1e-8

    def test_parity_symmetric_point(self):
        # S = K and r = q make call and put prices equal: the parity term
        # vanishes
        spec = BasketSpec.single(100.0, 1.0, 0.04, 0.04, 0.3)
        assert abs(reduce_to_put(EUROPEAN_CALL, spec, [100.0])[3]) < 1e-10


class TestReduceToPut:
    @pytest.mark.parametrize("n", [1, 2])
    def test_european_call_parity_term(self, n, basket2_spec):
        spec = (basket2_spec if n == 2
                else BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.2))
        spots = [50.0, 45.0] if n == 2 else [90.0]
        put, put_spots, style, term = reduce_to_put(EUROPEAN_CALL, spec,
                                                    spots)
        assert put is spec and style == EUROPEAN_PUT
        assert put_spots.tolist() == spots
        want = (sum(s * math.exp(-q * 0.5)
                    for s, q in zip(spots, spec.dividends))
                - 100.0 * math.exp(-0.05 * 0.5))
        assert abs(term - want) <= 1e-12 * 100.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_european_call_minus_put_is_forward(self, n, basket2_spec):
        # the call through reduce_to_put, less the put, is the basket
        # forward sum_i S_i e^(-q_i tau) - K e^(-r tau)
        spec = (basket2_spec if n == 2
                else BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.2))
        spots = [50.0, 50.0] if n == 2 else [90.0]
        grid = build_grid(n, 2**9 if n == 2 else 2**12, 1.0, spots)
        put_value = price_surface(spec, grid, 0.5,
                                  EUROPEAN_PUT).landing_value()
        put, put_spots, style, term = reduce_to_put(EUROPEAN_CALL, spec,
                                                    spots)
        call = price_surface(put, build_grid(n, grid.size, 1.0, put_spots),
                             0.5, style).landing_value() + term
        forward = (sum(s * math.exp(-q * 0.5)
                       for s, q in zip(spots, spec.dividends))
                   - 100.0 * math.exp(-0.05 * 0.5))
        assert abs((call - put_value) - forward) <= 1e-12 * 100.0

    def test_american_call_is_symmetric_put(self):
        spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        put, spots, style, term = reduce_to_put(AMERICAN_CALL, spec, [80.0])
        assert style == AMERICAN_PUT and term == 0.0
        assert spots.tolist() == [100.0]
        assert (put.strike, put.maturity, put.rate) == (80.0, 0.5, 0.07)
        assert put.dividends.tolist() == [0.03]
        assert put.vols.tolist() == [0.2]

    def test_american_basket_call_unsupported(self, basket2_spec):
        with pytest.raises(NotImplementedError):
            reduce_to_put(AMERICAN_CALL, basket2_spec, [50.0, 50.0])

    @pytest.mark.parametrize("spot", [math.nan, math.inf])
    def test_american_call_rejects_non_finite_spot(self, spot):
        # checked before the spot becomes the put's strike
        spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        with pytest.raises(NonFiniteSpot):
            reduce_to_put(AMERICAN_CALL, spec, [spot])

    @pytest.mark.parametrize("style", [EUROPEAN_PUT, AMERICAN_PUT,
                                       EARLY_EXERCISE_PREMIUM])
    def test_puts_pass_through(self, style):
        spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        put, spots, got, term = reduce_to_put(style, spec, 90.0)
        assert (put, spots.tolist(), got, term) == (spec, [90.0], style, 0.0)

    def test_unknown_style(self):
        spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        with pytest.raises(ValueError, match="unknown style"):
            reduce_to_put("bermudan_put", spec, [90.0])


class TestPutTransformAndContourSum:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec_rqv = (q, r, sig)
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.curve = boundary_curve(self.spec, premium_time_grid(12, 0.5))
        self.axes = (Axis(1.0, 0.25, -16, 32),)

    def test_styles_add_up(self):
        euro = put_transform(self.axes, self.spec, 0.5, EUROPEAN_PUT, None)
        amer = put_transform(self.axes, self.spec, 0.5, AMERICAN_PUT,
                             self.curve)
        prem = put_transform(self.axes, self.spec, 0.5,
                             EARLY_EXERCISE_PREMIUM, self.curve)
        assert euro is unit_payoff_transform(self.axes, self.spec, 0.5)
        assert np.array_equal(amer, euro + prem)

    @pytest.mark.parametrize("style", [EUROPEAN_PUT, AMERICAN_PUT,
                                       EARLY_EXERCISE_PREMIUM])
    def test_one_asset_transform_is_the_transform_at_strike_one(self,
                                                                 style):
        # the pricers read this strike-1 transform at S/K and scale by K
        unit = BasketSpec.single(1.0, 0.5, *self.spec_rqv)
        curve = boundary_curve(unit, premium_time_grid(12, 0.5))
        bnd = None if style == EUROPEAN_PUT else self.curve
        got = put_transform(self.axes, self.spec, 0.5, style, bnd)
        want = put_transform(self.axes, unit, 0.5, style,
                             None if bnd is None else curve)
        assert np.array_equal(got, want)
        if style == EUROPEAN_PUT:
            # K^(w+1) T_1 is the transform at K
            w = self.axes[0].points[:, None]
            psi = char_exponent_wi(w, CovStruct.from_spec(self.spec))
            at_k = (payoff_mellin(w, 100.0)
                    * np.exp(-0.5 * psi - self.spec.rate * 0.5))
            assert (np.abs(100.0 ** (1.0 + w[:, 0]) * got - at_k).max()
                    <= 1e-13 * np.abs(at_k).max())

    def test_basket_transform_is_the_transform_at_strike_one(
            self, basket2_spec):
        # as for one asset, K^(1 + sum w) T_1 is the transform at K
        axes = (Axis(1.0, 0.25, -4, 9), Axis(1.0, 0.3, -4, 9))
        got = put_transform(axes, basket2_spec, 0.5, EUROPEAN_PUT, None)
        assert got is discounted_payoff_transform(axes, basket2_spec, 0.5)
        w = np.stack(np.meshgrid(*(ax.points for ax in axes), indexing="ij"),
                     axis=-1)
        psi = char_exponent_wi(w, CovStruct.from_spec(basket2_spec))
        at_k = (payoff_mellin(w, 100.0)
                * np.exp(-0.5 * psi - basket2_spec.rate * 0.5))
        assert (np.abs(100.0 ** (1.0 + w.sum(axis=-1)) * got - at_k).max()
                <= 1e-13 * np.abs(at_k).max())
        with pytest.raises(ValueError, match="one asset"):
            discounted_payoff_transform(self.axes, self.spec, 0.5)

    def test_checks(self, basket2_spec):
        with pytest.raises(ValueError, match="unknown style"):
            put_transform(self.axes, self.spec, 0.5, "bermudan_put", None)
        with pytest.raises(ValueError, match="boundary"):
            put_transform(self.axes, self.spec, 0.5, AMERICAN_PUT, None)
        with pytest.raises(NotImplementedError):
            put_transform((Axis(1.0, 0.25, -2, 4),) * 2, basket2_spec, 0.5,
                          AMERICAN_PUT, self.curve)

    def test_folded_sum_equals_full_sum(self):
        # weight h/2pi at b = 0 and 2h/2pi on each b > 0 sums the same as
        # weight h/2pi over the symmetric contour
        full = (Axis(1.0, 0.25, -400, 801),)
        folded = (full[0].part(400, 801),)
        weights = np.full(folded[0].count, 2 * 0.25 / (2 * math.pi))
        weights[0] /= 2
        # the strike-1 transforms, read at S/K = 95/100
        for style, bnd in ((EUROPEAN_PUT, None), (AMERICAN_PUT, self.curve)):
            a = contour_sum(put_transform(full, self.spec, 0.5, style, bnd),
                            full, (0.25 / (2 * math.pi),), [0.95])
            b = contour_sum(put_transform(folded, self.spec, 0.5, style, bnd),
                            folded, (weights,), [0.95])
            assert abs(a - b) <= 1e-13 * abs(a)

    @settings(max_examples=20, deadline=None)
    # basket_book seed 25's first market, refused on this grid: its edge
    # frequencies are far from negligible
    @example(rho=-0.27499, vol1=0.150094, vol2=0.21498, q1=0.0294423,
             q2=0.000162097, r=0.0235158, tau=0.25, s1=55.7387, s2=42.4256)
    @given(rho=st.floats(-0.5, 0.9), vol1=st.floats(0.15, 0.45),
           vol2=st.floats(0.15, 0.45), q1=st.floats(0.0, 0.08),
           q2=st.floats(0.0, 0.08), r=st.floats(0.01, 0.08),
           tau=st.sampled_from((0.25, 0.5, 1.0)),
           s1=st.floats(40.0, 60.0), s2=st.floats(40.0, 60.0))
    def test_basket_landing_equals_full_lattice_sum(self, rho, vol1, vol2,
                                                    q1, q2, r, tau, s1, s2):
        # the FFT is the trapezoid sum on every lattice point at once; the
        # identity holds whether or not the quality gates would pass
        spec = BasketSpec(n=2, strike=100.0, maturity=tau, rate=r,
                          dividends=[q1, q2], vols=[vol1, vol2],
                          corr=[[1.0, rho], [rho, 1.0]])
        grid = build_grid(2, 2**9, 1.0, [s1, s2])
        landing = raw_inverse(spec, grid, tau)[0][grid.landing_index]
        # K times the strike-1 transform's sum at S/K
        direct = 100.0 * contour_sum(
            put_transform(grid.axes, spec, tau, EUROPEAN_PUT, None),
            grid.axes, grid.deltas / (2 * math.pi), [s1 / 100.0, s2 / 100.0])
        assert abs(landing - direct) <= 1e-12 * spec.strike

    def test_contour_sum_matches_black_scholes(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        axes = (Axis(1.0, 0.25, -2000, 4000),)
        # K times the strike-1 transform's sum at S/K
        got = 100.0 * contour_sum(
            put_transform(axes, spec, 1.0, EUROPEAN_PUT, None),
            axes, (0.25 / (2 * math.pi),), 1.0)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "put").price
        assert abs(got - want) < 1e-8


class TestQualityGates:
    """Each gate refuses a surface whose landing value is badly wrong."""

    # basket_book seed 25's first market
    BASKET = BasketSpec(n=2, strike=100.0, maturity=0.25, rate=0.0235158,
                        dividends=[0.0294423, 0.000162097],
                        vols=[0.150094, 0.21498],
                        corr=[[1.0, -0.27499], [-0.27499, 1.0]])
    BASKET_SPOTS = [55.7387, 42.4256]
    PUT = BasketSpec.single(100.0, 0.05, 0.05, 0.02, 0.2)

    def test_imaginary_residual_refuses_a_coarse_basket_lattice(self):
        grid = build_grid(2, 2**7, 1.0, self.BASKET_SPOTS)
        with pytest.raises(ImagResidualTooLarge):
            price_surface(self.BASKET, grid, 0.25, EUROPEAN_PUT)
        values, resid = raw_inverse(self.BASKET, grid, 0.25)
        assert resid > 1e4
        # the fallback grid the benchmark uses for this market passes
        fine = price_surface(self.BASKET, build_grid(
            2, 2**9, 1.0, self.BASKET_SPOTS, delta_target=0.35), 0.25,
                             EUROPEAN_PUT).landing_value()
        assert abs(fine - 3.05280) < 1e-5
        assert abs(values[grid.landing_index] - fine) > 0.02

    def test_negative_values_refuse_a_short_put_on_64_points(self):
        grid = build_grid(1, 64, 1.0, [100.0])
        with pytest.raises(SurfaceQualityError, match="below"):
            price_surface(self.PUT, grid, 0.05, EUROPEAN_PUT)
        ungated = raw_inverse(self.PUT, grid, 0.05)[0][grid.landing_index]
        want = black_scholes(100.0, 100.0, 0.05, 0.02, 0.2, 0.05,
                             "put").price
        assert abs(want - 1.70699) < 1e-5
        assert abs(ungated - want) > 2.0

    def test_clamped_points_count_the_material_negatives_the_gate_reads(
            self):
        # central-half values below -1e-8 K count; sub-material ones and
        # those outside the central half do not, and every one is clamped
        grid = build_grid(1, 4096, 1.0, [100.0])
        values = np.full(4096, 1.0)
        values[1024:1039] = -1e-7 * self.PUT.strike  # material
        values[2000:2040] = -1e-9 * self.PUT.strike  # sub-material
        values[:10] = -1e-7 * self.PUT.strike  # outside the central half
        with mock.patch.object(fft_pricer, "invert_transform_lattice",
                               return_value=(values.copy(), 0.0)):
            surf = price_surface(self.PUT, grid, 0.05, EUROPEAN_PUT)
        assert surf.clamped_points == 15
        assert np.array_equal(surf.values, np.maximum(values, 0.0))

    def test_material_negatives_on_over_one_percent_are_refused(self):
        # the share is of the central half: 1.5% of it is refused, 0.75%
        # (the same count over the full lattice) is not
        grid = build_grid(1, 4096, 1.0, [100.0])
        for count, refused in ((31, True), (15, False)):
            values = np.full(4096, 1.0)
            values[1024:1024 + count] = -1e-7 * self.PUT.strike
            with mock.patch.object(fft_pricer, "invert_transform_lattice",
                                   return_value=(values, 0.0)):
                if refused:
                    with pytest.raises(SurfaceQualityError, match="1.5%"):
                        price_surface(self.PUT, grid, 0.05, EUROPEAN_PUT)
                else:
                    surf = price_surface(self.PUT, grid, 0.05, EUROPEAN_PUT)
                    assert surf.clamped_points == count

    @pytest.mark.parametrize("gated", [True, False])
    def test_a_non_finite_surface_is_refused(self, gated):
        # at a = 700 the transform and the read-out overflow, and the
        # central half holds NaN, which passed every comparison-based gate:
        # ungated, the raw inverse the gates read; gated, the surface
        grid = build_grid(1, 4096, 700.0, [100.0])
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.2)
        bnd = boundary_curve(spec, premium_time_grid(250, 0.5))
        with np.errstate(all="ignore"):
            if gated:
                with pytest.raises(SurfaceQualityError, match="not finite"):
                    price_surface(spec, grid, 0.5, AMERICAN_PUT,
                                  boundary=bnd)
            else:
                values, _ = invert_transform_lattice(
                    grid, *sample_transform(
                        grid, lambda axes: put_transform(
                            axes, spec, 0.5, AMERICAN_PUT, bnd)),
                    strike=spec.strike)
                assert np.isnan(values[grid.lattice.central]).any()

    def test_a_non_finite_contour_sum_is_refused(self):
        axes = (Axis(1.0, 0.25, 0, 4),)
        values = np.array([1.0, math.nan, 0.0, 0.0], dtype=complex)
        with pytest.raises(SurfaceQualityError, match="not finite"):
            contour_sum(values, axes, (0.1,), [100.0])


class TestExports:
    def setup_method(self):
        spec = BasketSpec.single(2.5, 1.0, 0.05, 0.0, 0.2)
        self.grid = build_grid(1, 16, 1.0, [2.0], m_steps=2,
                               delta_target=0.9)
        self.surf = PriceSurface(self.grid, raw_inverse(spec, self.grid,
                                                        1.0)[0],
                                 EUROPEAN_PUT, 1.0)

    def test_csv_shape(self):
        buf = io.StringIO()
        surface_to_csv(self.surf, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index_1,logS_1,S_1,value,trusted"
        assert len(lines) == 1 + 16

    @staticmethod
    def per_row_csv(surface, fp):
        """The row-by-row writer the chunked one replaced, as reference;
        a row is trusted when every index lies in [N/4, 3N/4)."""
        g = surface.grid
        head = ([f"index_{i+1}" for i in range(g.n)]
                + [f"logS_{i+1}" for i in range(g.n)]
                + [f"S_{i+1}" for i in range(g.n)] + ["value", "trusted"])
        fp.write(",".join(head) + "\n")
        logs = [g.log_prices(i) for i in range(g.n)]
        for idx in np.ndindex(*([g.size] * g.n)):
            x = [logs[i][idx[i]] for i in range(g.n)]
            trusted = all(g.size // 4 <= i < 3 * g.size // 4 for i in idx)
            row = ([str(i) for i in idx] + [f"{v:.12g}" for v in x]
                   + [f"{math.exp(v):.12g}" for v in x]
                   + [f"{surface.values[idx]:.12g}", str(int(trusted))])
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
        surf = PriceSurface(grid, raw_inverse(basket2_spec, grid, 0.5)[0],
                            EUROPEAN_PUT, 0.5)
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
        assert payload["trusted"] == [[4, 12]]
        assert abs(payload["grid"]["origin"][0]) <= self.surf.grid.lams[0] / 2
        json.dumps(payload)  # serializable


class TestHomogeneity:
    """P(cS, cK) = c P(S, K): the pricers read one strike-1 transform at
    ln(S/K), so scaling spot and strike together moves only rounding."""

    GRID = dict(size=2**12, m_steps=50)

    @settings(max_examples=15, deadline=None)
    @given(strike=st.floats(50.0, 150.0), moneyness=st.floats(0.8, 1.25),
           r=st.floats(0.01, 0.08), q=st.floats(0.0, 0.08),
           vol=st.floats(0.15, 0.45), tau=st.sampled_from((0.25, 0.5, 1.0)),
           log_c=st.floats(math.log(0.25), math.log(4.0)))
    def test_prices_and_greeks_scale_with_spot_and_strike(
            self, strike, moneyness, r, q, vol, tau, log_c):
        c, spot = math.exp(log_c), moneyness * strike
        market = (r, q, vol, tau)
        for style in (EUROPEAN_PUT, AMERICAN_PUT):
            base = price_put(spot, strike, *market, style=style,
                             **self.GRID)[0]
            got = price_put(c * spot, c * strike, *market, style=style,
                            **self.GRID)[0]
            assert abs(got - c * base) <= 1e-11 * c * strike
        try:
            base = price_american_call(spot, strike, *market, **self.GRID)
        except NoBracket:
            # the put's rate is q: a q of a few denormals has no bracket
            # (critical_price_approx), at every scale
            with pytest.raises(NoBracket):
                price_american_call(c * spot, c * strike, *market,
                                    **self.GRID)
        else:
            got = price_american_call(c * spot, c * strike, *market,
                                      **self.GRID)
            assert abs(got - c * base) <= 1e-11 * c * strike

        spec = BasketSpec.single(strike, tau, r, q, vol)
        scaled = BasketSpec.single(c * strike, tau, r, q, vol)
        for style in (EUROPEAN_PUT, AMERICAN_PUT):
            for kind, power in ((gk.delta1(), 0), (gk.gamma(), -1)):
                base = gk.greek(kind, [spot], tau, spec, style=style,
                                **self.GRID)
                got = gk.greek(kind, [c * spot], tau, scaled, style=style,
                               **self.GRID)
                want = c**power * base
                assert abs(got - want) <= 1e-9 * abs(want), (style, kind)

    @settings(max_examples=15, deadline=None)
    # basket_book seed 25's first market, refused on this grid: its edge
    # frequencies are far from negligible
    @example(rho=-0.27499, vol1=0.150094, vol2=0.21498, q1=0.0294423,
             q2=0.000162097, r=0.0235158, tau=0.25, s1=55.7387, s2=42.4256,
             log_c=math.log(3.0))
    @given(rho=st.floats(-0.5, 0.9), vol1=st.floats(0.15, 0.45),
           vol2=st.floats(0.15, 0.45), q1=st.floats(0.0, 0.08),
           q2=st.floats(0.0, 0.08), r=st.floats(0.01, 0.08),
           tau=st.sampled_from((0.25, 0.5, 1.0)),
           s1=st.floats(40.0, 60.0), s2=st.floats(40.0, 60.0),
           log_c=st.floats(math.log(0.25), math.log(4.0)))
    def test_basket_prices_residual_and_delta_scale_with_spot_and_strike(
            self, rho, vol1, vol2, q1, q2, r, tau, s1, s2, log_c):
        # a basket reads its strike-1 transform at S/K too.  The residual
        # is read on the lattice's central half, which is fixed in log
        # price, not in S/K, so at (cS, cK) it is not c times the one at
        # (S, K); at each strike it is that of the transform at K,
        # K^(1 + sum w) T_1, inverted at strike 1, which a residual left
        # behind by the strike's whole-cell shift is not
        c = math.exp(log_c)
        out = []
        for k in (100.0, c * 100.0):
            spec = BasketSpec(n=2, strike=k, maturity=tau, rate=r,
                              dividends=[q1, q2], vols=[vol1, vol2],
                              corr=[[1.0, rho], [rho, 1.0]])
            spots = np.array([s1, s2]) * (k / 100.0)
            grid = build_grid(2, 2**9, 1.0, spots)
            values, resid = raw_inverse(spec, grid, tau)
            at_k = invert_transform_lattice(grid, *sample_transform(
                grid, lambda axes: k ** (1.0 + sum(np.ix_(*(
                    ax.points for ax in axes)))) * discounted_payoff_transform(
                        axes, spec, tau)))[1]
            assert abs(resid - at_k) <= 1e-9 * at_k
            out.append((values[grid.landing_index],
                        gk.greek(gk.delta1(1), spots, tau, spec)))
        (value, delta), (got_value, got_delta) = out
        assert abs(got_value - c * value) <= 1e-12 * c * 100.0
        assert abs(got_delta - delta) <= 1e-12
