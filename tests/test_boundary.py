"""Critical-price approximation, curve sampling, and the residual diagnostic."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer import boundary
from mellin_pricer.boundary import (BoundaryCurve, boundary_curve,
                                    boundary_residual_cap, capf_residual,
                                    clear_boundary_cache,
                                    critical_price_approx)
from mellin_pricer.errors import NegativeRadicand, NoBracket
from mellin_pricer.fft_pricer import build_grid, price_american_call
from mellin_pricer.mellin_core import BasketSpec


def bisect_root(g, lo, hi, iterations=200):
    """Plain bisection oracle, independent of the production root-finder."""
    flo = g(lo)
    if flo == 0.0:
        return lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = g(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def brentq_curve(spec, times, mode="corrected"):
    """Reference: one scalar Brent solve per calendar time.

    The per-node solver the package used before its vectorised one: the
    rescaled equation s den(s) - num = 0 on [K 1e-6, K], widened to 2K
    without a sign change, to xtol 1e-13 K.
    """
    r, q, k = spec.rate, float(spec.dividends[0]), spec.strike
    out = []
    for t in times:
        if r == 0.0:
            out.append(0.0)
            continue
        if spec.maturity - t <= 0.0:
            out.append(k * min(1.0, r / q) if q > 0 else k)
            continue

        def f(s):
            numer, den = boundary._capf_denominator(s, t, spec, mode)
            return float(s * den - numer)

        hi = k if f(1e-6 * k) * f(k) <= 0 else 2.0 * k
        out.append(brentq(f, 1e-6 * k, hi, xtol=1e-13 * k, rtol=8.9e-16))
    return np.array(out)


def max_abs_residual(values, times, spec):
    live = spec.maturity - times > 0
    return np.max(np.abs(capf_residual(values[live], times[live], spec)),
                  initial=0.0)


@st.composite
def solver_markets(draw):
    """amer_book's market ranges, with q = 0 and r ~ q drawn often."""
    r = draw(st.floats(0.01, 0.08))
    q = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.08),
                       st.floats(-1e-9, 1e-9).map(lambda e: r + e)))
    vol = draw(st.floats(0.15, 0.45))
    tau = draw(st.sampled_from((0.25, 0.5, 1.0)))
    return BasketSpec.single(100.0, tau, r, q, vol), 250


class TestCriticalPrice:
    def setup_method(self):
        # grouping-1 market after the put-call symmetry swap
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)

    def test_root_residual(self):
        s = critical_price_approx(0.0, self.spec)
        assert abs(capf_residual(s, 0.0, self.spec)) < 1e-10 * self.spec.strike

    def test_bisection_agreement(self):
        s = critical_price_approx(0.1, self.spec)
        oracle = bisect_root(lambda x: capf_residual(x, 0.1, self.spec),
                             self.spec.strike * 1e-6, self.spec.strike)
        assert abs(s - oracle) < 1e-8

    def test_below_strike_when_no_dividend(self):
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.0, 0.2)
        for t in (0.0, 0.25, 0.49):
            assert critical_price_approx(t, spec) < spec.strike

    def test_continuity_in_time(self):
        h = 1e-6
        a = critical_price_approx(0.2, self.spec)
        b = critical_price_approx(0.2 + h, self.spec)
        assert abs(a - b) < 1e-2 * self.spec.strike

    def test_expiry_limit(self):
        # S*(T) -> K min(1, r/q)
        assert_close(critical_price_approx(0.5, self.spec),
                     self.spec.strike, atol=1e-12)  # r > q here
        swapped = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        assert_close(critical_price_approx(0.5, swapped),
                     100.0 * 0.03 / 0.07, atol=1e-12)

    def test_zero_rate_never_exercises(self):
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.03, 0.2)
        assert critical_price_approx(0.1, spec) == 0.0

    def test_multi_asset_rejected(self):
        spec = BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                          dividends=[0, 0], vols=[0.2, 0.3], corr=np.eye(2))
        with pytest.raises(ValueError, match="single-asset"):
            critical_price_approx(0.0, spec)


class TestVectorisedSolve:
    @settings(max_examples=60, deadline=None)
    @given(solver_markets())
    @example((BasketSpec.single(50.0, 0.9375, 0.01, 0.0, 0.5), 59))
    def test_curve_matches_per_node_brentq(self, case):
        spec, m = case
        clear_boundary_cache()
        curve = boundary_curve(spec, m, spec.maturity)
        times = np.maximum(spec.maturity - curve.times, 0.0)
        ref = brentq_curve(spec, times)
        np.testing.assert_allclose(curve.values, ref, rtol=1e-12, atol=0)
        assert (max_abs_residual(curve.values, times, spec)
                <= max_abs_residual(ref, times, spec))

    def test_array_times_match_scalar_times(self):
        spec = BasketSpec.single(100.0, 0.5, 0.07, 0.03, 0.3)
        times = np.array([[0.0, 0.1], [0.25, 0.5]])
        got = critical_price_approx(times, spec)
        assert got.shape == times.shape
        assert [critical_price_approx(t, spec) for t in times.ravel()] == \
            list(got.ravel())
        assert isinstance(critical_price_approx(0.1, spec), float)

    def test_rejects_times_outside_the_contract(self):
        spec = BasketSpec.single(100.0, 0.5, 0.07, 0.03, 0.3)
        for bad in ([0.0, 0.6], [-0.1, 0.2], [np.nan]):
            with pytest.raises(ValueError, match="maturity"):
                critical_price_approx(np.array(bad), spec)


class TestFormulaModes:
    def test_printed_mode_negative_radicand(self):
        # delta - 2q < 0 for these parameters under the verbatim formula
        spec = BasketSpec.single(100.0, 0.5, 0.07, 0.03, 0.2)
        with pytest.raises(NegativeRadicand):
            critical_price_approx(0.0, spec, mode="printed")

    def test_sigma_squared_mode_negative_delta(self):
        spec = BasketSpec.single(100.0, 0.5, 0.07, 0.03, 0.2)
        with pytest.raises(NegativeRadicand):
            critical_price_approx(0.0, spec, mode="sigma-squared")

    @pytest.mark.parametrize("mode", ["printed", "sigma-squared"])
    def test_no_bracket_when_exp_qt_dominates(self, mode):
        # exp(+q(T-t)) in the denominator outgrows the numerator for a long
        # high-dividend contract, so G has no sign change on [K 1e-6, 2K]
        spec = BasketSpec.single(100.0, 6.0, 0.02, 0.4, 0.2)
        with pytest.raises(NoBracket, match="no sign change"):
            critical_price_approx(0.0, spec, mode=mode)
        # on a curve only the nodes far from expiry lack a bracket
        assert critical_price_approx(5.9, spec, mode=mode) < spec.strike
        with pytest.raises(NoBracket, match=f"mode={mode}"):
            boundary_curve(spec, 20, 6.0, mode=mode)

    def test_printed_mode_valid_domain(self):
        # verbatim formula admits the unswapped grouping-1 parameters
        spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
        s = critical_price_approx(0.0, spec, mode="printed")
        assert 0 < s < spec.strike
        assert abs(capf_residual(s, 0.0, spec, mode="printed")) < 1e-10 * 100

    def test_corrected_radicand_is_perfect_square(self):
        # delta - 2q == (sigma/2 - (q-r)/sigma)^2 under the corrected mode,
        # so any admissible market has valid radicands
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.uniform(0.005, 0.15)
            q = rng.uniform(0.0, 0.15)
            sig = rng.uniform(0.05, 0.8)
            delta = (sig / 2 + (q - r) / sig) ** 2 + 2 * r
            square = (sig / 2 - (q - r) / sig) ** 2
            assert_close(delta - 2 * q, square, rtol=1e-12, atol=1e-15)


class TestRandomDrawAgreement:
    def test_brent_vs_bisection_50_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            r = rng.uniform(0.01, 0.1)
            q = rng.uniform(0.01, 0.1)
            sig = rng.uniform(0.1, 0.5)
            tte = rng.uniform(0.05, 1.0)
            spec = BasketSpec.single(100.0, tte, r, q, sig)
            root = critical_price_approx(0.0, spec)
            oracle = bisect_root(lambda x: capf_residual(x, 0.0, spec),
                                 1e-6 * 100, 2 * 100)
            assert abs(root - oracle) < 1e-8


class TestBoundaryCurve:
    def setup_method(self):
        clear_boundary_cache()
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)

    def test_two_point_curve_is_endpoints(self):
        curve = boundary_curve(self.spec, 2, 0.5)
        assert curve.m == 2
        assert_close(curve.values[0],
                     critical_price_approx(0.5, self.spec), atol=1e-12)
        assert_close(curve.values[1],
                     critical_price_approx(0.0, self.spec), atol=1e-12)

    def test_monotone_matches_bisection_oracle(self):
        # the oracle curve decides the shape; ours must follow it pointwise
        curve = boundary_curve(self.spec, 40, 0.5)
        oracle = []
        for theta in curve.times:
            if theta == 0.0:
                oracle.append(self.spec.strike)  # r > q expiry limit
                continue
            spec_t = BasketSpec.single(100.0, theta, self.spec.rate,
                                       float(self.spec.dividends[0]),
                                       float(self.spec.vols[0]))
            oracle.append(bisect_root(
                lambda x: capf_residual(x, 0.0, spec_t), 1e-4, 200.0))
        oracle = np.array(oracle)
        diffs = np.diff(oracle)
        assert np.all(diffs <= 1e-9), "oracle curve is monotone in tte"
        assert np.abs(curve.values - oracle).max() < 1e-8

    def test_last_node_rounding_past_maturity(self):
        # 58 * (0.9375 / 58) exceeds 0.9375 by an ulp; the last node is
        # expiry, not a calendar time before the contract starts
        spec = BasketSpec.single(50.0, 0.9375, 0.01, 0.0, 0.5)
        curve = boundary_curve(spec, 59, 0.9375)
        assert curve.times[-1] > 0.9375
        assert curve.values[-1] == critical_price_approx(0.0, spec)

    def test_cache_returns_identical_object(self):
        a = boundary_curve(self.spec, 50, 0.5)
        b = boundary_curve(self.spec, 50, 0.5)
        assert a is b
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("strike", [0.37, 80.0, 100.0, 123.456, 5e4])
    def test_curve_scales_with_strike(self, strike):
        # the critical price is homogeneous of degree 1 in (S, K)
        r, q, sig = GROUPING_PARAMS[3]
        spec = BasketSpec.single(strike, 0.5, r, q, sig)
        unit = BasketSpec.single(1.0, 0.5, r, q, sig)
        curve = boundary_curve(spec, 40, 0.5)
        np.testing.assert_allclose(
            curve.values, strike * boundary_curve(unit, 40, 0.5).values,
            rtol=4 * np.finfo(float).eps, atol=0)
        # and agrees with a solve at the strike itself to the solver's
        # tolerance
        direct = [critical_price_approx(0.5 - th, spec) for th in curve.times]
        np.testing.assert_allclose(curve.values, direct, rtol=1e-12)

    def test_five_calls_of_one_market_share_one_solve(self, monkeypatch):
        # put-call symmetry maps the calls to puts struck at each spot; all
        # five read the strike-1 curve, solved by one call over its M nodes
        solves = []

        def counting(t, spec, mode="corrected"):
            solves.append((spec.strike, np.shape(t)))
            return critical_price_approx(t, spec, mode)

        monkeypatch.setattr(boundary, "critical_price_approx", counting)
        m = 50
        for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
            price_american_call(spot, 100.0, 0.03, 0.07, 0.2, 0.5,
                                m_steps=m)
        assert solves == [(1.0, (m,))]

    def test_caches_stay_bounded(self):
        size = boundary.CACHE_SIZE
        specs = [BasketSpec.single(100.0, 0.5, 0.01 + 1e-4 * i, 0.02, 0.3)
                 for i in range(size + 10)]
        first = boundary_curve(specs[0], 2, 0.5)
        for spec in specs[1:]:
            boundary_curve(spec, 2, 0.5)
        assert len(boundary._curve_cache) == size
        assert len(boundary._unit_cache) == size
        last = boundary_curve(specs[-1], 2, 0.5)
        assert boundary_curve(specs[-1], 2, 0.5) is last
        # the least recently used market was evicted and is solved anew
        again = boundary_curve(specs[0], 2, 0.5)
        assert again is not first
        assert np.array_equal(again.values, first.values)

    def test_clear_empties_both_caches(self):
        boundary_curve(self.spec, 5, 0.5)
        assert len(boundary._curve_cache) and len(boundary._unit_cache)
        clear_boundary_cache()
        assert len(boundary._curve_cache) == 0
        assert len(boundary._unit_cache) == 0

    def test_at_tte_index_lookup(self):
        curve = boundary_curve(self.spec, 250, 0.5)
        theta = 0.5 - 3 * (0.5 / 249)
        assert curve.at_tte(theta) == curve.values[249 - 3]
        with pytest.raises(KeyError):
            curve.at_tte(0.1234567)

    def test_csv_export(self):
        curve = boundary_curve(self.spec, 5, 0.5)
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,s_star"
        assert len(lines) == 6

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            BoundaryCurve(times=np.array([0.0, 1.0]),
                          values=np.array([1.0, np.nan]), spec_hash=())


class TestResidualDiagnostic:
    def test_grouping1_near_expiry_fixture(self, grouping1_spec):
        # informational: measured |residual| at the near-expiry grid samples
        # stays inside the 0.5 currency-unit band for grouping-1 markets
        grid = build_grid(1, 2**14, 1.0, [100.0], m_steps=250)
        curve = boundary_curve(grouping1_spec, 250, 0.5)
        res_expiry = boundary_residual_cap(
            curve, grouping1_spec.maturity - curve.times[0], grouping1_spec,
            grid)
        res_next = boundary_residual_cap(
            curve, grouping1_spec.maturity - curve.times[1], grouping1_spec,
            grid)
        assert abs(res_expiry) < 0.5
        assert abs(res_next) < 0.5
        # measured values pinned loosely against regression
        assert abs(res_expiry) < 1e-3
        assert abs(res_next) < 1e-3

    def test_swapped_market_band(self, grouping1_put_spec):
        grid = build_grid(1, 2**14, 1.0, [100.0], m_steps=250)
        curve = boundary_curve(grouping1_put_spec, 250, 0.5)
        res = boundary_residual_cap(
            curve, grouping1_put_spec.maturity - curve.times[0],
            grouping1_put_spec, grid)
        assert abs(res) < 0.5

    def test_deterministic(self, grouping1_spec):
        grid = build_grid(1, 2**12, 1.0, [100.0], m_steps=50)
        curve = boundary_curve(grouping1_spec, 50, 0.5)
        t = grouping1_spec.maturity - curve.times[5]
        a = boundary_residual_cap(curve, t, grouping1_spec, grid)
        b = boundary_residual_cap(curve, t, grouping1_spec, grid)
        assert a == b
