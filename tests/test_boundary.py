"""Critical-price approximation, curve sampling, and the residual diagnostic."""

import dataclasses
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer import boundary
from mellin_pricer.boundary import (CRITICAL_PRICE_MODES, LOWEST_ROOT,
                                    BoundaryCurve, boundary_curve,
                                    capf_residual, clear_boundary_cache,
                                    critical_price_approx, premium_time_grid)
from mellin_pricer.errors import NegativeRadicand, NoBracket
from mellin_pricer.fft_pricer import (AMERICAN_PUT, build_grid,
                                      premium_moments, price_american_call,
                                      price_surface, put_boundary)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import black_scholes, boundary_residual_cap


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


def curve_of(spec, m, tau, mode="corrected"):
    """The memoised curve of ``spec`` on the M-node Simpson grid over
    [0, tau], as every pricer reads it."""
    return put_boundary(AMERICAN_PUT, spec, tau, m, mode)


def calendar_times(spec, curve):
    """The calendar times of the curve's nodes, in node order."""
    return np.maximum(spec.maturity - curve.grid.tte, 0.0)


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
    @example((BasketSpec.single(100.0, 0.25, 0.01, 0.017578125, 0.15625), 250))
    def test_curve_matches_per_node_brentq(self, case):
        # the curve's strike-1 roots hold the least residual at strike 1,
        # and K times them agree with a solve at K to the solver's tolerance
        spec, m = case
        unit = dataclasses.replace(spec, strike=1.0)
        clear_boundary_cache()
        curve = curve_of(spec, m, spec.maturity)
        times = calendar_times(spec, curve)
        ref = brentq_curve(unit, times)
        np.testing.assert_allclose(curve.u, ref, rtol=1e-12, atol=0)
        assert (max_abs_residual(curve.u, times, unit)
                <= max_abs_residual(ref, times, unit))
        np.testing.assert_allclose(curve.s_star, brentq_curve(spec, times),
                                   rtol=1e-12, atol=0)

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


@st.composite
def solver_cases(draw):
    """solver_markets' ranges plus tiny rates, whose roots near r/q need
    the LOWEST_ROOT bracket, in every formula mode and at M in
    {1, 2, 59, 250}."""
    r = draw(st.one_of(st.floats(0.01, 0.08),
                       st.floats(-300.0, -6.0).map(lambda e: 10.0**e)))
    q = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.08),
                       st.floats(-1e-9, 1e-9).map(lambda e: r * (1.0 + e))))
    vol = draw(st.floats(0.15, 0.45))
    tau = draw(st.sampled_from((0.25, 0.5, 1.0)))
    mode = draw(st.sampled_from(CRITICAL_PRICE_MODES))
    m = draw(st.sampled_from((1, 2, 59, 250)))
    return BasketSpec.single(100.0, tau, r, q, vol), m, mode


def solves_of_curve(spec, m, mode):
    """Solve the cold curve of ``spec`` and return each bracketed solve it
    made, as (f, lower ends, upper ends, args, roots)."""
    solves = []
    solve = boundary._chandrupatla

    def spy(f, x1, x2, f1, f2, args):
        inputs = (f, x1.copy(), x2.copy(), tuple(a.copy() for a in args))
        root = solve(f, x1, x2, f1, f2, args)
        solves.append((*inputs, root))
        return root

    clear_boundary_cache()
    with mock.patch.object(boundary, "_chandrupatla", spy):
        try:
            curve_of(spec, m, spec.maturity, mode)
        except (NegativeRadicand, NoBracket):
            pass  # printed and sigma-squared modes fail on some markets
    return solves


class TestSolverMatchesScipy:
    # the in-package Chandrupatla loop does find_root's arithmetic, so its
    # roots are find_root's floats, not merely close to them
    @settings(max_examples=30, deadline=None)
    @given(solver_cases())
    @example((BasketSpec.single(30.0, 0.34, 1e-300, 0.056, 0.37), 50,
              "corrected"))
    @example((BasketSpec.single(100.0, 0.5, 0.07, 0.03, 0.3), 1, "printed"))
    def test_roots_equal_find_root_bit_for_bit(self, case):
        for f, x1, x2, args, root in solves_of_curve(*case):
            want = find_root(f, (x1, x2), args=args).x
            assert root.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [1e-8, 1e-300])
    def test_lowest_root_bracket_matches(self, r):
        spec = BasketSpec.single(30.0, 0.34, r, 0.056, 0.37)
        (f, x1, x2, args, root), = solves_of_curve(spec, 59, "corrected")
        assert np.all(x1 == LOWEST_ROOT)
        want = find_root(f, (x1, x2), args=args).x
        assert root.tobytes() == want.tobytes()

    def test_lost_sign_change_and_nan_come_back_nan(self):
        def f(x, c):
            return x - c
        x1, x2 = np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])
        c = np.array([0.25, 2.0, np.nan])
        root = boundary._chandrupatla(f, x1, x2, f(x1, c), f(x2, c), (c,))
        want = find_root(f, (x1, x2), args=(c,)).x
        assert root.tobytes() == want.tobytes()
        assert root[0] == 0.25 and np.all(np.isnan(root[1:]))


class TestTinyPositiveRates:
    # the root falls toward K r/q, below the bracket's usual lower end
    # 1e-6 K; the lower end is widened only at nodes with no sign change
    @pytest.mark.parametrize("r", [1e-6, 1e-8, 1e-12, 1e-300])
    def test_curve_solves(self, r):
        spec = BasketSpec.single(30.0, 0.34, r, 0.056, 0.37)
        clear_boundary_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = curve_of(spec, 50, 0.34)
        times = calendar_times(spec, curve)
        assert max_abs_residual(curve.s_star, times, spec) < 1e-10 * 30.0
        limit = 30.0 * r / 0.056
        assert curve.s_star[-1] == pytest.approx(limit, rel=1e-12)
        assert np.all((curve.s_star > 0.5 * limit)
                      & (curve.s_star <= curve.s_star[-1]))

    @pytest.mark.parametrize("r", [1e-6, 1e-8, 1e-12])
    def test_call_on_a_tiny_dividend_prices(self, r):
        # the put this call maps to has the tiny rate; so little dividend
        # leaves the call worth about its European price
        clear_boundary_cache()
        got = price_american_call(80.0, 100.0, 0.0625, r, 0.25, 0.25)
        want = black_scholes(80.0, 100.0, 0.0625, r, 0.25, 0.25,
                             "call").price
        assert abs(got - want) < 1e-7

    def test_denormal_rate_has_no_bracket(self):
        # the root r/q at strike 1 is itself denormal, below the widened end
        unit = BasketSpec.single(1.0, 0.34, 5e-324, 0.056, 0.37)
        with pytest.raises(NoBracket, match=r"no sign change on "
                           r"\[2.2250738585072014e-308, 2.0\]"):
            critical_price_approx(0.0, unit)


class TestCacheKey:
    # markets that differ below 1e-12 must not share a cached curve
    def setup_method(self):
        clear_boundary_cache()

    def test_rate_of_4e_13_after_zero_gets_its_own_curve(self):
        zero = curve_of(BasketSpec.single(100.0, 0.5, 0.0, 0.03, 0.2), 50, 0.5)
        spec = BasketSpec.single(100.0, 0.5, 4e-13, 0.03, 0.2)
        warm = curve_of(spec, 50, 0.5)
        assert warm.u is not zero.u
        assert np.all(zero.u == 0.0) and np.all(warm.s_star > 1e-9)
        clear_boundary_cache()
        assert np.array_equal(warm.u, curve_of(spec, 50, 0.5).u)

    def test_denormal_rate_after_1e_300_raises_as_when_cold(self):
        curve_of(BasketSpec.single(30.0, 0.34, 1e-300, 0.056, 0.37), 50, 0.34)
        with pytest.raises(NoBracket, match="no sign change"):
            curve_of(BasketSpec.single(30.0, 0.34, 5e-324, 0.056, 0.37),
                     50, 0.34)


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
            curve_of(spec, 20, 6.0, mode=mode)

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
        curve = curve_of(self.spec, 2, 0.5)
        assert curve.grid.m == 2
        assert_close(curve.s_star[0],
                     critical_price_approx(0.0, self.spec), atol=1e-12)
        assert_close(curve.s_star[1],
                     critical_price_approx(0.5, self.spec), atol=1e-12)

    def test_monotone_matches_bisection_oracle(self):
        # the oracle curve decides the shape; ours must follow it pointwise
        curve = curve_of(self.spec, 40, 0.5)
        oracle = []
        for theta in curve.grid.tte[::-1]:
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
        assert np.abs(curve.s_star[::-1] - oracle).max() < 1e-8

    def test_last_node_rounding_past_maturity(self):
        # 58 * (0.9375 / 58) exceeds 0.9375 by an ulp; node 0's time to
        # expiry is the contract start, not a calendar time before it
        spec = BasketSpec.single(50.0, 0.9375, 0.01, 0.0, 0.5)
        curve = curve_of(spec, 59, 0.9375)
        assert curve.grid.tte[0] > 0.9375
        unit = dataclasses.replace(spec, strike=1.0)
        assert curve.u[0] == critical_price_approx(0.0, unit)

    def test_cache_returns_identical_object(self):
        a = curve_of(self.spec, 50, 0.5)
        b = curve_of(self.spec, 50, 0.5)
        assert a.u is b.u
        assert np.array_equal(a.s_star, b.s_star)

    @pytest.mark.parametrize("strike", [0.37, 80.0, 100.0, 123.456, 5e4])
    def test_curve_scales_with_strike(self, strike):
        # the critical price is homogeneous of degree 1 in (S, K): every
        # strike of a market reads one strike-1 solve
        r, q, sig = GROUPING_PARAMS[3]
        spec = BasketSpec.single(strike, 0.5, r, q, sig)
        unit = BasketSpec.single(1.0, 0.5, r, q, sig)
        curve = curve_of(spec, 40, 0.5)
        assert curve.u is curve_of(unit, 40, 0.5).u
        assert np.array_equal(curve.s_star, strike * curve.u)
        # and agrees with a solve at the strike itself to the solver's
        # tolerance
        direct = [critical_price_approx(t, spec)
                  for t in calendar_times(spec, curve)]
        np.testing.assert_allclose(curve.s_star, direct, rtol=1e-12)

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
        size = boundary.CURVE_CACHE_SIZE
        specs = [BasketSpec.single(100.0, 0.5, 0.01 + 1e-4 * i, 0.02, 0.3)
                 for i in range(size + 10)]
        first = curve_of(specs[0], 2, 0.5)
        for spec in specs[1:]:
            curve_of(spec, 2, 0.5)
        assert len(boundary._curve_cache) == size
        last = curve_of(specs[-1], 2, 0.5)
        assert curve_of(specs[-1], 2, 0.5).u is last.u
        # the least recently used market was evicted and is solved anew
        again = curve_of(specs[0], 2, 0.5)
        assert again.u is not first.u
        assert np.array_equal(again.u, first.u)

    def test_clear_empties_both_caches(self):
        curve = curve_of(self.spec, 5, 0.5)
        w = build_grid(1, 2**6, 1.0, [100.0], m_steps=5).axes
        premium_moments(w, self.spec, curve)
        assert len(boundary._curve_cache) and len(boundary._moment_cache)
        clear_boundary_cache()
        assert len(boundary._curve_cache) == 0
        assert len(boundary._moment_cache) == 0

    def test_node_index_lookup(self):
        # node l reads S* at its time to expiry tau - t_l; the last node
        # is expiry, where S* is K min(1, r/q) = K here (r > q)
        curve = curve_of(self.spec, 250, 0.5)
        times = premium_time_grid(250, 0.5)
        assert curve.grid.tte[3] == times.t[246]
        unit = dataclasses.replace(self.spec, strike=1.0)
        assert curve.u[3] == critical_price_approx(0.5 - times.t[246], unit)
        assert curve.s_star[3] == self.spec.strike * curve.u[3]
        assert curve.s_star[-1] == self.spec.strike
        with pytest.raises(ValueError, match="not on the time grid"):
            price_surface(self.spec, build_grid(1, 2**10, 1.0, [100.0],
                                                m_steps=250),
                          0.1234567, AMERICAN_PUT, curve)

    def test_csv_export(self):
        curve = curve_of(self.spec, 5, 0.5)
        buf = io.StringIO()
        curve.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,s_star"
        assert len(lines) == 6
        # ascending time to expiry: expiry first
        assert lines[1] == "0,100"

    def test_rejects_invalid_values(self):
        times = premium_time_grid(2, 1.0)
        with pytest.raises(ValueError):
            BoundaryCurve(times, np.array([1.0, np.nan]), 100.0)
        with pytest.raises(ValueError):
            BoundaryCurve(times, np.array([1.0, 0.5, 0.2]), 100.0)


@settings(max_examples=30, deadline=None)
@given(strike=st.floats(0.5, 500.0),
       r=st.just(0.0) | st.floats(0.005, 0.12),
       q=st.just(0.0) | st.floats(0.005, 0.12), vol=st.floats(0.1, 0.6),
       tau=st.floats(0.01, 2.0), m=st.sampled_from((1, 2, 3, 250)))
def test_curve_is_sampled_on_the_time_grid(strike, r, q, vol, tau, m):
    # the curve holds the grid it was made on, and node l reads the
    # strike-1 solve at the time to expiry nearest tau - t_l; the memoised
    # curve is that solve
    spec = BasketSpec.single(strike, tau, r, q, vol)
    times = premium_time_grid(m, tau)
    curve = boundary_curve(spec, times)
    assert curve.grid is times and curve.strike == strike
    assert np.array_equal(curve.u, curve_of(spec, m, tau).u)
    tte = times.t[::-1] if m > 1 else [tau]
    assert np.array_equal(curve.grid.tte, tte)
    nearest = [tte[np.argmin(np.abs(np.subtract(tte, tau - t)))]
               for t in times.t]
    unit = dataclasses.replace(spec, strike=1.0)
    want = critical_price_approx(np.maximum(tau - np.array(nearest), 0.0),
                                 unit)
    assert np.array_equal(curve.u, want)


class TestResidualDiagnostic:
    def test_grouping1_near_expiry_fixture(self, grouping1_spec):
        # informational: measured |residual| at the near-expiry grid samples
        # stays inside the 0.5 currency-unit band for grouping-1 markets
        grid = build_grid(1, 2**14, 1.0, [100.0], m_steps=250)
        curve = curve_of(grouping1_spec, 250, 0.5)
        res_expiry = boundary_residual_cap(curve, 249, grouping1_spec, grid)
        res_next = boundary_residual_cap(curve, 248, grouping1_spec, grid)
        assert abs(res_expiry) < 0.5
        assert abs(res_next) < 0.5
        # measured values pinned loosely against regression
        assert abs(res_expiry) < 1e-3
        assert abs(res_next) < 1e-3

    def test_swapped_market_band(self, grouping1_put_spec):
        grid = build_grid(1, 2**14, 1.0, [100.0], m_steps=250)
        curve = curve_of(grouping1_put_spec, 250, 0.5)
        res = boundary_residual_cap(curve, 249, grouping1_put_spec, grid)
        assert abs(res) < 0.5

    def test_deterministic(self, grouping1_spec):
        grid = build_grid(1, 2**12, 1.0, [100.0], m_steps=50)
        curve = curve_of(grouping1_spec, 50, 0.5)
        a = boundary_residual_cap(curve, 44, grouping1_spec, grid)
        b = boundary_residual_cap(curve, 44, grouping1_spec, grid)
        assert a == b
