"""Reference pricers: binomial lattice, closed form, Monte Carlo, direct sum."""

import math
import time

import numpy as np
import pytest

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer import table1
from mellin_pricer.boundary import BoundaryCurve, boundary_curve
from mellin_pricer.errors import InvalidProbability
from mellin_pricer.errors import NonFiniteSpot, OutOfRange
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                                      premium_time_grid, price_surface)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import (AMER_CALL, AMER_PUT, EURO_CALL, EURO_PUT,
                                   McConfig, american_put_node_sum,
                                   binomial_price, black_scholes,
                                   mc_basket_euro_put,
                                   price_direct_trapezoid)

# independent high-precision quadrature of the discounted lognormal
# expectation, S = K = 100, r = 0.05, q = 0, sigma = 0.2, tau = 1
BS_PUT_QUADRATURE_FIXTURE = 5.573526022256968


class TestBinomial:
    def test_reference_cell(self):
        r, q, sig = GROUPING_PARAMS[1]
        got = binomial_price(80.0, 100.0, r, q, sig, 0.5, steps=10000,
                             style=AMER_CALL)
        assert abs(got - 0.2194) < 1e-4

    def test_single_step_near_expiry(self):
        got = binomial_price(90.0, 100.0, 0.05, 0.0, 0.2, 1e-9, steps=1,
                             style=AMER_PUT)
        assert_close(got, 10.0, atol=1e-6)

    def test_european_vs_black_scholes(self):
        got = binomial_price(100.0, 100.0, 0.05, 0.0, 0.2, 1.0, steps=10000,
                             style=EURO_PUT)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "put").price
        assert abs(got - want) < 1e-3

    def test_convergence_halving(self):
        r, q, sig = GROUPING_PARAMS[1]
        vals = {k: binomial_price(100.0, 100.0, r, q, sig, 0.5, steps=k,
                                  style=AMER_CALL)
                for k in (100, 200, 400, 800, 1600)}
        gaps = [abs(vals[2 * k] - vals[k]) for k in (100, 200, 400, 800)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    @pytest.mark.parametrize("style", [EURO_PUT, EURO_CALL, AMER_PUT,
                                       AMER_CALL])
    def test_equals_step_by_step_node_formula(self, style):
        # the node table read by strided slices must reproduce, bit for bit,
        # exp of each step's own log nodes
        spot, strike, r, q, sig, tau, steps = 95.0, 100.0, 0.05, 0.03, 0.3, 0.75, 300
        dt = tau / steps
        sdt = sig * math.sqrt(dt)
        u = math.exp(sdt)
        p = (math.exp((r - q) * dt) - 1.0 / u) / (u - 1.0 / u)
        disc = math.exp(-r * dt)
        sign = 1.0 if style in (EURO_CALL, AMER_CALL) else -1.0
        log_spot = math.log(spot)
        nodes = np.exp(log_spot + (2.0 * np.arange(steps + 1) - steps) * sdt)
        values = np.maximum(sign * (nodes - strike), 0.0)
        for i in range(steps - 1, -1, -1):
            values = disc * (p * values[1:i + 2] + (1.0 - p) * values[:i + 1])
            if style in (AMER_PUT, AMER_CALL):
                nodes = np.exp(log_spot + (2.0 * np.arange(i + 1) - i) * sdt)
                values = np.maximum(values, sign * (nodes - strike))
        got = binomial_price(spot, strike, r, q, sig, tau, steps=steps,
                             style=style)
        assert got == float(values[0])

    @pytest.mark.parametrize("steps", [1, 2, 7, 200])
    @pytest.mark.parametrize("style", [EURO_PUT, EURO_CALL, AMER_PUT,
                                       AMER_CALL])
    def test_equals_allocating_loop(self, style, steps):
        # the in-place induction must reproduce, bit for bit, the loop
        # that allocated fresh arrays at every step and read the exercise
        # values as a strided slice of the whole node table
        spot, strike, r, q, sig, tau = 95.0, 100.0, 0.05, 0.03, 0.3, 0.75
        dt = tau / steps
        sdt = sig * math.sqrt(dt)
        u = math.exp(sdt)
        d = 1.0 / u
        p = min(max((math.exp((r - q) * dt) - d) / (u - d), 0.0), 1.0)
        disc = math.exp(-r * dt)
        nodes = np.exp(math.log(spot) + np.arange(-steps, steps + 1.0) * sdt)
        exercise = (nodes - strike if style in (EURO_CALL, AMER_CALL)
                    else strike - nodes)
        values = np.maximum(exercise[::2], 0.0)
        for i in range(steps - 1, -1, -1):
            values = disc * (p * values[1:i + 2] + (1.0 - p) * values[:i + 1])
            if style in (AMER_PUT, AMER_CALL):
                values = np.maximum(values,
                                    exercise[steps - i:steps + i + 1:2])
        got = binomial_price(spot, strike, r, q, sig, tau, steps=steps,
                             style=style)
        assert got == float(values[0])

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            binomial_price(100.0, 100.0, 0.8, 0.0, 0.01, 1.0, steps=1)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            binomial_price(100.0, 100.0, 0.05, 0.0, 0.2, 1.0, steps=0)


class TestBlackScholes:
    def test_quadrature_fixture(self):
        got = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "put").price
        assert_close(got, BS_PUT_QUADRATURE_FIXTURE, atol=5e-13)

    def test_put_call_parity(self):
        for spot in (80.0, 100.0, 125.0):
            c = black_scholes(spot, 100, 0.05, 0.02, 0.3, 0.7, "call").price
            p = black_scholes(spot, 100, 0.05, 0.02, 0.3, 0.7, "put").price
            want = (spot * math.exp(-0.02 * 0.7)
                    - 100 * math.exp(-0.05 * 0.7))
            assert_close(c - p, want, atol=1e-12)

    def test_maturity_limit(self):
        got = black_scholes(90.0, 100.0, 0.05, 0.0, 0.2, 1e-12, "put").price
        assert_close(got, 10.0, atol=1e-8)

    def test_greeks_vs_finite_differences(self):
        h = 1e-6
        base = black_scholes(100, 100, 0.05, 0.02, 0.2, 1.0, "put")
        up = black_scholes(100 + h, 100, 0.05, 0.02, 0.2, 1.0, "put")
        dn = black_scholes(100 - h, 100, 0.05, 0.02, 0.2, 1.0, "put")
        assert_close((up.price - dn.price) / (2 * h), base.delta, rtol=1e-6)
        hg = 1e-3  # second difference needs a wider stencil for roundoff
        up_g = black_scholes(100 + hg, 100, 0.05, 0.02, 0.2, 1.0, "put")
        dn_g = black_scholes(100 - hg, 100, 0.05, 0.02, 0.2, 1.0, "put")
        assert_close((up_g.price - 2 * base.price + dn_g.price) / hg**2,
                     base.gamma, rtol=1e-5)
        up_t = black_scholes(100, 100, 0.05, 0.02, 0.2, 1.0 + h, "put")
        dn_t = black_scholes(100, 100, 0.05, 0.02, 0.2, 1.0 - h, "put")
        # theta is -dV/dt = +dV/dtau
        assert_close((up_t.price - dn_t.price) / (2 * h), base.theta,
                     rtol=1e-6)
        up_r = black_scholes(100, 100, 0.05 + h, 0.02, 0.2, 1.0, "put")
        dn_r = black_scholes(100, 100, 0.05 - h, 0.02, 0.2, 1.0, "put")
        assert_close((up_r.price - dn_r.price) / (2 * h), base.rho,
                     rtol=1e-6)
        up_v = black_scholes(100, 100, 0.05, 0.02, 0.2 + h, 1.0, "put")
        dn_v = black_scholes(100, 100, 0.05, 0.02, 0.2 - h, 1.0, "put")
        assert_close((up_v.price - dn_v.price) / (2 * h), base.vega,
                     rtol=1e-6)
        up_q = black_scholes(100, 100, 0.05, 0.02 + h, 0.2, 1.0, "put")
        dn_q = black_scholes(100, 100, 0.05, 0.02 - h, 0.2, 1.0, "put")
        assert_close((up_q.price - dn_q.price) / (2 * h), base.dividend_rho,
                     rtol=1e-6)


class TestMonteCarlo:
    def test_single_asset_vs_black_scholes(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.02, 0.2)
        price, se = mc_basket_euro_put(spec, [100.0], 1.0,
                                       McConfig(paths=200_000, seed=3))
        want = black_scholes(100, 100, 0.05, 0.02, 0.2, 1.0, "put").price
        assert abs(price - want) <= 3 * se

    def test_tiny_vol_deterministic_limit(self):
        spec = BasketSpec(n=2, strike=100.0, maturity=1.0, rate=0.05,
                          dividends=[0.0, 0.0], vols=[1e-6, 1e-6],
                          corr=np.eye(2))
        price, _ = mc_basket_euro_put(spec, [40.0, 40.0], 1.0,
                                      McConfig(paths=10_000, seed=1))
        fwd = 40.0 * math.exp(0.05 - 0.5e-12)
        want = math.exp(-0.05) * max(100.0 - 2 * fwd, 0.0)
        assert abs(price - want) < 1e-6

    def test_seed_reproducibility(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        cfg = McConfig(paths=50_000, seed=9)
        a = mc_basket_euro_put(spec, [100.0], 1.0, cfg)
        b = mc_basket_euro_put(spec, [100.0], 1.0, cfg)
        assert a == b

    def test_zero_strike_zero_price(self):
        # payoff (0 - sum S)^+ is identically zero
        spec = BasketSpec(n=2, strike=1e-12, maturity=1.0, rate=0.05,
                          dividends=[0.0, 0.0], vols=[0.2, 0.2],
                          corr=np.eye(2))
        price, se = mc_basket_euro_put(spec, [50.0, 50.0], 1.0,
                                       McConfig(paths=10_000, seed=2))
        assert price == 0.0 and se == 0.0

    def test_path_floor(self):
        with pytest.raises(ValueError):
            McConfig(paths=10)


class TestDirectTrapezoid:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(80.0, 0.5, q, r, sig)
        self.grid = build_grid(1, 2**13, 1.0, [100.0], m_steps=60)
        self.curve = boundary_curve(self.spec, 60, 0.5)

    def test_matches_fft_at_landing_european(self):
        surf = price_surface(self.spec, self.grid, 0.5, EUROPEAN_PUT)
        direct = price_direct_trapezoid(
            self.spec, self.grid.strip_a, self.grid.size, self.grid.deltas,
            60, 0.5, [100.0], EUROPEAN_PUT)
        assert abs(surf.landing_value() - direct) <= 1e-10 * abs(direct)

    def test_matches_fft_at_landing_american(self):
        surf = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        direct = price_direct_trapezoid(
            self.spec, self.grid.strip_a, self.grid.size, self.grid.deltas,
            60, 0.5, [100.0], AMERICAN_PUT, boundary=self.curve)
        assert abs(surf.landing_value() - direct) <= 1e-10 * abs(direct)

    def test_payoff_reconstruction_off_kink(self):
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.0, 0.2)
        direct = price_direct_trapezoid(
            spec, [1.0], 2**14, [0.25], 2, 1e-12, [80.0], EUROPEAN_PUT)
        assert abs(direct - 20.0) < 1e-4

    def test_fft_surface_beats_repeated_direct_calls(self):
        # the FFT produces the whole lattice in less time than a handful of
        # single-point sums, which is the practical reason it exists
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.0, 0.2)
        grid = build_grid(1, 2**12, 1.0, [100.0], m_steps=2)
        t0 = time.perf_counter()
        price_surface(spec, grid, 0.5, EUROPEAN_PUT)
        t_fft = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in range(16):
            price_direct_trapezoid(spec, grid.strip_a, grid.size,
                                   grid.deltas, 2, 0.5,
                                   [90.0 + k], EUROPEAN_PUT)
        t_direct = time.perf_counter() - t0
        assert t_fft < t_direct


def _node0_subtracted_fft(spec, spot, tau, size=2**12, m=250):
    """The American put FFT with the t = 0 premium node priced in S space.

    Node 0's transform is the Mellin transform of the step
    c_0 (qS - rK) 1{S < s*_0}, whose 1/|b| tail is what needs the large N.
    Zeroing the boundary at that node (time to expiry tau) drops it from
    the transform; the step is added back at the spot.
    """
    curve = boundary_curve(spec, m, tau)
    values = curve.values.copy()
    values[-1] = 0.0
    dropped = BoundaryCurve(times=curve.times, values=values,
                            spec_hash=("node 0 dropped",) + curve.spec_hash)
    grid = build_grid(1, size, 1.0, [spot], m_steps=m)
    fft = price_surface(spec, grid, tau, AMERICAN_PUT,
                        boundary=dropped).landing_value()
    c0 = premium_time_grid(m, tau)[1][0]
    r, q, k = spec.rate, float(spec.dividends[0]), spec.strike
    step = 1.0 if spot < curve.values[-1] else 0.5 * (spot == curve.values[-1])
    return fft + c0 * (r * k - q * spot) * step, curve


# the paper's table as symmetric puts (strike = the call's spot, spot 100,
# rate and dividend swapped), then the benchmark's anchor puts
NODE_SUM_CASES = (
    [(BasketSpec.single(s, table1.TAU, q, r, vol), 100.0, table1.TAU)
     for _, (r, q, vol) in sorted(table1.GROUPINGS.items())
     for s in table1.SPOTS]
    + [(BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3), s, 0.5)
       for s in (80.0, 100.0, 120.0)])


class TestAmericanPutNodeSum:
    @pytest.mark.parametrize("spec,spot,tau", NODE_SUM_CASES)
    def test_matches_node0_subtracted_fft(self, spec, spot, tau):
        fft, curve = _node0_subtracted_fft(spec, spot, tau)
        got = american_put_node_sum(spot, spec, tau, curve)
        assert abs(fft - got) <= 1e-8 * spec.strike

    def test_vectorised_over_spots(self):
        spec, _, tau = NODE_SUM_CASES[-1]
        curve = boundary_curve(spec, 50, tau)
        spots = np.array([[70.0, 95.0], [100.0, 130.0]])
        got = american_put_node_sum(spots, spec, tau, curve)
        assert got.shape == spots.shape
        for s, v in zip(spots.ravel(), got.ravel()):
            assert_close(american_put_node_sum(s, spec, tau, curve), v,
                         rtol=1e-14)

    def test_no_premium_is_black_scholes(self):
        # r = 0: the boundary is 0 at every node, so nothing is exercised
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.03, 0.25)
        curve = boundary_curve(spec, 20, 0.5)
        got = american_put_node_sum(90.0, spec, 0.5, curve)
        want = black_scholes(90.0, 100.0, 0.0, 0.03, 0.25, 0.5, "put").price
        assert_close(got, want, atol=1e-13)

    def test_step_counts_half_on_the_boundary(self):
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        curve = boundary_curve(spec, 20, 0.5)
        s0 = curve.values[-1]
        below, at, above = american_put_node_sum(
            np.array([np.nextafter(s0, 0.0), s0, np.nextafter(s0, 2 * s0)]),
            spec, 0.5, curve)
        c0 = premium_time_grid(20, 0.5)[1][0]
        jump = c0 * (0.06 * 100.0 - 0.02 * s0)
        assert_close(below - at, 0.5 * jump, rtol=1e-9)
        assert_close(at - above, 0.5 * jump, rtol=1e-9)

    def test_rejects_bad_spots(self):
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        curve = boundary_curve(spec, 5, 0.5)
        with pytest.raises(NonFiniteSpot):
            american_put_node_sum([100.0, np.nan], spec, 0.5, curve)
        with pytest.raises(OutOfRange):
            american_put_node_sum(0.0, spec, 0.5, curve)
