"""Reference pricers: binomial lattice, closed form, Monte Carlo, direct sum."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import GROUPING_PARAMS, assert_close, time_grid
from mellin_pricer import table1
from mellin_pricer.boundary import boundary_curve, premium_time_grid
from mellin_pricer.errors import (ImagResidualTooLarge, InvalidProbability,
                                  NonFiniteSpot, OutOfRange,
                                  SurfaceQualityError)
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                                      price_american_call, price_put,
                                      price_surface)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import (AMER_CALL, AMER_PUT, EURO_CALL, EURO_PUT,
                                   McConfig, american_put_node_sum,
                                   basket_euro_put_conditional,
                                   binomial_price, black_scholes,
                                   mc_basket_euro_put,
                                   price_direct_trapezoid)

from test_payoff_transform import baskets

# independent high-precision quadrature of the discounted lognormal
# expectation, S = K = 100, r = 0.05, q = 0, sigma = 0.2, tau = 1
BS_PUT_QUADRATURE_FIXTURE = 5.573526022256968


STYLES = [EURO_PUT, EURO_CALL, AMER_PUT, AMER_CALL]


def reference_lattice(spot, strike, r, q, sig, tau, steps, style):
    """The full lattice at one spot, allocating fresh arrays at every step
    and reading the exercise values as a strided slice of the whole node
    table: what ``binomial_price`` must reproduce bit for bit."""
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
            values = np.maximum(values, exercise[steps - i:steps + i + 1:2])
    return float(values[0])


RATES = st.just(0.0) | st.floats(0.005, 0.15)


@st.composite
def lattice_cases(draw):
    """(style, spots, r, q, sigma, tau, steps): 1 to 5 spots, some repeated,
    some so deep in or out of the money that a window starts full."""
    near = st.floats(50.0, 200.0)
    deep = st.floats(-25.0, 25.0).map(lambda e: 100.0 * math.exp(e))
    spots = draw(st.lists(near | deep | st.just(100.0), min_size=1,
                          max_size=5))
    if len(spots) > 1 and draw(st.booleans()):
        spots[-1] = spots[0]
    return (draw(st.sampled_from(STYLES)), spots, draw(RATES), draw(RATES),
            draw(st.floats(0.05, 1.0)), draw(st.floats(0.01, 2.0)),
            draw(st.integers(1, 400)))


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

    @pytest.mark.parametrize("style", STYLES)
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
    @pytest.mark.parametrize("style", STYLES)
    def test_equals_allocating_loop(self, style, steps):
        got = binomial_price(95.0, 100.0, 0.05, 0.03, 0.3, 0.75, steps=steps,
                             style=style)
        assert got == reference_lattice(95.0, 100.0, 0.05, 0.03, 0.3, 0.75,
                                        steps, style)

    @settings(max_examples=300, deadline=None)
    @given(lattice_cases())
    # deep out of the money: every window starts as one zero region
    @example((AMER_CALL, [1e-3, 1e-3], 0.05, 0.03, 0.3, 0.5, 50))
    @example((EURO_PUT, [1e6], 0.05, 0.03, 0.3, 0.5, 50))
    # deep in the money: the exercise region starts full
    @example((AMER_CALL, [1e6, 1e6], 0.0, 0.15, 0.05, 2.0, 400))
    @example((AMER_PUT, [1e-3], 0.15, 0.0, 0.05, 2.0, 400))
    # one spot deep on each side of the money: the shared window is the
    # middle spot's
    @example((AMER_CALL, [1e-3, 100.0, 1e6], 0.05, 0.03, 0.3, 0.5, 50))
    # q = 0 calls and r = 0 puts have no exercise region
    @example((AMER_CALL, [1e6], 0.15, 0.0, 0.05, 2.0, 300))
    @example((AMER_PUT, [1e-3], 0.0, 0.15, 0.05, 2.0, 300))
    def test_window_equals_allocating_loop(self, case):
        style, spots, r, q, sig, tau, steps = case
        try:
            got = binomial_price(np.array(spots), 100.0, r, q, sig, tau,
                                 steps=steps, style=style)
        except InvalidProbability:
            assume(False)
        want = [reference_lattice(s, 100.0, r, q, sig, tau, steps, style)
                for s in spots]
        assert list(got) == want
        assert binomial_price(spots[-1], 100.0, r, q, sig, tau, steps=steps,
                              style=style) == want[-1]

    @pytest.mark.parametrize("clamped_to", [0.0, 1.0])
    def test_window_equals_allocating_loop_with_clamped_p(self, clamped_to):
        # sigma sqrt(dt) = |r - q| dt puts p within rounding of 0 (q > r)
        # or of 1 (r > q); search the floats around it for one the clamp
        # moves
        r, q = (0.0, 0.15) if clamped_to == 0.0 else (0.15, 0.0)
        tau, steps = 2.0, 4
        dt = tau / steps
        base = abs(r - q) * math.sqrt(dt)
        for k in range(-64, 65):
            sig = base + k * math.ulp(base)
            sdt = sig * math.sqrt(dt)
            u = math.exp(sdt)
            p = (math.exp((r - q) * dt) - 1.0 / u) / (u - 1.0 / u)
            if -1e-12 <= min(p, 1.0 - p) < 0.0:
                break
        else:
            pytest.fail("no sigma puts p just outside [0, 1]")
        spots = [60.0, 100.0, 100.0, 140.0]
        for style in STYLES:
            got = binomial_price(np.array(spots), 100.0, r, q, sig, tau,
                                 steps=steps, style=style)
            assert list(got) == [reference_lattice(s, 100.0, r, q, sig, tau,
                                                   steps, style)
                                 for s in spots]

    def test_scalar_gives_float_and_array_gives_array(self):
        args = (100.0, 0.05, 0.03, 0.3, 0.5)
        one = binomial_price(95.0, *args, steps=50)
        assert type(one) is float
        for spots in ([], [95.0], [95.0, 105.0, 95.0]):
            got = binomial_price(np.array(spots), *args, steps=50)
            assert isinstance(got, np.ndarray)
            assert got.shape == (len(spots),)
        assert binomial_price(np.array([95.0, 105.0]), *args, steps=50)[0] \
            == one

    @pytest.mark.parametrize("spots", [[np.nan], [95.0, np.nan],
                                       [np.nan, 95.0, 105.0], [np.inf, 95.0]])
    def test_non_finite_spot_in_array_raises(self, spots):
        with pytest.raises(NonFiniteSpot):
            binomial_price(np.array(spots), 100.0, 0.05, 0.03, 0.3, 0.5,
                           steps=50)

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
        self.curve = boundary_curve(self.spec, premium_time_grid(60, 0.5))

    def test_matches_fft_at_landing_european(self):
        surf = price_surface(self.spec, self.grid, 0.5, EUROPEAN_PUT)
        direct = price_direct_trapezoid(
            self.spec, self.grid.strip_a, self.grid.size, self.grid.deltas,
            0.5, [100.0], EUROPEAN_PUT)
        assert abs(surf.landing_value() - direct) <= 1e-10 * abs(direct)

    def test_matches_fft_at_landing_american(self):
        surf = price_surface(self.spec, self.grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        direct = price_direct_trapezoid(
            self.spec, self.grid.strip_a, self.grid.size, self.grid.deltas,
            0.5, [100.0], AMERICAN_PUT, boundary=self.curve)
        assert abs(surf.landing_value() - direct) <= 1e-10 * abs(direct)

    def test_matches_fft_at_landing_inside_the_node_0_step(self):
        # s*_0 = 66.8: at 50 both add premium node 0's step in S space
        grid = build_grid(1, 2**13, 1.0, [50.0], m_steps=60)
        surf = price_surface(self.spec, grid, 0.5, AMERICAN_PUT,
                             boundary=self.curve)
        direct = price_direct_trapezoid(
            self.spec, grid.strip_a, grid.size, grid.deltas,
            0.5, [50.0], AMERICAN_PUT, boundary=self.curve)
        assert abs(surf.landing_value() - direct) <= 1e-10 * abs(direct)

    def test_payoff_reconstruction_off_kink(self):
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.0, 0.2)
        direct = price_direct_trapezoid(
            spec, [1.0], 2**14, [0.25], 1e-12, [80.0], EUROPEAN_PUT)
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
                                   grid.deltas, 0.5, [90.0 + k],
                                   EUROPEAN_PUT)
        t_direct = time.perf_counter() - t0
        assert t_fft < t_direct


def _node0_subtracted_fft(spec, spot, tau, size=2**12, m=250):
    """The American put FFT at the spot, and its boundary curve: its
    premium transform leaves node 0 out, and the step is added in S space
    (``fft_pricer.node0_step``)."""
    curve = boundary_curve(spec, premium_time_grid(m, tau))
    grid = build_grid(1, size, 1.0, [spot], m_steps=m)
    fft = price_surface(spec, grid, tau, AMERICAN_PUT,
                        boundary=curve).landing_value()
    return fft, curve


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
        # 1.2e-9 K at N = 2^12 as at 2^14: the European aliasing
        # K e^(-2 pi a / delta), not node 0's tail
        fft, curve = _node0_subtracted_fft(spec, spot, tau)
        got = american_put_node_sum(spot, spec, curve)
        assert abs(fft - got) <= 1e-8 * spec.strike

    def test_vectorised_over_spots(self):
        spec, _, tau = NODE_SUM_CASES[-1]
        curve = boundary_curve(spec, premium_time_grid(50, tau))
        spots = np.array([[70.0, 95.0], [100.0, 130.0]])
        got = american_put_node_sum(spots, spec, curve)
        assert got.shape == spots.shape
        for s, v in zip(spots.ravel(), got.ravel()):
            assert_close(american_put_node_sum(s, spec, curve), v,
                         rtol=1e-14)

    def test_no_premium_is_black_scholes(self):
        # r = 0: the boundary is 0 at every node, so nothing is exercised
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.03, 0.25)
        curve = boundary_curve(spec, premium_time_grid(20, 0.5))
        got = american_put_node_sum(90.0, spec, curve)
        want = black_scholes(90.0, 100.0, 0.0, 0.03, 0.25, 0.5, "put").price
        assert_close(got, want, atol=1e-13)

    def test_step_counts_half_on_the_boundary(self):
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        curve = boundary_curve(spec, premium_time_grid(20, 0.5))
        s0 = curve.s_star[0]
        below, at, above = american_put_node_sum(
            np.array([np.nextafter(s0, 0.0), s0, np.nextafter(s0, 2 * s0)]),
            spec, curve)
        c0 = curve.grid.c[0]
        jump = c0 * (0.06 * 100.0 - 0.02 * s0)
        assert_close(below - at, 0.5 * jump, rtol=1e-9)
        assert_close(at - above, 0.5 * jump, rtol=1e-9)

    def test_rejects_bad_spots(self):
        spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
        curve = boundary_curve(spec, premium_time_grid(5, 0.5))
        with pytest.raises(NonFiniteSpot):
            american_put_node_sum([100.0, np.nan], spec, curve)
        with pytest.raises(OutOfRange):
            american_put_node_sum(0.0, spec, curve)

    def test_fft_meets_the_node_sum_above_the_node_0_step(self):
        # amer_book seed 6102's put: the spot sits 0.01 above s*_0 = 79.990;
        # with node 0 transformed on the lattice, the N = 2^14 FFT was
        # 3.05e-3 above the node sum (DW is 2.0e-7 from it)
        r, q, vol = (0.056565452182937764, 0.002748300139363549,
                     0.21407430332891142)
        spec = BasketSpec.single(100.0, 1.0, r, q, vol)
        curve = boundary_curve(spec, premium_time_grid(250, 1.0))
        fft = price_put(80.0, 100.0, r, q, vol, 1.0)[0]
        node_sum = american_put_node_sum(80.0, spec, curve)
        assert abs(fft - node_sum) <= 1e-8 * 100.0

    @pytest.mark.parametrize("rule", ["flat", "simpson", "trapezoid"])
    def test_every_time_rule_prices_on_a_coarse_grid(self, rule):
        # trapezoid and flat weights give node 0 a larger weight than
        # simpson; its step, transformed on the lattice, was refused by the
        # surface gates
        spec = BasketSpec.single(100.0, 0.75, 0.05, 0.03, 0.25)
        curve = boundary_curve(spec, time_grid(50, 0.75, rule))
        fft = price_surface(spec, build_grid(1, 4096, 1.0, [95.0], m_steps=50),
                            0.75, AMERICAN_PUT, curve).landing_value()
        want = american_put_node_sum(95.0, spec, curve)
        assert abs(fft - want) <= 1e-6 * 100.0

    def test_coarse_grid_call_prices(self):
        # table1 grouping 1 at spot 80, N = 4096, M = 50: once refused by
        # the material-negative gate
        fft = price_american_call(80.0, 100.0, 0.03, 0.07, 0.2, 0.5,
                                  size=4096, m_steps=50)
        put = BasketSpec.single(80.0, 0.5, 0.07, 0.03, 0.2)
        curve = boundary_curve(put, premium_time_grid(50, 0.5))
        want = american_put_node_sum(100.0, put, curve)
        assert abs(fft - want) <= 1e-6 * 100.0

    @settings(max_examples=40, deadline=None)
    @given(k=st.floats(50.0, 150.0), r=st.just(0.0) | st.floats(0.005, 0.12),
           q=st.just(0.0) | st.floats(0.005, 0.12), vol=st.floats(0.1, 0.6),
           tau=st.floats(0.05, 2.0), u=st.floats(0.7, 1.3),
           near=st.none() | st.floats(-1e-2, 1e-2))
    # on the step, and one ulp above it
    @example(k=85.37109375, r=0.07884872926216192, q=0.0,
             vol=0.5139128932163425, tau=1.9136800652069277, u=1.0, near=0.0)
    @example(k=100.0, r=0.06, q=0.02, vol=0.3, tau=0.5, u=1.0, near=1e-14)
    def test_fft_meets_the_node_sum_on_random_markets(self, k, r, q, vol,
                                                      tau, u, near):
        # ``near`` puts the spot within 1e-2 of s*_0, on either side of
        # node 0's step or on it
        spec = BasketSpec.single(k, tau, r, q, vol)
        curve = boundary_curve(spec, premium_time_grid(250, tau))
        s0 = curve.s_star[0]
        spot = s0 + near if near is not None and s0 > 0.0 else k * u
        fft = price_put(spot, k, r, q, vol, tau)[0]
        node_sum = american_put_node_sum(spot, spec, curve)
        assert abs(fft - node_sum) <= 1e-7 * k


# the benchmark's basket anchor and its value by 96 Gauss-Legendre nodes
ANCHOR = BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                    dividends=[0.02, 0.03], vols=[0.2, 0.3],
                    corr=[[1.0, 0.5], [0.5, 1.0]])
ANCHOR_VALUE = 5.428650350851578


class TestBasketConditional:
    def test_anchor_converges(self):
        at = {m: basket_euro_put_conditional(ANCHOR, [50.0, 50.0], 0.5,
                                             nodes=m) for m in (64, 96, 192)}
        assert abs(at[96] - ANCHOR_VALUE) <= 1e-12
        assert abs(at[96] - at[192]) <= 1e-12
        assert abs(at[64] - ANCHOR_VALUE) <= 1e-12

    def test_agrees_with_monte_carlo(self):
        mc, se = mc_basket_euro_put(ANCHOR, [50.0, 50.0], 0.5,
                                    McConfig(paths=200_000, seed=11))
        want = basket_euro_put_conditional(ANCHOR, [50.0, 50.0], 0.5)
        assert abs(mc - want) <= 3.0 * se

    def test_default_grid_anchor(self):
        grid = build_grid(2, 2**9, 1.0, [50.0, 50.0])
        got = price_surface(ANCHOR, grid, 0.5, EUROPEAN_PUT).landing_value()
        assert abs(got - ANCHOR_VALUE) <= 1.2e-9

    def test_two_assets_only(self):
        one = BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.2)
        three = BasketSpec(n=3, strike=150.0, maturity=0.5, rate=0.05,
                           dividends=[0.02] * 3, vols=[0.2] * 3,
                           corr=np.eye(3))
        for spec, spots in ((one, [90.0]), (three, [50.0, 52.0, 48.0])):
            with pytest.raises(ValueError, match="two assets"):
                basket_euro_put_conditional(spec, spots, 0.5)
        perfect = BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                             dividends=[0.0, 0.0], vols=[0.2, 0.3],
                             corr=np.ones((2, 2)))
        with pytest.raises(ValueError, match="rho"):
            basket_euro_put_conditional(perfect, [50.0, 50.0], 0.5)

    @settings(max_examples=30, deadline=None)
    @given(case=baskets(), u=st.lists(st.floats(0.8, 1.2), min_size=2,
                                      max_size=2))
    def test_default_grid_is_within_1e_8_strike_or_refused(self, case, u):
        spec, tau, _ = case
        # where the reference's default nodes are within 4e-13 K
        assume(spec.n == 2 and abs(spec.corr[0, 1]) <= 0.95)
        spots = 0.5 * spec.strike * np.array(u)
        grid = build_grid(2, 2**9, 1.0, spots)
        try:
            got = price_surface(spec, grid, tau, EUROPEAN_PUT).landing_value()
        except (ImagResidualTooLarge, SurfaceQualityError):
            return
        want = basket_euro_put_conditional(spec, spots, tau, nodes=96)
        assert abs(got - want) <= 1e-8 * spec.strike
