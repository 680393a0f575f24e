"""Reference pricers: binomial lattice, closed form, Monte Carlo, direct sum."""

import math
import time

import numpy as np
import pytest

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer.boundary import boundary_curve
from mellin_pricer.errors import InvalidProbability
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                                      price_surface)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import (AMER_CALL, AMER_PUT, EURO_CALL, EURO_PUT,
                                   McConfig, binomial_price, black_scholes,
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
