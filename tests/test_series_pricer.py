"""Sine-cosine series inversion: transforms, prices, FFT cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer import series_pricer
from mellin_pricer.boundary import boundary_curve, premium_time_grid
from mellin_pricer.errors import RangeViolation
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM,
                                      EUROPEAN_PUT, Axis, build_grid,
                                      price_put, put_transform,
                                      unit_payoff_transform)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, early_exercise_mellin,
                                       payoff_mellin)
from mellin_pricer.oracles import american_put_node_sum, black_scholes
from mellin_pricer.series_pricer import (DwConfig, dw_price,
                                         dw_price_american_call)


def at(w):
    """The one-point contour at w."""
    w = complex(w)
    return (Axis(w.real, w.imag, 1, 1),)


def g_hat(w, tau, spec):
    """The series' European transform at the point w, at strike K: K^(w+1)
    times the strike-1 transform dw_price sums."""
    return spec.strike ** (1.0 + complex(w)) * put_transform(
        at(w), spec, tau, EUROPEAN_PUT, None)


def h_hat(w, tau, spec, boundary):
    """The series' premium transform at strike K: minus the premium-style
    transform, scaled as in :func:`g_hat`."""
    return -spec.strike ** (1.0 + complex(w)) * put_transform(
        at(w), spec, tau, EARLY_EXERCISE_PREMIUM, boundary)


class TestGHat:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)

    def test_tau_zero_is_payoff_transform(self):
        w = 1.7 + 3j
        got = g_hat(w, 0.0, self.spec)
        assert_close(complex(got[0]), complex(payoff_mellin(
            np.array([w]), 100.0)), rtol=1e-13)

    def test_real_point_example(self):
        got = g_hat(1.0 + 0j, 0.0, self.spec)
        assert_close(complex(got[0]), 5000.0, rtol=1e-12)

    def test_matches_fft_integrand(self):
        # the FFT input at index j is (-1)^j times the same transform at
        # the lattice point a + i b_j
        grid = build_grid(1, 256, 1.0, [100.0], m_steps=4)
        for j in (3, 130, 222):
            w = complex(grid.axes[0].points[j])
            via_fft = 100.0 ** (1.0 + w) * unit_payoff_transform(
                (grid.axes[0].part(j, j + 1),), self.spec, 0.5).item()
            got = complex(g_hat(w, 0.5, self.spec)[0])
            assert abs(got - via_fft) <= 1e-12 * max(1.0, abs(got))


class TestHHat:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.curve = boundary_curve(self.spec, premium_time_grid(12, 0.5))

    def test_zero_when_rate_and_dividend_zero(self):
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.0, 0.2)
        curve = boundary_curve(spec, premium_time_grid(12, 0.5))
        got = h_hat(1.0 + 2j, 0.5, spec, curve)
        assert got[0] == 0

    def test_single_step_degenerate(self):
        # one node at t = 0 with weight tau: no diffusion, so it is out of
        # the transform, and the premium is its step tau (rK - qS) in S
        curve1 = boundary_curve(self.spec, premium_time_grid(1, 0.5))
        assert h_hat(1.0 + 2j, 0.5, self.spec, curve1)[0] == 0
        r, q = self.spec.rate, float(self.spec.dividends[0])
        spot = 0.9 * curve1.s_star[0]
        got = dw_price(spot, 0.5, self.spec, DwConfig(m_steps=1),
                       style=EARLY_EXERCISE_PREMIUM)
        assert_close(got, 0.5 * (r * 100.0 - q * spot), rtol=1e-13)

    def test_matches_fft_premium_accumulation(self):
        # cross-module identity: h-hat equals the weighted per-node sum of
        # early-exercise terms at a matching FFT contour point, over the
        # nodes t_l > 0 (node 0 is a step in S space)
        grid = build_grid(1, 256, 1.0, [100.0], m_steps=12)
        times = premium_time_grid(12, 0.5)
        t_nodes, wgt = times.t, times.c
        cov = CovStruct.from_spec(self.spec)
        for j in (10, 128, 199):
            w = complex(grid.axes[0].points[j])
            psi = char_exponent_wi(np.array([w]), cov)
            acc = 0j
            for l, t_l in enumerate(t_nodes):
                s_star = self.curve.s_star[l]
                if s_star > 0.0 and t_l > 0.0:
                    acc += wgt[l] * complex(
                        early_exercise_mellin(np.array([w]), s_star, self.spec)
                        * np.exp(-t_l * psi - self.spec.rate * t_l))
            got = complex(h_hat(w, 0.5, self.spec, self.curve)[0])
            assert abs(got - acc) <= 1e-12 * max(1.0, abs(got))


class TestDwPrice:
    def test_european_vs_black_scholes(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        got = dw_price(100.0, 1.0, spec, DwConfig(), style=EUROPEAN_PUT)
        want = black_scholes(100, 100, 0.05, 0.0, 0.2, 1.0, "put").price
        assert abs(got - want) <= 1e-6

    def test_reference_calls(self):
        r, q, sig = GROUPING_PARAMS[1]
        got = dw_price_american_call(80.0, 100.0, r, q, sig, 0.5)
        assert abs(got - 0.2198) < 2e-3
        r, q, sig = GROUPING_PARAMS[2]
        got = dw_price_american_call(120.0, 100.0, r, q, sig, 0.5)
        assert abs(got - 23.4010) < 2e-3

    @pytest.mark.parametrize("field", ["strip_a", "log_range"])
    def test_config_refuses_nan(self, field):
        # NaN passed the old "<= 0" checks and the price came out NaN
        with pytest.raises(ValueError, match=field):
            DwConfig(**{field: float("nan")})

    # the curve holds its own grid, so only another tau can disagree
    @pytest.mark.parametrize("m, tau", [(12, 0.25)])
    def test_refuses_a_curve_for_another_m_or_tau(self, monkeypatch, m, tau):
        spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
        curve = boundary_curve(spec, premium_time_grid(m, tau))
        monkeypatch.setattr(series_pricer, "put_boundary",
                            lambda *args: curve)
        with pytest.raises(ValueError, match="not on the time grid"):
            dw_price(95.0, 0.5, spec, DwConfig(m_steps=12))

    def test_range_guard(self):
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        with pytest.raises(RangeViolation):
            dw_price(1000.0, 1.0, spec, DwConfig(log_range=10.0))

    def test_positive_above_unit_spot(self):
        # x = -ln(S) < 0 for S > 1; the exp(a x) factor keeps prices positive
        spec = BasketSpec.single(100.0, 1.0, 0.05, 0.0, 0.2)
        for spot in (60.0, 90.0, 120.0):
            got = dw_price(spot, 1.0, spec, DwConfig(), style=EUROPEAN_PUT)
            assert got > 0

    def test_doubling_terms_convergence_measured(self):
        # doubling the term count moves the first reference cell by ~2e-4
        # (slow 1/b truncation tail of the near-expiry premium term; see
        # the decisions ledger)
        r, q, sig = GROUPING_PARAMS[1]
        a = dw_price_american_call(80.0, 100.0, r, q, sig, 0.5,
                                   cfg=DwConfig(n_terms=250))
        b = dw_price_american_call(80.0, 100.0, r, q, sig, 0.5,
                                   cfg=DwConfig(n_terms=500))
        assert abs(a - b) < 5e-4

    def test_american_at_least_european(self):
        r, q, sig = GROUPING_PARAMS[1]
        spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        amer = dw_price(100.0, 0.5, spec, style=AMERICAN_PUT)
        euro = dw_price(100.0, 0.5, spec, style=EUROPEAN_PUT)
        assert amer >= euro - 1e-8


@settings(max_examples=25, deadline=None)
@given(strike=st.floats(20.0, 50.0), moneyness=st.floats(0.8, 1.2),
       rate=st.just(0.0) | st.floats(0.005, 0.1),
       dividend=st.just(0.0) | st.floats(0.005, 0.1),
       vol=st.floats(0.15, 0.5), tau=st.floats(0.25, 2.0),
       scale=st.floats(0.5, 2.0),
       style=st.sampled_from([EUROPEAN_PUT, AMERICAN_PUT]))
def test_price_is_homogeneous_in_spot_and_strike(strike, moneyness, rate,
                                                 dividend, vol, tau, scale,
                                                 style):
    # P(lambda S, lambda K) = lambda P(S, K); the series contour does not
    # depend on the spot, so the two sides differ by rounding only.  Spots
    # stay inside the series' range e^(+-L/2); positive rates and
    # dividends below 0.005 are left out as in the premium tests, since the
    # boundary solve refuses tiny positive rates
    spot = moneyness * strike
    cfg = DwConfig(m_steps=50)
    price = lambda s, k: dw_price(s, tau, BasketSpec.single(
        k, tau, rate, dividend, vol), cfg, style)
    base = price(spot, strike)
    assert_close(price(scale * spot, scale * strike), scale * base,
                 rtol=1e-10)


class TestDwVsFft:
    def test_reference_rows_agreement_measured(self):
        # measured gap between the two inversion routes on the benchmark
        # rows: <= 1e-3 except for the two deep-ITM grouping-1/2 cells
        # where the series truncation at b ~ 78.5 meets the near-boundary
        # discontinuity (Gibbs; ledger).  Bounds pin the measured behavior.
        from mellin_pricer.fft_pricer import price_american_call

        worst_all, worst_otm = 0.0, 0.0
        for g, (r, q, sig) in GROUPING_PARAMS.items():
            for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
                fft = price_american_call(spot, 100.0, r, q, sig, 0.5)
                dw = dw_price_american_call(spot, 100.0, r, q, sig, 0.5)
                gap = abs(fft - dw)
                worst_all = max(worst_all, gap)
                if not (g in (1, 2) and spot >= 110.0):
                    worst_otm = max(worst_otm, gap)
        assert worst_otm <= 1e-3
        assert worst_all <= 4e-3


#: amer_book quotes (K = 100, M = 250) whose |fft - dw| check failed while
#: the series summed premium node 0: (seed, r, q, sigma, tau, call); the
#: put is at spot 80, the call at spot 120
NODE_ZERO_QUOTES = [
    (1311, 0.06566352068845208, 0.03618987290379374, 0.18947264308477468,
     1.0, False),
    (1314, 0.011636228005319882, 0.07228037659443624, 0.19131972836084854,
     1.0, True),
    (1327, 0.023436551996906797, 0.0492476608638045, 0.15253055100455243,
     1.0, True),
    (1531, 0.040939455316283145, 0.07389524454833685, 0.16548888009433593,
     1.0, True),
    (2044, 0.06861770173809682, 0.029777349027547997, 0.2017161509662145,
     1.0, False),
    (2142, 0.01749777244512217, 0.050515091845112235, 0.16166547470882162,
     1.0, True),
]


@pytest.mark.parametrize("seed, r, q, vol, tau, call", NODE_ZERO_QUOTES,
                         ids=[str(c[0]) for c in NODE_ZERO_QUOTES])
def test_series_meets_the_node_sum_where_node_zero_rang(seed, r, q, vol, tau,
                                                        call):
    # node 0's step is summed in S space, so the series converges to the
    # closed-form node sum; summed in the series, the step leaves it
    # 2e-3 to 3e-3 off on these quotes
    if call:  # put-call symmetry: the put struck at the call's spot
        spec, spot = BasketSpec.single(120.0, tau, q, r, vol), 100.0
    else:
        spec, spot = BasketSpec.single(100.0, tau, r, q, vol), 80.0
    want = american_put_node_sum(
        spot, spec, boundary_curve(spec, premium_time_grid(250, tau)))
    got = dw_price(spot, tau, spec, DwConfig(n_terms=1000))
    assert abs(got - want) <= 1e-5


@pytest.mark.parametrize("seed, r, q, vol, tau, call", NODE_ZERO_QUOTES,
                         ids=[str(c[0]) for c in NODE_ZERO_QUOTES])
def test_fft_meets_the_node_sum_where_node_zero_rang(seed, r, q, vol, tau,
                                                     call):
    # the lattice adds node 0 in S space as the series does; transformed on
    # the lattice, its step left the N = 2^14 FFT 1e-4 to 6e-4 off
    if call:
        spec, spot = BasketSpec.single(120.0, tau, q, r, vol), 100.0
    else:
        spec, spot = BasketSpec.single(100.0, tau, r, q, vol), 80.0
    want = american_put_node_sum(
        spot, spec, boundary_curve(spec, premium_time_grid(250, tau)))
    got = price_put(spot, spec.strike, spec.rate, float(spec.dividends[0]),
                    vol, tau)[0]
    assert abs(got - want) <= 1e-8 * spec.strike
