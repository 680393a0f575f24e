"""Sine-cosine series inversion: transforms, prices, FFT cross-checks."""

import numpy as np
import pytest

from conftest import GROUPING_PARAMS, assert_close
from mellin_pricer.boundary import boundary_curve
from mellin_pricer.errors import RangeViolation
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM,
                                      EUROPEAN_PUT, build_grid,
                                      discounted_payoff_transform,
                                      premium_time_grid, put_transform)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, early_exercise_mellin,
                                       payoff_mellin)
from mellin_pricer.oracles import black_scholes
from mellin_pricer.series_pricer import (DwConfig, dw_price,
                                         dw_price_american_call)


def g_hat(w, tau, spec):
    """The series' European transform at the points w, as dw_price takes it."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))[:, None]
    return put_transform(w, spec, tau, EUROPEAN_PUT, None)


def h_hat(w, tau, spec, boundary):
    """The series' premium transform: minus the premium-style transform."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))[:, None]
    return -put_transform(w, spec, tau, EARLY_EXERCISE_PREMIUM, boundary)


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
            w = 1.0 + 1j * grid.frequencies(0)[j]
            via_fft = complex(discounted_payoff_transform(
                np.array([w]), self.spec, 0.5))
            got = complex(g_hat(w, 0.5, self.spec)[0])
            assert abs(got - via_fft) <= 1e-12 * max(1.0, abs(got))


class TestHHat:
    def setup_method(self):
        r, q, sig = GROUPING_PARAMS[1]
        self.spec = BasketSpec.single(100.0, 0.5, q, r, sig)
        self.curve = boundary_curve(self.spec, 12, 0.5)

    def test_zero_when_rate_and_dividend_zero(self):
        spec = BasketSpec.single(100.0, 0.5, 0.0, 0.0, 0.2)
        curve = boundary_curve(spec, 12, 0.5)
        got = h_hat(1.0 + 2j, 0.5, spec, curve)
        assert got[0] == 0

    def test_single_step_degenerate(self):
        curve1 = boundary_curve(self.spec, 1, 0.5)
        w = 1.0 + 2j
        got = h_hat(w, 0.5, self.spec, curve1)
        # one node at t = 0 with weight tau: f(w, tau) * 1 * 1 * tau
        want = 0.5 * early_exercise_mellin(np.array([w]),
                                           curve1.at_tte(0.5), self.spec)
        assert_close(complex(got[0]), complex(want), rtol=1e-13)

    def test_matches_fft_premium_accumulation(self):
        # cross-module identity: h-hat equals the weighted per-node sum of
        # early-exercise terms at a matching FFT contour point
        grid = build_grid(1, 256, 1.0, [100.0], m_steps=12)
        t_nodes, wgt = premium_time_grid(12, 0.5, "simpson")
        cov = CovStruct.from_spec(self.spec)
        for j in (10, 128, 199):
            w = 1.0 + 1j * grid.frequencies(0)[j]
            psi = char_exponent_wi(np.array([w]), cov)
            acc = 0j
            for l, t_l in enumerate(t_nodes):
                s_star = self.curve.at_tte(0.5 - t_l)
                if s_star > 0.0:
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
