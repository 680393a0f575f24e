"""Transform layer: types, characteristic exponent, closed-form transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from conftest import assert_close
from mellin_pricer.errors import PoleError
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, early_exercise_mellin,
                                       exercise_indicator_mellin,
                                       lgamma_complex, multinomial_beta,
                                       payoff_mellin, riskneutral_drift)


def char_exponent(u, cov: CovStruct):
    """Reference characteristic exponent of the log-price process.

    Psi(u) = 1/2 u' Sigma u - i mu' u, evaluated with the plain bilinear
    form (no conjugation).  ``u`` may carry leading batch dimensions; the
    last axis must have length n.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-1:] != (cov.n,):
        raise ValueError(f"u must have trailing dimension n={cov.n}")
    quad = 0.5 * np.einsum("...i,ij,...j->...", u, cov.cov, u)
    lin = 1j * (u @ cov.drift)
    out = quad - lin
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class TestBasketSpec:
    def test_valid_single(self):
        spec = BasketSpec.single(100, 0.5, 0.03, 0.07, 0.2)
        assert spec.n == 1
        assert spec.vols[0] == 0.2

    def test_rejects_zero_vol(self):
        with pytest.raises(ValueError, match="positive"):
            BasketSpec.single(100, 0.5, 0.03, 0.07, 0.0)

    def test_rejects_negative_strike(self):
        with pytest.raises(ValueError):
            BasketSpec.single(-1, 0.5, 0.03, 0.07, 0.2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                       dividends=[0.0], vols=[0.2, 0.3], corr=np.eye(2))

    def test_rejects_asymmetric_corr(self):
        with pytest.raises(ValueError, match="symmetric"):
            BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                       dividends=[0, 0], vols=[0.2, 0.3],
                       corr=[[1, 0.5], [0.2, 1]])

    def test_rejects_non_psd_corr(self):
        # valid entries but eigenvalue -0.35
        corr = [[1, 0.9, -0.9], [0.9, 1, 0.3], [-0.9, 0.3, 1]]
        with pytest.raises(ValueError, match="semidefinite"):
            BasketSpec(n=3, strike=100, maturity=1, rate=0.05,
                       dividends=[0, 0, 0], vols=[0.2, 0.2, 0.2], corr=corr)

    def test_tolerates_rounding_level_negative_eigenvalue(self):
        corr = np.eye(2)
        corr[0, 1] = corr[1, 0] = 1.0 - 1e-14  # min eig ~ 1e-14
        BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                   dividends=[0, 0], vols=[0.2, 0.3], corr=corr)

    @pytest.mark.parametrize("field, value", [
        ("strike", math.inf), ("maturity", math.nan), ("rate", math.nan),
        ("rate", math.inf), ("dividend", math.nan), ("vol", math.nan),
        ("vol", math.inf)])
    def test_rejects_non_finite_inputs(self, field, value):
        # NaN fails every comparison, so range checks alone let it through
        params = dict(strike=100, maturity=0.5, rate=0.03, dividend=0.07,
                      vol=0.2)
        params[field] = value
        with pytest.raises(ValueError, match="finite"):
            BasketSpec.single(**params)

    def test_rejects_non_finite_correlation(self):
        with pytest.raises(ValueError, match="corr must be finite"):
            BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                       dividends=[0, 0], vols=[0.2, 0.3],
                       corr=[[1, math.nan], [math.nan, 1]])

    def test_immutable_arrays(self):
        spec = BasketSpec.single(100, 0.5, 0.03, 0.07, 0.2)
        with pytest.raises(ValueError):
            spec.vols[0] = 0.5


# ---------------------------------------------------------------------------
# drift and characteristic exponent
# ---------------------------------------------------------------------------


class TestDrift:
    def test_grouping1_values(self):
        spec = BasketSpec.single(100, 0.5, 0.03, 0.07, 0.2)
        assert_close(riskneutral_drift(spec)[0], -0.06, atol=1e-15)

    def test_rate_equals_dividend(self):
        spec = BasketSpec.single(100, 0.5, 0.04, 0.04, 0.3)
        assert_close(riskneutral_drift(spec)[0], -0.045, atol=1e-15)

    def test_componentwise(self):
        spec = BasketSpec(n=2, strike=100, maturity=1, rate=0.05,
                          dividends=[0.0, 0.02], vols=[0.2, 0.3],
                          corr=np.eye(2))
        mu = riskneutral_drift(spec)
        assert_close(mu[0], 0.03, atol=1e-15)
        assert_close(mu[1], -0.015, atol=1e-15)


class TestCharExponent:
    def setup_method(self):
        self.spec = BasketSpec.single(100, 0.5, 0.03, 0.07, 0.2)
        self.cov = CovStruct.from_spec(self.spec)

    def test_zero_vector(self):
        assert char_exponent(np.zeros(1, dtype=complex), self.cov) == 0

    def test_single_asset_closed_form(self):
        # Psi(w i) = -sigma^2 w^2 / 2 + mu w
        w = 1.0
        got = char_exponent(np.array([w * 1j]), self.cov)
        assert_close(got.real, -0.02 - 0.06, atol=1e-15)
        assert_close(got.imag, 0.0, atol=1e-15)

    def test_wi_shortcut_matches(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(20, 1)) + 1j * rng.normal(size=(20, 1))
        direct = char_exponent(1j * w, self.cov)
        short = char_exponent_wi(w, self.cov)
        assert np.abs(direct - short).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            char_exponent(np.zeros(2, dtype=complex), self.cov)

    def test_quadratic_in_scale(self):
        # Psi(c u) is a degree-2 polynomial in c: three samples determine it
        rng = np.random.default_rng(3)
        u = rng.normal(size=1) + 1j * rng.normal(size=1)
        samples = {c: char_exponent(c * u, self.cov) for c in (1.0, 2.0, 3.0)}
        coeffs = np.polyfit([1.0, 2.0, 3.0],
                            [samples[1.0], samples[2.0], samples[3.0]], 2)
        predicted = np.polyval(coeffs, 5.0)
        actual = char_exponent(5.0 * u, self.cov)
        assert abs(predicted - actual) < 1e-12 * max(1.0, abs(actual))


class TestCharFunction:
    def test_alpha_polynomial_identity(self):
        # -(Psi(wi) + r) == sigma^2/2 (w^2 + (1-k2) w - k1),
        # k1 = 2r/sigma^2, k2 = 2(r-q)/sigma^2
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = rng.uniform(0.0, 0.1)
            q = rng.uniform(0.0, 0.1)
            sig = rng.uniform(0.05, 0.6)
            spec = BasketSpec.single(100, 1.0, r, q, sig)
            cov = CovStruct.from_spec(spec)
            w = complex(rng.uniform(0.01, 5.0), rng.uniform(-50.0, 50.0))
            k1 = 2 * r / sig**2
            k2 = 2 * (r - q) / sig**2
            alpha = w**2 + (1 - k2) * w - k1
            lhs = -(char_exponent_wi(np.array([w]), cov) + r)
            rhs = 0.5 * sig**2 * alpha
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# log-gamma and multinomial beta
# ---------------------------------------------------------------------------


class TestLgamma:
    def test_pole_error(self):
        with pytest.raises(PoleError):
            lgamma_complex(-1.0 + 0.5j)


class TestMultinomialBeta:
    def test_single_asset_unity(self):
        assert multinomial_beta(np.array([0.7 + 9j])) == 1 + 0j

    def test_integer_values(self):
        assert_close(multinomial_beta(np.array([1.0, 1.0], dtype=complex)),
                     1.0, atol=1e-13)
        assert_close(multinomial_beta(np.array([2.0, 3.0], dtype=complex)),
                     1.0 / 12.0, atol=1e-13)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            multinomial_beta(np.array([-0.5 + 1j, 1.0 + 0j]))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.2, 4.0), st.floats(-40.0, 40.0),
           st.floats(0.2, 4.0), st.floats(-40.0, 40.0))
    def test_recurrence(self, re1, im1, re2, im2):
        # shifting w1 by 1 scales beta by w1 / sum(w)
        w = np.array([complex(re1, im1), complex(re2, im2)])
        shifted = w.copy()
        shifted[0] += 1.0
        lhs = multinomial_beta(shifted)
        rhs = multinomial_beta(w) * w[0] / w.sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# payoff transform
# ---------------------------------------------------------------------------


class TestPayoffMellin:
    def test_single_asset_examples(self):
        assert_close(payoff_mellin(np.array([1.0 + 0j]), 100.0), 5000.0,
                     rtol=1e-13)
        assert_close(payoff_mellin(np.array([2.0 + 0j]), 1.0), 1.0 / 6.0,
                     rtol=1e-13)

    def test_two_asset_value_and_quadrature(self):
        got = payoff_mellin(np.array([1.0 + 0j, 1.0 + 0j]), 1.0)
        assert_close(got, 1.0 / 6.0, rtol=1e-12)
        oracle, _ = dblquad(lambda s2, s1: max(1.0 - s1 - s2, 0.0),
                            0, 1, 0, 1, epsabs=1e-10)
        assert_close(got.real, oracle, atol=1e-8)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            payoff_mellin(np.array([-1.0 + 2j]), 100.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 5.0), st.floats(-50.0, 50.0))
    def test_single_asset_reduction(self, re, im):
        # n=1 must reduce exactly to K^(w+1) / (w (w+1))
        w = complex(re, im)
        got = payoff_mellin(np.array([w]), 100.0)
        want = 100.0 ** (w + 1) / (w * (w + 1))
        assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# early-exercise transform
# ---------------------------------------------------------------------------


class TestEarlyExerciseMellin:
    def setup_method(self):
        self.spec = BasketSpec.single(100, 0.5, 0.03, 0.07, 0.2)

    def test_zero_dividend_reduction(self):
        spec = BasketSpec.single(100, 0.5, 0.03, 0.0, 0.2)
        w = np.array([1.3 + 2j])
        got = early_exercise_mellin(w, 80.0, spec)
        want = -0.03 * 100.0 * 80.0 ** w[0] / w[0]
        assert_close(got, want, rtol=1e-12)

    def test_real_example(self):
        got = early_exercise_mellin(np.array([1.0 + 0j]), 80.0, self.spec)
        assert_close(got, -16.0, rtol=1e-12)

    def test_against_quadrature(self):
        w = 1 + 5j
        got = early_exercise_mellin(np.array([w]), 80.0, self.spec)

        def f(s, part):
            val = (-0.03 * 100 + 0.07 * s) * s ** (w.real - 1)
            trig = math.cos if part == "re" else math.sin
            return val * trig(w.imag * math.log(s))

        re_o, _ = quad(lambda s: f(s, "re"), 0, 80, limit=400, epsabs=1e-12)
        im_o, _ = quad(lambda s: f(s, "im"), 0, 80, limit=400, epsabs=1e-12)
        assert abs(got - complex(re_o, im_o)) < 1e-10 * abs(got)

    def test_zero_boundary_limit(self):
        assert early_exercise_mellin(np.array([1 + 1j]), 0.0, self.spec) == 0

    def test_indicator_transform_single_asset(self):
        w = np.array([0.9 + 3j])
        got = exercise_indicator_mellin(w, 70.0)
        assert_close(got, 70.0 ** w[0] / w[0], rtol=1e-12)
