"""Transform layer: types, characteristic exponent, closed-form transforms."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from conftest import assert_close
from mellin_pricer.errors import PoleError
from mellin_pricer.mellin_core import (PSD_EIGENVALUE_FLOOR, BasketSpec,
                                       CovStruct, char_exponent_wi,
                                       early_exercise_mellin,
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


def one_asset_outcome(plain, strike=100.0, maturity=0.5, rate=0.03,
                      dividend=0.07, vol=0.2, corr=1.0):
    """"ok" or the ValueError message of a one-asset spec.

    ``plain`` builds it as :meth:`BasketSpec.single` does (float scalars,
    float64 arrays); otherwise the vectors are lists.
    """
    if plain:
        vec = lambda x: np.array([x], dtype=float)
        mat = lambda x: np.array([[x]], dtype=float)
    else:
        vec, mat = (lambda x: [x]), (lambda x: [[x]])
    try:
        BasketSpec(n=1, strike=float(strike), maturity=float(maturity),
                   rate=float(rate), dividends=vec(dividend), vols=vec(vol),
                   corr=mat(corr))
    except ValueError as exc:
        return str(exc)
    return "ok"


class TestOneAssetEdgeCases:
    """Where a one-asset spec is accepted or refused, and with what message.

    ``np.allclose``'s default rtol of 1e-5 applies to the unit-diagonal
    check, so a 1 x 1 corr within about 1e-5 of 1 is accepted unless its
    magnitude exceeds 1 + 1e-12.
    """

    @pytest.mark.parametrize("plain", [True, False])
    @pytest.mark.parametrize("field, value, want", [
        ("corr", 1.0 - 1e-6, "ok"),
        ("corr", 1.0 - 9.99e-6, "ok"),
        ("corr", 1.0 + 5e-13, "ok"),
        ("corr", 1.0 - 1.001e-5, "corr must have unit diagonal"),
        ("corr", 1.0 + 2e-5, "corr must have unit diagonal"),
        ("corr", -1.0, "corr must have unit diagonal"),
        ("corr", 1.0 + 1e-6, "corr entries must lie in [-1, 1]"),
        ("corr", math.nan, "corr must be finite"),
        ("corr", -math.inf, "corr must be finite"),
        ("strike", 0.0, "strike must be positive"),
        ("strike", math.nan, "strike must be finite"),
        ("maturity", -0.0, "maturity must be positive"),
        ("maturity", math.inf, "maturity must be finite"),
        ("rate", 0.0, "ok"),
        ("rate", -1e-300, "rate must be nonnegative"),
        ("dividend", -0.0, "ok"),
        ("dividend", -1e-300, "dividend rates must be nonnegative"),
        ("dividend", math.nan, "dividends must be finite"),
        ("vol", 5e-324, "ok"),
        ("vol", 0.0, "volatilities must be strictly positive"),
        ("vol", math.inf, "vols must be finite"),
    ])
    def test_pinned_cases(self, plain, field, value, want):
        assert one_asset_outcome(plain, **{field: value}) == want

    @pytest.mark.parametrize("plain", [True, False])
    def test_first_failing_check_names_the_error(self, plain):
        assert one_asset_outcome(plain, strike=math.nan, vol=0.0,
                                 corr=2.0) == "strike must be finite"
        assert one_asset_outcome(plain, rate=-0.01, dividend=-0.01,
                                 corr=2.0) == "rate must be nonnegative"
        assert one_asset_outcome(plain, vol=-0.1,
                                 corr=0.5) == ("volatilities must be "
                                               "strictly positive")

    edge = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.nan, math.inf,
                            -math.inf])

    @settings(max_examples=300, deadline=None)
    @given(strike=st.floats(-10.0, 200.0) | edge,
           maturity=st.floats(-1.0, 5.0) | edge,
           rate=st.floats(-0.1, 0.2) | edge,
           dividend=st.floats(-0.1, 0.2) | edge,
           vol=st.floats(-0.1, 1.0) | edge,
           corr=st.floats(1.0 - 3e-5, 1.0 + 3e-5) | st.floats(-2.0, 2.0)
           | edge)
    def test_plain_and_list_forms_agree(self, strike, maturity, rate,
                                        dividend, vol, corr):
        kw = dict(strike=strike, maturity=maturity, rate=rate,
                  dividend=dividend, vol=vol, corr=corr)
        assert one_asset_outcome(True, **kw) == one_asset_outcome(False, **kw)

    def test_plain_spec_keeps_private_read_only_copies(self):
        q = np.array([0.02])
        spec = BasketSpec(n=1, strike=100.0, maturity=0.5, rate=0.05,
                          dividends=q, vols=np.array([0.2]),
                          corr=np.eye(1))
        q[0] = 0.5
        assert spec.dividends[0] == 0.02
        assert not spec.dividends.flags.writeable
        assert not spec.corr.flags.writeable


def reference_outcome(n, strike, maturity, rate, dividends, vols, corr):
    """"ok" or the ValueError message of a spec, from numpy's own checks in
    the order the package has always run them."""
    fields = dict(strike=strike, maturity=maturity, rate=rate,
                  dividends=dividends, vols=vols, corr=corr)
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            return f"{name} must be finite"
    if not strike > 0:
        return "strike must be positive"
    if not maturity > 0:
        return "maturity must be positive"
    if rate < 0:
        return "rate must be nonnegative"
    q = np.atleast_1d(np.array(dividends, dtype=float))
    s = np.atleast_1d(np.array(vols, dtype=float))
    c = np.atleast_2d(np.array(corr, dtype=float))
    if q.shape != (n,):
        return f"dividends must have length n={n}"
    if s.shape != (n,):
        return f"vols must have length n={n}"
    if c.shape != (n, n):
        return f"corr must be {n}x{n}"
    if np.any(q < 0):
        return "dividend rates must be nonnegative"
    if np.any(s <= 0):
        return "volatilities must be strictly positive"
    if not np.allclose(c, c.T, atol=1e-12):
        return "corr must be symmetric"
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        return "corr must have unit diagonal"
    if np.any(np.abs(c) > 1 + 1e-12):
        return "corr entries must lie in [-1, 1]"
    if np.linalg.eigvalsh(c).min() < PSD_EIGENVALUE_FLOOR:
        return "corr must be positive semidefinite"
    return "ok"


def near(tol):
    """0, or about +-tol: a move that lands on either side of a check, at
    times within 5e-8 tol of it (less than the atol of the unit-diagonal
    check) or 5e-6 tol past it (less than the rtol term of the symmetry
    check's |y| for |y| ~ 1)."""
    k = st.floats(0.5, 1.5) | st.sampled_from((1 - 5e-8, 1 + 5e-6))
    return st.just(0.0) | k.flatmap(
        lambda k: st.sampled_from((k * tol, -k * tol)))


@st.composite
def correlations_near_the_tolerances(draw):
    """A 2 x 2 or 3 x 3 corr moved across each check's tolerance: a
    singular correlation (unit rows of an n x (n - 1) factor), its
    off-diagonal scaled by 1 + s so that its least eigenvalue is about -s
    (the PSD floor at s ~ 1e-10), one diagonal entry moved near the
    unit-diagonal tolerance or the floor, one entry moved near the
    symmetry tolerance, and one pair perhaps set near |c| = 1 + 1e-12."""
    n = draw(st.sampled_from((2, 3)))
    factor = np.array(draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1),
        min_size=n, max_size=n)))
    norms = np.linalg.norm(factor, axis=1, keepdims=True)
    assume(np.all(norms > 0.1))
    factor /= norms
    c = factor @ factor.T
    np.fill_diagonal(c, 1.0)
    s = draw(near(1e-10) | near(1e-12))
    c = np.where(np.eye(n, dtype=bool), c, (1.0 + s) * c)
    i, j = draw(st.permutations(range(n)))[:2]
    c[i, i] += draw(near(1e-12 + 1e-5) | near(1e-10))
    if draw(st.booleans()):
        c[i, j] = c[j, i] = draw(st.sampled_from((1.0, -1.0))) * (
            1.0 + draw(st.floats(0.0, 2.0)) * 1e-12)
    c[i, j] += draw(near(1e-12 + 1e-5 * abs(c[j, i])) | near(1e-12))
    return n, c


class TestBasketValidationMatchesNumpy:
    """The checks of a basket spec, on Python floats, against numpy's
    ``isfinite``, ``allclose`` and ``eigvalsh`` near every tolerance."""

    @settings(max_examples=400, deadline=None)
    @example(case=(2, np.array([[1.0, 0.5], [0.5 + 1.1e-5, 1.0]])))
    # |c01 - c10| between 1e-12 + 1e-5 |c10| and 1e-12 + 1e-5 |c01|: only
    # the check of c01 against c10 refuses it
    @example(case=(2, np.array([[1.0, 0.5 + (1e-12 + 5e-6) * (1 + 5e-6)],
                                [0.5, 1.0]])))
    # a diagonal 1e-5 + 5e-13 below 1: inside the tolerance by its atol
    @example(case=(2, np.array([[1.0 - 1.00000000005e-5, 0.5],
                                [0.5, 1.0]])))
    @example(case=(2, np.array([[1.0 + 1.1e-5, 0.5], [0.5, 1.0]])))
    @example(case=(2, np.array([[1.0, 1.0 + 2e-12], [1.0 + 2e-12, 1.0]])))
    @example(case=(2, np.array([[1.0 - 2e-10, 1.0], [1.0, 1.0]])))
    @example(case=(3, np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.3],
                                [-0.9, 0.3, 1.0]])))
    @given(case=correlations_near_the_tolerances())
    def test_messages_equal_the_numpy_reference(self, case):
        n, corr = case
        q, vols = [0.02, 0.03, 0.0][:n], [0.2, 0.3, 0.25][:n]
        want = reference_outcome(n, 100.0, 0.5, 0.05, q, vols, corr)
        for form in (corr.tolist(), corr.copy()):
            try:
                BasketSpec(n=n, strike=100.0, maturity=0.5, rate=0.05,
                           dividends=q, vols=vols, corr=form)
                got = "ok"
            except ValueError as exc:
                got = str(exc)
            assert got == want, (form, want)


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

    def test_nan_real_part_is_a_pole_error(self):
        # NaN passed the old "Re(z) <= 0" check and came back NaN
        with pytest.raises(PoleError):
            lgamma_complex(complex(math.nan, 1.0))
        with pytest.raises(PoleError):
            payoff_mellin(np.array([complex(math.nan, 1.0)]), 100.0)


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
