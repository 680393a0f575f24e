"""Per-axis basket payoff transform against the pointwise closed form.

For n >= 2 ``discounted_payoff_transform`` evaluates every one-dimensional
factor once per lattice axis.  The reference is the pointwise product
``payoff_mellin(w, K) exp(-tau Psi(wi) - r tau)`` at every lattice point;
the two must agree within 1e-13 of the reference's peak magnitude.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import fft_pricer, mellin_core
from mellin_pricer.errors import PoleError
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, _lattice_w,
                                      build_grid, discounted_payoff_transform,
                                      price_put, price_surface)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, payoff_mellin)

PEAK_RTOL = 1e-13


def reference_transform(w, spec, tau):
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    return payoff_mellin(w, spec.strike) * np.exp(-tau * psi - spec.rate * tau)


def lattice(strip_a, deltas, sizes):
    """Outer-product lattice a_i + i (j - N_i/2) delta_i, shape (N_1..N_n, n)."""
    axes = [a + 1j * (np.arange(m) - m / 2) * d
            for a, d, m in zip(strip_a, deltas, sizes)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def assert_peak_close(got, want):
    peak = np.abs(want).max()
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= PEAK_RTOL * peak


@st.composite
def baskets(draw):
    """A valid n = 2 or 3 market, its maturity and a lattice with unequal
    abscissae, spacings and sizes per axis."""
    n = draw(st.sampled_from([2, 3]))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n,
                                     max_size=n)
    # a Gram matrix of unit vectors is a valid correlation matrix
    rows = np.array(draw(st.lists(floats(-1.0, 1.0), min_size=n,
                                  max_size=n)))
    norms = np.linalg.norm(rows, axis=1)
    rows = np.where(norms[:, None] > 0.1, rows, np.eye(n))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    corr = rows @ rows.T
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    spec = BasketSpec(n=n, strike=draw(st.floats(50.0, 150.0)),
                      maturity=1.0, rate=draw(st.floats(0.0, 0.12)),
                      dividends=draw(floats(0.0, 0.12)),
                      vols=draw(floats(0.1, 0.6)), corr=corr)
    tau = draw(st.floats(0.05, 2.0))
    max_size = 32 if n == 2 else 16
    w = lattice(draw(floats(0.2, 3.0)), draw(floats(0.05, 1.0)),
                draw(st.lists(st.integers(1, max_size), min_size=n,
                              max_size=n)))
    return spec, tau, w


class TestAgainstPointwise:
    @settings(max_examples=80, deadline=None)
    @given(baskets())
    def test_random_markets_and_lattices(self, case):
        spec, tau, w = case
        assert_peak_close(discounted_payoff_transform(w, spec, tau),
                          reference_transform(w, spec, tau))

    def test_pricer_lattice(self, basket2_spec):
        # build_grid gives the two axes different spacings
        grid = build_grid(2, 64, [1.0, 0.7], [40.0, 65.0])
        assert grid.deltas[0] != grid.deltas[1]
        w = _lattice_w(grid)
        assert_peak_close(discounted_payoff_transform(w, basket2_spec, 0.5),
                          reference_transform(w, basket2_spec, 0.5))

    def test_large_cross_terms_stay_finite(self):
        # tau = 1, rho = 0.9, vols 0.45 on the N = 2^9 basket lattice: at
        # b_1 = -b_2 ~ 64 the cross terms alone reach e^746 while each
        # axis factor is ~e^-515, so exponentiating them separately and
        # multiplying gives 0 * inf = NaN
        spec = BasketSpec(n=2, strike=100.0, maturity=1.0, rate=0.05,
                          dividends=[0.0, 0.0], vols=[0.45, 0.45],
                          corr=[[1.0, 0.9], [0.9, 1.0]])
        w = _lattice_w(build_grid(2, 512, 1.0, [50.0, 50.0]))
        assert_peak_close(discounted_payoff_transform(w, spec, 1.0),
                          reference_transform(w, spec, 1.0))

    def test_single_point_is_a_one_by_one_lattice(self, basket2_spec):
        w = lattice([1.0, 1.3], [0.25, 0.4], [8, 8])
        full = discounted_payoff_transform(w, basket2_spec, 0.5)
        point = discounted_payoff_transform(w[3, 6], basket2_spec, 0.5)
        assert np.shape(point) == ()
        assert_peak_close(np.array([point]), np.array([full[3, 6]]))

    def test_integrand_at_index(self, basket2_spec):
        grid = build_grid(2, 64, 1.0, [50.0, 50.0])
        w = _lattice_w(grid)
        want = reference_transform(w[5, 11], basket2_spec, 0.5)
        # the FFT input at index (5, 11): (-1)^(5 + 11) times the transform
        got = (-1.0) ** 16 * complex(discounted_payoff_transform(
            w[5, 11], basket2_spec, 0.5))
        assert abs(got - (-1.0) ** 16 * want) <= 1e-13 * abs(want)


class TestInputs:
    def test_rejects_non_lattice(self, basket2_spec):
        w = lattice([1.0, 1.0], [0.25, 0.25], [8, 8])
        w[2, 5, 0] += 0.1j
        with pytest.raises(ValueError, match="outer-product lattice"):
            discounted_payoff_transform(w, basket2_spec, 0.5)

    def test_rejects_contour_of_points(self, basket2_spec):
        # a list of n = 2 points is not a lattice, nor is it one when
        # given the lattice's number of dimensions
        w = np.array([[1.0 + 1j, 1.0 - 2j], [1.0 + 0.5j, 1.0 + 3j]])
        with pytest.raises(ValueError, match="lattice of shape"):
            discounted_payoff_transform(w, basket2_spec, 0.5)
        with pytest.raises(ValueError, match="outer-product lattice"):
            discounted_payoff_transform(w[None], basket2_spec, 0.5)

    def test_pole_error_off_strip(self, basket2_spec):
        w = lattice([-0.5, 1.0], [0.25, 0.25], [8, 8])
        with pytest.raises(PoleError):
            discounted_payoff_transform(w, basket2_spec, 0.5)


class TestLogGammaWork:
    @pytest.fixture
    def lgamma_points(self, monkeypatch):
        """Count the points every binding of lgamma_complex is called on."""
        counted = []
        original = mellin_core.lgamma_complex

        def counting(z):
            counted.append(np.size(z))
            return original(z)

        for module in (mellin_core, fft_pricer):
            monkeypatch.setattr(module, "lgamma_complex", counting)
        return counted

    def test_basket_surface_is_one_lattice_and_two_axes(self, lgamma_points,
                                                        basket2_spec):
        N = 2**9
        grid = build_grid(2, N, 1.0, [50.0, 50.0])
        price_surface(basket2_spec, grid, 0.5, EUROPEAN_PUT)
        # log Gamma(sum w) on the half lattice (N/2 + 1 columns) and on the
        # N/2 - 1 missed points of the unpaired row j_1 = 0, plus both
        # axes of each
        half, edge = N * (N // 2 + 1), N // 2 - 1
        assert sum(lgamma_points) == (half + N + (N // 2 + 1)
                                      + edge + 1 + edge)

    def test_single_asset_american_quote_has_none(self, lgamma_points):
        price_put(100.0, 100.0, 0.05, 0.02, 0.2, 0.5, style=AMERICAN_PUT)
        assert lgamma_points == []
