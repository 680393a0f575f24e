"""Per-axis basket payoff transform against the pointwise closed form.

For n >= 2 ``discounted_payoff_transform`` evaluates every one-dimensional
factor once per lattice axis.  It is the transform at strike 1, and the
reference is the pointwise product
``payoff_mellin(w, 1) exp(-tau Psi(wi) - r tau)`` at every lattice point;
the two must agree within 1e-13 of the reference's peak magnitude.  On a
lattice it skips the points whose magnitude bound is below e^-TAIL of the
transform at b = 0; the bound is checked against the pointwise log
magnitude.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import fft_pricer, mellin_core
from mellin_pricer.boundary import clear_boundary_cache
from mellin_pricer.errors import PoleError
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, GAMMA_TABLE,
                                      TAIL, Axis, _axis_logs,
                                      _payoff_log_bound, build_grid,
                                      discounted_payoff_transform, price_put,
                                      price_surface)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, lgamma_complex,
                                       payoff_mellin)

PEAK_RTOL = 1e-13
# rounding of two evaluations of a log magnitude of order 1e3; the bound's
# table slack was 4e-6 or more on sampled lattices
LOG_ATOL = 1e-9


def reference_transform(w, spec, tau):
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    return payoff_mellin(w, 1.0) * np.exp(-tau * psi - spec.rate * tau)


def reference_log_magnitude(w, spec, tau):
    """log |reference_transform(w)|, pointwise in log space, so that points
    whose transform underflows still have a finite value."""
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    sw = np.sum(w, axis=-1)
    return (np.sum(lgamma_complex(w), axis=-1) - lgamma_complex(sw)
            - np.log(sw) - np.log(sw + 1.0) - tau * psi
            - spec.rate * tau).real


def log_bound(axes, spec, tau):
    """(bound, log T(a)) on the whole lattice of ``axes``, both as
    log |T| rather than log(|T| e^(r tau))."""
    cov = CovStruct.from_spec(spec)
    zs = [ax.points for ax in axes]
    bound, log_peak = _payoff_log_bound(axes, _axis_logs(zs, cov, tau), cov,
                                       tau)
    return bound(slice(None)) - spec.rate * tau, log_peak - spec.rate * tau


def lattice(strip_a, deltas, sizes, firsts=None):
    """Axes a_i + i (first_i + k) delta_i, k < N_i, first_i = -N_i // 2 by
    default."""
    if firsts is None:
        firsts = [-(m // 2) for m in sizes]
    return tuple(Axis(a, d, f, m)
                 for a, d, m, f in zip(strip_a, deltas, sizes, firsts))


def points(axes):
    """The lattice of ``axes`` as an array of points, shape (N_1..N_n, n)."""
    return np.stack(np.meshgrid(*(ax.points for ax in axes),
                                indexing="ij"), axis=-1)


def assert_peak_close(got, want):
    peak = np.abs(want).max()
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= PEAK_RTOL * peak


@st.composite
def baskets(draw, strip_lo=0.2, delta_hi=1.0):
    """A valid n = 2 or 3 market, its maturity and a lattice with unequal
    abscissae (at least ``strip_lo``), spacings (at most ``delta_hi``),
    sizes and first indices per axis, through b = 0 or not."""
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
    sizes = draw(st.lists(st.integers(1, max_size), min_size=n, max_size=n))
    firsts = [draw(st.integers(-m, 1)) for m in sizes]
    axes = lattice(draw(floats(strip_lo, 3.0)), draw(floats(0.05, delta_hi)),
                   sizes, firsts)
    return spec, tau, axes


class TestAgainstPointwise:
    @settings(max_examples=80, deadline=None)
    @given(baskets())
    def test_random_markets_and_lattices(self, case):
        spec, tau, axes = case
        assert_peak_close(discounted_payoff_transform(axes, spec, tau),
                          reference_transform(points(axes), spec, tau))

    def test_pricer_lattice(self, basket2_spec):
        # build_grid gives every basket axis one spacing, which reads
        # log Gamma(sum w) from the index-sum table; unequal spacings
        # evaluate it at every kept point
        axes = lattice([1.0, 0.7], [0.2499913, 0.2617994], [64, 64])
        assert_peak_close(
            discounted_payoff_transform(axes, basket2_spec, 0.5),
            reference_transform(points(axes), basket2_spec, 0.5))

    def test_large_cross_terms_stay_finite(self):
        # tau = 1, rho = 0.9, vols 0.45 on the N = 2^9 basket lattice: at
        # b_1 = -b_2 ~ 64 the cross terms alone reach e^746 while each
        # axis factor is ~e^-515, so exponentiating them separately and
        # multiplying gives 0 * inf = NaN
        spec = BasketSpec(n=2, strike=100.0, maturity=1.0, rate=0.05,
                          dividends=[0.0, 0.0], vols=[0.45, 0.45],
                          corr=[[1.0, 0.9], [0.9, 1.0]])
        axes = build_grid(2, 512, 1.0, [50.0, 50.0]).axes
        assert_peak_close(discounted_payoff_transform(axes, spec, 1.0),
                          reference_transform(points(axes), spec, 1.0))

    def test_single_point_is_a_one_by_one_lattice(self, basket2_spec):
        axes = lattice([1.0, 1.3], [0.25, 0.4], [8, 8])
        full = discounted_payoff_transform(axes, basket2_spec, 0.5)
        point = discounted_payoff_transform(
            (axes[0].part(3, 4), axes[1].part(6, 7)), basket2_spec, 0.5)
        assert np.shape(point) == (1, 1)
        assert_peak_close(point[0], np.array([full[3, 6]]))

    def test_integrand_at_index(self, basket2_spec):
        grid = build_grid(2, 64, 1.0, [50.0, 50.0])
        at = (grid.axes[0].part(5, 6), grid.axes[1].part(11, 12))
        want = reference_transform(points(at), basket2_spec, 0.5).item()
        # the FFT input at index (5, 11): (-1)^(5 + 11) times the transform
        got = (-1.0) ** 16 * discounted_payoff_transform(
            at, basket2_spec, 0.5).item()
        assert abs(got - (-1.0) ** 16 * want) <= 1e-13 * abs(want)


class TestBandLimit:
    @settings(max_examples=80, deadline=None)
    @given(baskets(strip_lo=0.05, delta_hi=4.0))
    def test_bound_covers_the_log_magnitude(self, case):
        spec, tau, axes = case
        bound, _ = log_bound(axes, spec, tau)
        assert np.all(bound >= reference_log_magnitude(points(axes), spec, tau)
                      - LOG_ATOL)

    @settings(max_examples=80, deadline=None)
    @given(baskets(strip_lo=0.05, delta_hi=4.0))
    def test_dropped_points_are_below_tail(self, case):
        spec, tau, axes = case
        bound, log_peak = log_bound(axes, spec, tau)
        a = np.array([ax.a for ax in axes], dtype=complex)
        assert log_peak == pytest.approx(
            reference_log_magnitude(a, spec, tau), abs=LOG_ATOL)
        dropped = bound < log_peak - TAIL
        assert np.all(reference_log_magnitude(points(axes), spec, tau)[dropped]
                      <= log_peak - TAIL + LOG_ATOL)
        if all(ax.count > 1 for ax in axes):
            out = discounted_payoff_transform(axes, spec, tau)
            assert np.all(out[dropped] == 0.0)
            assert np.all(out[~dropped] != 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kept_points_equal_the_unbanded_rows(self, n):
        # one row at a time has one point on axis 0, so it is evaluated in
        # full, by the same operations in the same order
        spec = BasketSpec(n=n, strike=100.0, maturity=1.0, rate=0.05,
                          dividends=[0.02] * n, vols=[0.45] * n,
                          corr=np.full((n, n), 0.3) + 0.7 * np.eye(n))
        size = 64 if n == 2 else 16
        axes = lattice([1.0] * n, [64.0 / size] * n, [size] * n)
        out = discounted_payoff_transform(axes, spec, 1.0)
        rows = np.stack([discounted_payoff_transform(
            (axes[0].part(j, j + 1),) + axes[1:], spec, 1.0)[0]
            for j in range(size)])
        kept = out != 0.0
        assert 0 < kept.sum() < kept.size
        assert np.array_equal(out[kept], rows[kept])
        _, log_peak = log_bound(axes, spec, 1.0)
        assert np.all(np.abs(rows[~kept])
                      <= math.exp(log_peak - TAIL) * (1.0 + 1e-12))


class TestInputs:
    def test_rejects_one_axis_per_other_asset_count(self, basket2_spec):
        axes = lattice([1.0] * 3, [0.25] * 3, [8] * 3)
        for spec, given in ((basket2_spec, axes), (basket2_spec, axes[:1]),
                            (BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.2),
                             axes[:2])):
            with pytest.raises(ValueError, match="axes"):
                discounted_payoff_transform(given, spec, 0.5)

    def test_pole_error_off_strip(self, basket2_spec):
        axes = lattice([-0.5, 1.0], [0.25, 0.25], [8, 8])
        with pytest.raises(PoleError):
            discounted_payoff_transform(axes, basket2_spec, 0.5)


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

    def test_basket_surface_is_kept_points_table_and_two_axes(
            self, lgamma_points, basket2_spec):
        clear_boundary_cache()
        N = 2**9
        grid = build_grid(2, N, 1.0, [50.0, 50.0])
        price_surface(basket2_spec, grid, 0.5, EUROPEAN_PUT)
        # the half lattice shares one spacing, so log Gamma(sum w) comes
        # from a table over its 3N/2 index sums j_1 + j_2, next to the
        # bound's table and both axes; the edge row j_1 = 0 has N/2 - 1
        # points, two axes and a pointwise log Gamma(sum w)
        edge = N // 2 - 1
        assert sum(lgamma_points) == (3 * N // 2 + GAMMA_TABLE + 1 + N
                                      + (N // 2 + 1) + edge + 1 + edge)
        assert sum(lgamma_points) == 3073

    def test_index_sum_table_is_the_pointwise_value(self, basket2_spec):
        # at delta = 0.25 every b is exact, so sum w is the same float by
        # either route and the kept points are bit for bit the unbanded rows
        clear_boundary_cache()
        half, _ = build_grid(2, 2**9, 1.0, [50.0, 50.0]).lattice.parts
        out = discounted_payoff_transform(half, basket2_spec, 0.5)
        rows = np.concatenate([discounted_payoff_transform(
            (half[0].part(j, j + 1), half[1]), basket2_spec, 0.5)
            for j in range(half[0].count)])
        kept = out != 0.0
        assert np.array_equal(out[kept], rows[kept])

    def test_long_wide_basket_keeps_under_half(self):
        clear_boundary_cache()
        spec = BasketSpec(n=2, strike=100.0, maturity=1.0, rate=0.05,
                          dividends=[0.02, 0.03], vols=[0.4, 0.4],
                          corr=[[1.0, 0.5], [0.5, 1.0]])
        N = 2**9
        grid = build_grid(2, N, 1.0, [50.0, 50.0])
        half, _ = grid.lattice.parts
        kept = np.count_nonzero(discounted_payoff_transform(half, spec, 1.0))
        assert 0 < kept < N * (N // 2 + 1) / 2

    def test_single_asset_american_quote_has_none(self, lgamma_points):
        price_put(100.0, 100.0, 0.05, 0.02, 0.2, 0.5, style=AMERICAN_PUT)
        assert lgamma_points == []
