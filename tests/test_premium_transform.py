"""Streamed premium transform against the per-node sum it replaces.

The reference sums ``early_exercise_mellin`` terms node by node on the
caller's contour, one complex exponential per (node, frequency), over the
whole contour.  The streamed, band-limited pass must agree within 1e-13
of the reference's peak magnitude.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mellin_pricer import greeks as gk
from mellin_pricer.boundary import BoundaryCurve, boundary_curve
from mellin_pricer.fft_pricer import (TIME_WEIGHT_MODES, _half_axis,
                                      _lattice_w, build_grid, premium_moments,
                                      premium_time_grid, premium_transform)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, early_exercise_mellin,
                                       exercise_indicator_mellin)
from mellin_pricer.series_pricer import DwConfig

PEAK_RTOL = 1e-13


def reference_premium(w, spec, tau, boundary, time_mode, term=None):
    """sum_l c_l term(w, s*_l, t_l) exp(-t_l Psi(wi) - r t_l), node by node."""
    if term is None:
        term = lambda ws, s_star, t_l: early_exercise_mellin(ws, s_star, spec)
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    t_nodes, t_wgts = premium_time_grid(boundary.m, tau, time_mode)
    acc = np.zeros(w.shape[:-1], dtype=complex)
    for t_l, c_l in zip(t_nodes, t_wgts):
        s_star = boundary.at_tte(tau - t_l)
        if s_star <= 0.0:
            continue
        acc += (c_l * term(w, s_star, t_l)
                * np.exp(-t_l * psi - spec.rate * t_l))
    return acc


def assert_peak_close(got, want, phase=0.0):
    """|got - want| <= 1e-13 of the peak, plus what rounding the largest
    phase b ln s* costs either sum (a few ulps of ``phase``) on integrands
    that do not decay along the contour."""
    peak = np.abs(want).max()
    tol = PEAK_RTOL + 8 * np.finfo(float).eps * phase
    assert np.abs(got - want).max() <= tol * peak


def max_phase(w, curve):
    """Largest |b ln s*| over the contour and the boundary."""
    s = curve.values[curve.values > 0]
    return float(np.abs(w.imag).max() * np.abs(np.log(s)).max(initial=0.0))


markets = st.fixed_dictionaries({
    "strike": st.floats(50.0, 150.0),
    "rate": st.one_of(st.just(0.0), st.floats(0.005, 0.12)),
    "dividend": st.one_of(st.just(0.0), st.floats(0.005, 0.12)),
    "vol": st.floats(0.1, 0.6),
    "tau": st.floats(0.05, 2.0),
})
m_steps = st.one_of(st.sampled_from([1, 2, 250]),
                    st.integers(1, 40).map(lambda k: 2 * k + 1))


def lattice_contour(size, strip_a, delta):
    """a + i (j - N/2) delta, j = 0..N-1: the pricer's frequency lattice."""
    return (strip_a + 1j * (np.arange(size) - size / 2) * delta)[:, None]


def half_axis_contour(n_terms, strip_a, log_range):
    cfg = DwConfig(n_terms=n_terms, log_range=log_range, strip_a=strip_a)
    return cfg.contour_points()[:, None]


contours = st.one_of(
    st.builds(lattice_contour, st.sampled_from([4, 8, 64, 256]),
              st.floats(0.5, 2.0), st.floats(0.05, 1.0)),
    st.builds(half_axis_contour, st.integers(1, 200), st.floats(0.5, 2.0),
              st.floats(2.0, 20.0)),
    st.builds(lambda a, b: np.array([[a + 1j * b]]), st.floats(0.5, 2.0),
              st.floats(-40.0, 40.0)),
    # any other segment, ascending or descending, through b = 0 or not
    st.builds(lambda a, b0, db, n: (a + 1j * (b0 + db * np.arange(n)))[:, None],
              st.floats(0.5, 2.0), st.floats(-40.0, 40.0),
              st.floats(0.01, 1.0) | st.floats(-1.0, -0.01),
              st.integers(2, 64)),
)


def make_spec(mk):
    return BasketSpec.single(mk["strike"], mk["tau"], mk["rate"],
                             mk["dividend"], mk["vol"])


@settings(max_examples=60, deadline=None)
@given(mk=markets, m=m_steps, w=contours,
       time_mode=st.sampled_from(TIME_WEIGHT_MODES))
def test_matches_per_node_sum(mk, m, w, time_mode):
    spec = make_spec(mk)
    curve = boundary_curve(spec, m, mk["tau"])
    got = premium_transform(w, spec, mk["tau"], curve, time_mode)
    want = reference_premium(w, spec, mk["tau"], curve, time_mode)
    assert got.shape == w.shape[:-1]
    if mk["rate"] == 0.0:
        # empty exercise region at every node
        assert not np.any(got)
    else:
        assert_peak_close(got, want)


@settings(max_examples=30, deadline=None)
@given(mk=markets, m=st.integers(2, 60), w=contours,
       skip=st.lists(st.booleans(), min_size=60, max_size=60))
# misses b = 0 by 1e-10 spacings: evaluated as given, not folded onto b >= 0
@example(mk={"strike": 50.0, "rate": 0.0, "dividend": 0.0, "vol": 0.5,
             "tau": 1.0},
         m=2, w=np.array([[1.0 + 1e-10j], [1.0 + 1.0j]]), skip=[False] * 60)
def test_skipped_nodes_still_advance_the_running_product(mk, m, w, skip):
    # a curve whose exercise region is empty at arbitrary nodes: those
    # nodes add nothing, but later nodes keep their own exp(-t_l Psi)
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    base = boundary_curve(spec, m, mk["tau"])
    values = np.where(skip[:m], 0.0, base.values)
    curve = BoundaryCurve(times=base.times, values=values, spec_hash=())
    got = premium_transform(w, spec, mk["tau"], curve)
    want = reference_premium(w, spec, mk["tau"], curve, "simpson")
    if all(skip[:m]):
        assert not np.any(got)
    else:
        assert_peak_close(got, want)


@settings(max_examples=30, deadline=None)
@given(mk=markets, m=m_steps, w=contours)
def test_time_moments_match_per_node_sums(mk, m, w):
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    curve = boundary_curve(spec, m, mk["tau"])
    got = premium_moments(w, spec, mk["tau"], curve, t_powers=(0, 1, 2))
    assert got.shape == (3, 2) + w.shape[:-1]
    for p in range(3):
        for e in range(2):
            term = lambda ws, s_star, t_l: (t_l**p * s_star**e
                                            * np.exp(ws[..., 0] * math.log(s_star)))
            want = reference_premium(w, spec, mk["tau"], curve, "simpson",
                                     term)
            assert_peak_close(got[p, e], want, max_phase(w, curve))


def test_full_lattice_conjugate_fill_and_corner():
    # the unpaired corner -N delta/2 has no mirror on the lattice and is
    # evaluated as its own frequency on the half axis
    spec = BasketSpec.single(100.0, 1.0, 0.06, 0.03, 0.25)
    curve = boundary_curve(spec, 250, 1.0)
    w = _lattice_w(build_grid(1, 2**12, 1.0, [100.0], m_steps=250))
    got = premium_transform(w, spec, 1.0, curve)
    assert_peak_close(got, reference_premium(w, spec, 1.0, curve, "simpson"))
    # b_j and b_(N-j) are mirror images for 0 < j < N
    np.testing.assert_array_equal(got[1:], got[:0:-1].conj())


@pytest.mark.parametrize("vol", [0.15, 0.45])
@pytest.mark.parametrize("tau", [0.25, 1.0])
def test_band_limited_pass_on_the_pricing_lattice(vol, tau):
    # the benchmark's lattice, where most nodes cut most of the half axis
    spec = BasketSpec.single(100.0, tau, 0.06, 0.02, vol)
    curve = boundary_curve(spec, 250, tau)
    w = _lattice_w(build_grid(1, 2**14, 1.0, [100.0], m_steps=250))
    got = premium_transform(w, spec, tau, curve)
    assert_peak_close(got, reference_premium(w, spec, tau, curve, "simpson"))


def test_pricer_lattice_and_series_axis_fold_onto_b_ge_0():
    for size in (64, 2**10, 2**14):
        grid = build_grid(1, size, 1.0, [87.0], m_steps=2)
        b = _lattice_w(grid)[:, 0].imag
        c, h, half, index, conj = _half_axis(b, grid.deltas[0])
        assert (c, half) == (0.0, size // 2 + 1)
        assert index[0] == size // 2 and conj[: size // 2].all()
    b = half_axis_contour(250, 1.0, 10.0)[:, 0].imag
    c, h, half, index, conj = _half_axis(b, b[1])
    assert (c, half) == (0.0, 251) and not conj.any()


def test_descending_contour_is_reversed_ascending():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.3)
    curve = boundary_curve(spec, 9, 0.5)
    w = lattice_contour(64, 1.0, 0.3)
    np.testing.assert_allclose(premium_transform(w[::-1], spec, 0.5, curve),
                               premium_transform(w, spec, 0.5, curve)[::-1],
                               rtol=0, atol=1e-14 * 100.0)


@pytest.mark.parametrize("w", [
    np.array([[1.0], [1.0 + 1j], [1.0 + 3j]]),            # uneven spacing
    np.array([[1.0], [1.5 + 1j], [1.0 + 2j]]),            # not vertical
    np.array([[1.0 + 1j], [1.0 + 1j]]),                   # zero spacing
])
def test_rejects_contour_that_is_not_a_uniform_vertical_segment(w):
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.3)
    curve = boundary_curve(spec, 5, 0.5)
    with pytest.raises(ValueError):
        premium_transform(w, spec, 0.5, curve)


def reference_greek_premium(kind, w, spot, tau, spec, curve, mode):
    """Premium term of an American greek with the multiplier applied per node."""
    def term(ws, s_star, t_l):
        _, f_p = gk.greek_multiplier(kind, ws, spot, tau, t_l, spec, mode)
        out = f_p * early_exercise_mellin(ws, s_star, spec)
        if mode == "kernel":
            if kind.name == "rho":
                out = out + spec.strike * exercise_indicator_mellin(ws, s_star)
            elif kind.name == "xi":
                out = out - (exercise_indicator_mellin(ws, s_star)
                             * ws[..., 0] * s_star / (ws[..., 0] + 1.0))
        return out

    return reference_premium(w, spec, tau, curve, "simpson", term)


@settings(max_examples=20, deadline=None)
@given(mk=markets, m=st.sampled_from([1, 2, 7, 30]),
       spot=st.floats(60.0, 160.0), mode=st.sampled_from(gk.MULTIPLIER_MODES))
def test_greek_premium_terms_match_per_node_multipliers(mk, m, spot, mode):
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    curve = boundary_curve(spec, m, mk["tau"])
    w = _lattice_w(build_grid(1, 128, 1.0, [spot], m_steps=2,
                              delta_target=0.5))
    for kind in (gk.delta1(), gk.gamma(), gk.theta(), gk.rho(), gk.nu(),
                 gk.xi()):
        got = gk._premium_sensitivity(kind, w, [spot], mk["tau"], spec, curve,
                                      mode)
        want = reference_greek_premium(kind, w, [spot], mk["tau"], spec,
                                       curve, mode)
        assert_peak_close(got, want, max_phase(w, curve))
