"""Streamed premium transform against the per-node sum it replaces.

The reference sums ``early_exercise_mellin`` terms node by node over the
nodes t_l > 0 on the caller's contour, one complex exponential per (node,
frequency), over the whole contour.  The streamed, band-limited pass must
agree within 1e-13 of the reference's peak magnitude.  The pass runs at
strike 1, on the market's strike-1 boundary, so most tests compare it with
the reference at strike 1; the premium style of ``put_transform``, times
K^(w+1), is compared with the reference at strike K.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mellin_pricer import greeks as gk
from mellin_pricer.boundary import (TIME_WEIGHT_MODES, BoundaryCurve,
                                    boundary_curve, premium_time_grid)
from mellin_pricer.fft_pricer import (EARLY_EXERCISE_PREMIUM, Axis, _fold,
                                      build_grid, premium_sums,
                                      premium_transform, put_transform)
from mellin_pricer.mellin_core import (BasketSpec, CovStruct,
                                       char_exponent_wi, early_exercise_mellin,
                                       exercise_indicator_mellin)
from mellin_pricer.series_pricer import DwConfig

PEAK_RTOL = 1e-13


def reference_premium(w, spec, boundary, term=None):
    """sum_l c_l term(w, s*_l, t_l) exp(-t_l Psi(wi) - r t_l), node by node
    over the boundary's time grid, nodes t_l > 0 only: node 0 (t = 0) is a
    step in S space, out of the transform."""
    if term is None:
        term = lambda ws, s_star, t_l: early_exercise_mellin(ws, s_star, spec)
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    acc = np.zeros(w.shape[:-1], dtype=complex)
    times = boundary.grid
    for l, (t_l, c_l) in enumerate(zip(times.t, times.c)):
        s_star = boundary.s_star[l]
        if s_star <= 0.0 or t_l == 0.0:
            continue
        acc += (c_l * term(w, s_star, t_l)
                * np.exp(-t_l * psi - spec.rate * t_l))
    return acc


def unit_market(spec, curve):
    """The strike-1 spec and boundary the premium pass evaluates: the
    curve's strike-1 prices u on its grid."""
    return (dataclasses.replace(spec, strike=1.0),
            dataclasses.replace(curve, strike=1.0))


def assert_peak_close(got, want, phase=0.0):
    """|got - want| <= 1e-13 of the peak, plus what rounding the largest
    phase b ln s* costs either sum (a few ulps of ``phase``) on integrands
    that do not decay along the contour."""
    peak = np.abs(want).max()
    tol = PEAK_RTOL + 8 * np.finfo(float).eps * phase
    assert np.abs(got - want).max() <= tol * peak


def max_phase(w, curve):
    """Largest |b ln s*| over the contour and the boundary."""
    s = curve.s_star[curve.s_star > 0]
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
    return (Axis(strip_a, delta, -size // 2, size),)


def half_axis_contour(n_terms, strip_a, log_range):
    return DwConfig(n_terms=n_terms, log_range=log_range,
                    strip_a=strip_a).axes


def points(axes):
    """The contour's points with the asset index on the last axis."""
    return axes[0].points[:, None]


contours = st.one_of(
    st.builds(lattice_contour, st.sampled_from([4, 8, 64, 256]),
              st.floats(0.5, 2.0), st.floats(0.05, 1.0)),
    st.builds(half_axis_contour, st.integers(1, 200), st.floats(0.5, 2.0),
              st.floats(2.0, 20.0)),
    st.builds(lambda a, b: (Axis(a, b, 1, 1),), st.floats(0.5, 2.0),
              st.floats(-40.0, 40.0)),
    # any other segment, ascending or descending, through b = 0 or not
    st.builds(lambda a, first, h, n: (Axis(a, h, first, n),),
              st.floats(0.5, 2.0), st.integers(-80, 40),
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
    curve = boundary_curve(spec, premium_time_grid(m, mk["tau"], time_mode))
    got = premium_transform(w, spec, curve)
    unit_spec, unit = unit_market(spec, curve)
    want = reference_premium(points(w), unit_spec, unit)
    assert got.shape == (w[0].count,)
    if mk["rate"] == 0.0:
        # empty exercise region at every node
        assert not np.any(got)
    else:
        assert_peak_close(got, want)


@settings(max_examples=30, deadline=None)
@given(mk=markets, m=st.integers(2, 60), w=contours,
       skip=st.lists(st.booleans(), min_size=60, max_size=60))
# starts one step past b = 0: evaluated as given, not folded onto b >= 0
@example(mk={"strike": 50.0, "rate": 0.0, "dividend": 0.0, "vol": 0.5,
             "tau": 1.0},
         m=2, w=(Axis(1.0, 1.0, 1, 2),), skip=[False] * 60)
def test_skipped_nodes_still_advance_the_running_product(mk, m, w, skip):
    # a curve whose exercise region is empty at arbitrary nodes: those
    # nodes add nothing, but later nodes keep their own exp(-t_l Psi)
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    base = boundary_curve(spec, premium_time_grid(m, mk["tau"]))
    curve = BoundaryCurve(base.grid, np.where(skip[:m], 0.0, base.u),
                          base.strike)
    got = premium_transform(w, spec, curve)
    unit_spec, unit = unit_market(spec, curve)
    want = reference_premium(points(w), unit_spec, unit)
    if all(skip[:m]):
        assert not np.any(got)
    else:
        assert_peak_close(got, want)


@settings(max_examples=30, deadline=None)
@given(mk=markets, m=m_steps, w=contours)
def test_time_moments_match_per_node_sums(mk, m, w):
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    curve = boundary_curve(spec, premium_time_grid(m, mk["tau"]))
    got, _, t_premium = premium_sums(w, spec, curve)
    assert got.shape == (2, w[0].count)
    w = points(w)
    unit_spec, unit = unit_market(spec, curve)
    phase = max_phase(w, unit)
    for e in range(2):
        term = lambda ws, s_star, t_l: (s_star**e
                                        * np.exp(ws[..., 0] * math.log(s_star)))
        assert_peak_close(got[e], reference_premium(w, unit_spec, unit, term),
                          phase)
    # the t-weighted sum an American greek reads: t_l f(w, s*_l) per node
    term = lambda ws, s_star, t_l: t_l * early_exercise_mellin(ws, s_star,
                                                               unit_spec)
    assert_peak_close(t_premium, reference_premium(w, unit_spec, unit, term),
                      phase)


def test_full_lattice_conjugate_fill_and_corner():
    # the unpaired corner -N delta/2 has no mirror on the lattice and is
    # evaluated as its own frequency on the half axis
    spec = BasketSpec.single(100.0, 1.0, 0.06, 0.03, 0.25)
    curve = boundary_curve(spec, premium_time_grid(250, 1.0))
    axes = build_grid(1, 2**12, 1.0, [100.0], m_steps=250).axes
    got = premium_transform(axes, spec, curve)
    unit_spec, unit = unit_market(spec, curve)
    assert_peak_close(got, reference_premium(points(axes), unit_spec, unit))
    # b_j and b_(N-j) are mirror images for 0 < j < N
    np.testing.assert_array_equal(got[1:], got[:0:-1].conj())


@pytest.mark.parametrize("vol", [0.15, 0.45])
@pytest.mark.parametrize("tau", [0.25, 1.0])
def test_band_limited_pass_on_the_pricing_lattice(vol, tau):
    # the benchmark's lattice, where most nodes cut most of the half axis;
    # at strike K, so the scaling by K^(w+1) is checked as well
    spec = BasketSpec.single(100.0, tau, 0.06, 0.02, vol)
    curve = boundary_curve(spec, premium_time_grid(250, tau))
    axes = build_grid(1, 2**14, 1.0, [100.0], m_steps=250).axes
    got = -put_transform(axes, spec, tau, EARLY_EXERCISE_PREMIUM, curve)
    assert_peak_close(100.0 ** (1.0 + axes[0].points) * got,
                      reference_premium(points(axes), spec, curve))


def test_pricer_lattice_and_series_axis_fold_onto_b_ge_0():
    for size in (64, 2**10, 2**14):
        grid = build_grid(1, size, 1.0, [87.0], m_steps=2)
        half, index, conj = _fold(grid.axes[0])
        assert half == Axis(1.0, grid.deltas[0], 0, size // 2 + 1)
        assert index[0] == size // 2 and index[size // 2] == 0
        assert conj[: size // 2].all() and not conj[size // 2:].any()
    axis, = half_axis_contour(250, 1.0, 10.0)
    half, index, conj = _fold(axis)
    assert half == axis and not conj.any()


def test_descending_contour_is_reversed_ascending():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.02, 0.3)
    curve = boundary_curve(spec, premium_time_grid(9, 0.5))
    # b_k = (-31 + k)(-0.3) = (31 - k) 0.3 runs the lattice backwards
    up = lattice_contour(64, 1.0, 0.3)
    down = (Axis(1.0, -0.3, -31, 64),)
    prem = lambda w: put_transform(w, spec, 0.5, EARLY_EXERCISE_PREMIUM, curve)
    np.testing.assert_allclose(prem(down), prem(up)[::-1],
                               rtol=0, atol=1e-14 * 100.0)


def reference_greek_premium(kind, w, spot, spec, curve, mode):
    """Premium term of an American greek with the multiplier applied per node."""
    def term(ws, s_star, t_l):
        _, f_p = gk.greek_multiplier(kind, ws, spot, curve.grid.tau, t_l,
                                     spec, mode)
        out = f_p * early_exercise_mellin(ws, s_star, spec)
        if mode == "kernel":
            if kind.name == "rho":
                out = out + spec.strike * exercise_indicator_mellin(ws, s_star)
            elif kind.name == "xi":
                out = out - (exercise_indicator_mellin(ws, s_star)
                             * ws[..., 0] * s_star / (ws[..., 0] + 1.0))
        return out

    return reference_premium(w, spec, curve, term)


@settings(max_examples=20, deadline=None)
@given(mk=markets, m=st.sampled_from([1, 2, 7, 30]),
       spot=st.floats(60.0, 160.0), mode=st.sampled_from(gk.MULTIPLIER_MODES))
def test_greek_premium_terms_match_per_node_multipliers(mk, m, spot, mode):
    spec = make_spec({**mk, "rate": max(mk["rate"], 0.01)})
    curve = boundary_curve(spec, premium_time_grid(m, mk["tau"]))
    axes = build_grid(1, 128, 1.0, [spot], m_steps=2, delta_target=0.5).axes
    w = points(axes)
    unit_spec, unit = unit_market(spec, curve)
    for kind in (gk.delta1(), gk.gamma(), gk.theta(), gk.rho(), gk.nu(),
                 gk.xi()):
        got = gk._premium_sensitivity(kind, axes, [spot], spec, curve, mode)
        want = reference_greek_premium(kind, w, [spot], unit_spec, unit,
                                       mode)
        assert_peak_close(got, want, max_phase(w, unit))
