"""Memoised premium moments: exact reuse, read-only entries, bounded cache.

``fft_pricer.premium_moments`` keeps its recent results in
``boundary._moment_cache``, keyed on the exact inputs it reads.  A hit must
be the array a recompute would give, bit for bit, so every greek served
from the cache equals the same greek computed on an empty cache.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import boundary
from mellin_pricer import greeks as gk
from mellin_pricer import table1
from mellin_pricer.boundary import (BoundaryCurve, boundary_curve,
                                    clear_boundary_cache)
from mellin_pricer.fft_pricer import (AMERICAN_PUT, _lattice_w, build_grid,
                                      premium_moments)
from mellin_pricer.mellin_core import BasketSpec

KINDS = (gk.delta1(), gk.gamma(), gk.theta(), gk.rho(), gk.nu(), gk.xi())
MODES = ("kernel", "paper")


def counts():
    cache = boundary._moment_cache
    return cache.misses, cache.hits


def half_contour(spot=100.0, size=2**10):
    """The half-lattice contour a greek at ``spot`` evaluates."""
    return _lattice_w(build_grid(1, size, 1.0, [spot]),
                      [np.arange(size // 2 + 1)])


def test_six_greeks_of_one_market_share_one_pass():
    # the amer_book greeks: six kinds at spot 100 on one default grid
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)
    for kind in KINDS:
        gk.greek(kind, [100.0], 0.5, spec, style=AMERICAN_PUT)
    assert counts() == (1, 5)
    assert len(boundary._moment_cache) == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
@settings(max_examples=5, deadline=None)
@given(r=st.floats(0.01, 0.08), q=st.floats(0.0, 0.08),
       vol=st.floats(0.15, 0.45), tau=st.sampled_from((0.25, 0.5, 1.0)),
       warm_kind=st.sampled_from(KINDS), warm_mode=st.sampled_from(MODES))
def test_warm_greek_equals_cold(kind, mode, r, q, vol, tau, warm_kind,
                                warm_mode):
    # amer_book's market range; the cache is filled by a possibly
    # different greek in a possibly different mode
    spec = BasketSpec.single(100.0, tau, r, q, vol)
    grid = dict(style=AMERICAN_PUT, mode=mode, size=2**12, m_steps=100)
    clear_boundary_cache()
    cold = gk.greek(kind, [100.0], tau, spec, **grid)
    clear_boundary_cache()
    gk.greek(warm_kind, [100.0], tau, spec, **{**grid, "mode": warm_mode})
    warm = gk.greek(kind, [100.0], tau, spec, **grid)
    assert counts() == (1, 1)
    assert warm == cold


def test_cached_moments_are_read_only_and_shared():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, 50, 0.5)
    w = half_contour()
    clear_boundary_cache()
    got = premium_moments(w, spec, 0.5, curve, t_powers=(0, 1))
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 0.0
    assert premium_moments(w, spec, 0.5, curve, t_powers=(0, 1)) is got
    assert counts() == (1, 1)


def test_curve_with_same_spec_hash_but_other_values_misses():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, 50, 0.5)
    other = BoundaryCurve(times=curve.times, values=0.99 * curve.values,
                          spec_hash=curve.spec_hash)
    w = half_contour()
    clear_boundary_cache()
    first = premium_moments(w, spec, 0.5, curve)
    second = premium_moments(w, spec, 0.5, other)
    assert counts() == (2, 0)
    assert not np.array_equal(first, second)
    assert premium_moments(w, spec, 0.5, other) is second


def test_contour_that_nearly_meets_zero_misses_the_folded_entry():
    # same first frequency, spacing and count; one contour passes through
    # b = 0 and is folded, the other misses it by 1e-10 spacings and is not
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, 50, 0.5)
    db = 0.25
    b = (np.arange(9) - 4) * db
    near = b.copy()
    near[4] = 1e-10 * db
    clear_boundary_cache()
    folded = premium_moments((1.0 + 1j * b)[:, None], spec, 0.5, curve)
    got = premium_moments((1.0 + 1j * near)[:, None], spec, 0.5, curve)
    assert counts() == (2, 0)
    clear_boundary_cache()
    assert np.array_equal(
        got, premium_moments((1.0 + 1j * near)[:, None], spec, 0.5, curve))
    assert np.array_equal(
        folded, premium_moments((1.0 + 1j * b)[:, None], spec, 0.5, curve))


def test_cache_stays_bounded_and_clears():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, 50, 0.5)
    clear_boundary_cache()
    spots = [80.0 + 5.0 * k for k in range(boundary.MOMENT_CACHE_SIZE + 3)]
    first = premium_moments(half_contour(spots[0]), spec, 0.5, curve)
    for spot in spots[1:]:
        premium_moments(half_contour(spot), spec, 0.5, curve)
        assert len(boundary._moment_cache) <= boundary.MOMENT_CACHE_SIZE
    assert len(boundary._moment_cache) == boundary.MOMENT_CACHE_SIZE
    assert counts() == (len(spots), 0)
    # the least recently used contour was evicted and is computed anew
    again = premium_moments(half_contour(spots[0]), spec, 0.5, curve)
    assert again is not first
    assert np.array_equal(again, first)
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)


def test_threaded_table_rows_equal_serial():
    # the boundary and moment caches are shared by run_table1's workers
    clear_boundary_cache()
    serial, serial_dev = table1.run_table1(groupings=[1], binomial_steps=200,
                                           threads=1)
    clear_boundary_cache()
    threaded, threaded_dev = table1.run_table1(groupings=[1],
                                               binomial_steps=200, threads=2)
    assert threaded == serial
    assert threaded_dev == serial_dev


def test_concurrent_lookups_count_every_call_and_return_exact_entries():
    # more workers than keys and than cores, with frequent thread switches:
    # a lost counter update or a mixed-up entry breaks the invariants below
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, 50, 0.5)
    contours = [(1.0 + 1j * (np.arange(9) - 4) * db)[:, None]
                for db in (0.25, 0.5, 0.75)]
    clear_boundary_cache()
    want = [premium_moments(w, spec, 0.5, curve) for w in contours]
    clear_boundary_cache()
    calls = 8 * 60

    def work(k):
        got = premium_moments(contours[k % 3], spec, 0.5, curve)
        assert len(boundary._moment_cache) <= boundary.MOMENT_CACHE_SIZE
        return np.array_equal(got, want[k % 3])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            futures = [ex.submit(work, k) for k in range(calls)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    misses, hits = counts()
    assert misses + hits == calls
    assert misses >= 3
