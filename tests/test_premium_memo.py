"""Memoised premium moments: exact reuse, read-only entries, bounded cache.

``fft_pricer.premium_sums`` keeps the premium moments, the premium
transform, its t-weighted sum and the American transform in
``boundary._moment_cache``, one entry per market, strike-1 curve and
contour, keyed on the exact inputs they read, which are those of the
market's strike-1 boundary, not the strike.  The strike-1 payoff
transform has an entry of its own there, per market and contour.  A hit
must be the array a recompute would give, bit for bit, so every quote,
greek or call served from the cache equals the same one computed on an
empty cache.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import boundary, fft_pricer
from mellin_pricer import greeks as gk
from mellin_pricer import table1
from mellin_pricer.boundary import (BoundaryCurve, boundary_curve,
                                    clear_boundary_cache, premium_time_grid)
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, Axis,
                                      build_grid,
                                      discounted_payoff_transform,
                                      premium_moments, price_american_call,
                                      price_put, unit_payoff_transform)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.series_pricer import (DwConfig, dw_price,
                                         dw_price_american_call)

KINDS = (gk.delta1(), gk.gamma(), gk.theta(), gk.rho(), gk.nu(), gk.xi())
MODES = ("kernel", "paper")
#: the time grid of the M = 50, tau = 0.5 curves below
T50 = premium_time_grid(50, 0.5)


def counts():
    cache = boundary._moment_cache
    return cache.misses, cache.hits


def counted_passes():
    """Count the premium passes run in a ``with`` block: ``.call_count``."""
    return mock.patch.object(fft_pricer, "_moment_pass",
                             wraps=fft_pricer._moment_pass)


def half_contour(size=2**10):
    """The half-lattice contour a greek evaluates, at any spot."""
    axis, = build_grid(1, size, 1.0, [100.0]).axes
    return (axis.part(0, size // 2 + 1),)


def test_six_greeks_of_one_market_share_one_pass():
    # the amer_book greeks: six kinds at spot 100 on one default grid
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)
    with counted_passes() as passes:
        for kind in KINDS:
            gk.greek(kind, [100.0], 0.5, spec, style=AMERICAN_PUT)
    assert passes.call_count == 1
    # the market's payoff and premium entries
    assert len(boundary._moment_cache) == 2


def test_five_calls_of_one_market_share_one_pass():
    # the amer_book calls: put-call symmetry makes them five put strikes
    # on one lattice, which lands on the call strike
    clear_boundary_cache()
    with counted_passes() as passes:
        for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
            price_american_call(spot, 100.0, 0.045, 0.04, 0.25, 0.5)
    assert passes.call_count == 1
    assert len(boundary._moment_cache) == 2


def test_five_puts_of_one_market_share_one_pass():
    # the amer_book puts: the lattice spacing does not depend on the spot,
    # so the five spots read one contour
    clear_boundary_cache()
    with counted_passes() as passes:
        for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
            price_put(spot, 100.0, 0.045, 0.04, 0.25, 0.5)
    assert passes.call_count == 1
    assert len(boundary._moment_cache) == 2


def test_puts_at_three_strikes_and_five_spots_share_one_pass_and_payoff():
    # the strike is a shift by ln K: every put of a market, at any spot
    # and strike, reads one strike-1 premium and payoff transform
    clear_boundary_cache()
    with counted_passes() as passes:
        for strike in (80.0, 100.0, 125.0):
            for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
                price_put(spot, strike, 0.045, 0.04, 0.25, 0.5)
    assert passes.call_count == 1
    # each put looks up the premium entry twice, for the premium and the
    # American transform; the first also misses the payoff: one miss each
    assert counts() == (2, 29)
    assert len(boundary._moment_cache) == 2


def test_one_book_of_a_market_fits_the_cache():
    # the amer_book book: five puts, five calls (a second, put-call
    # symmetric market) and six greeks; the greeks find the payoff and
    # premium entries the puts made, t-weighted moments included
    spec = BasketSpec.single(100.0, 0.5, 0.045, 0.04, 0.25)
    clear_boundary_cache()
    with counted_passes() as passes:
        for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
            price_put(spot, 100.0, 0.045, 0.04, 0.25, 0.5)
        for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
            price_american_call(spot, 100.0, 0.045, 0.04, 0.25, 0.5)
        for kind in KINDS:
            gk.greek(kind, [100.0], 0.5, spec, style=AMERICAN_PUT)
    assert passes.call_count == 2
    # a payoff and a premium entry per market, each missed once
    assert counts()[0] == 4
    assert len(boundary._moment_cache) == 4


@settings(max_examples=5, deadline=None)
@given(r=st.floats(0.01, 0.08), q=st.floats(0.0, 0.08),
       vol=st.floats(0.15, 0.45), tau=st.sampled_from((0.25, 0.5, 1.0)),
       spot=st.sampled_from((80.0, 90.0, 110.0, 120.0)),
       strike=st.sampled_from((70.0, 125.0)),
       style=st.sampled_from((AMERICAN_PUT, EUROPEAN_PUT)))
def test_warm_put_at_another_strike_equals_cold(r, q, vol, tau, spot, strike,
                                                style):
    # the transforms are filled by the market's put at strike 100
    cfg = DwConfig(n_terms=200, m_steps=100)
    clear_boundary_cache()
    cold = price_put(spot, strike, r, q, vol, tau, style=style)[0]
    cold_dw = dw_price(spot, tau, BasketSpec.single(strike, tau, r, q, vol),
                       cfg, style)
    clear_boundary_cache()
    price_put(100.0, 100.0, r, q, vol, tau, style=style)
    dw_price(100.0, tau, BasketSpec.single(100.0, tau, r, q, vol), cfg,
             style)
    misses = counts()[0]
    with counted_passes() as passes:
        warm = price_put(spot, strike, r, q, vol, tau, style=style)[0]
        warm_dw = dw_price(spot, tau,
                           BasketSpec.single(strike, tau, r, q, vol), cfg,
                           style)
    # every lookup of the warm quotes hits
    assert passes.call_count == 0
    assert counts()[0] == misses
    assert warm == cold
    assert warm_dw == cold_dw


def test_cached_payoff_transforms_are_read_only_and_shared():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    w = half_contour()
    clear_boundary_cache()
    got = unit_payoff_transform(w, spec, 0.5)
    assert not got.flags.writeable
    assert unit_payoff_transform(w, BasketSpec.single(
        80.0, 0.5, 0.05, 0.03, 0.25), 0.5) is got
    assert counts() == (1, 1)


def test_each_table_grouping_makes_one_fft_and_one_series_pass():
    clear_boundary_cache()
    with counted_passes() as passes:
        table1.run_table1(binomial_steps=10)
    # three groupings, each one FFT pass and one DW pass for its five calls
    assert passes.call_count == 6


@settings(max_examples=5, deadline=None)
@given(r=st.floats(0.01, 0.08), q=st.just(0.0) | st.floats(0.005, 0.08),
       vol=st.floats(0.15, 0.45), tau=st.sampled_from((0.25, 0.5, 1.0)),
       spot=st.sampled_from((80.0, 90.0, 110.0, 120.0)))
def test_warm_call_equals_cold(r, q, vol, tau, spot):
    # amer_book's market range on its grid; the pass is filled by the
    # market's call at another spot, i.e. by the put at another strike
    clear_boundary_cache()
    cold = price_american_call(spot, 100.0, r, q, vol, tau)
    cold_dw = dw_price_american_call(spot, 100.0, r, q, vol, tau)
    clear_boundary_cache()
    price_american_call(100.0, 100.0, r, q, vol, tau)
    dw_price_american_call(100.0, 100.0, r, q, vol, tau)
    misses = counts()[0]
    with counted_passes() as passes:
        warm = price_american_call(spot, 100.0, r, q, vol, tau)
        warm_dw = dw_price_american_call(spot, 100.0, r, q, vol, tau)
    assert passes.call_count == 0
    assert counts()[0] == misses
    assert warm == cold
    assert warm_dw == cold_dw


def test_curve_made_by_hand_shares_the_pass_of_its_market():
    # a hand-made copy of a solved curve reads the same strike-1 bytes
    spec = BasketSpec.single(64.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    copy = BoundaryCurve(premium_time_grid(50, 0.5), curve.u.copy(),
                         curve.strike)
    w = half_contour()
    clear_boundary_cache()
    got = premium_moments(w, spec, curve)
    assert premium_moments(w, spec, copy) is got
    assert counts() == (1, 1)


def test_curve_of_another_strike_shares_the_pass_of_its_market():
    # every strike of a market holds the same strike-1 prices, so a curve
    # made for another strike reads the pass of this one
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    other = boundary_curve(BasketSpec.single(80.0, 0.5, 0.05, 0.03, 0.25),
                           T50)
    w = half_contour()
    clear_boundary_cache()
    got = premium_moments(w, spec, other)
    assert premium_moments(w, spec, boundary_curve(spec, T50)) is got
    assert counts() == (1, 1)


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
    with counted_passes() as passes:
        warm = gk.greek(kind, [100.0], tau, spec, **grid)
    assert passes.call_count == 0
    assert counts() == (2, 2)
    assert warm == cold


def test_cached_moments_are_read_only_and_shared():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    w = half_contour()
    clear_boundary_cache()
    got = premium_moments(w, spec, curve)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0
    assert premium_moments(w, spec, curve) is got
    assert counts() == (1, 1)


def test_curve_on_the_same_grid_but_with_other_values_misses():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    other = BoundaryCurve(curve.grid, 0.99 * curve.u, curve.strike)
    w = half_contour()
    clear_boundary_cache()
    first = premium_moments(w, spec, curve)
    second = premium_moments(w, spec, other)
    assert counts() == (2, 0)
    assert not np.array_equal(first, second)
    assert premium_moments(w, spec, other) is second


def test_time_rules_never_share_an_entry():
    # the key holds the grid's nodes and weights, not a rule name
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    w = half_contour()
    clear_boundary_cache()
    curves = [boundary_curve(spec, premium_time_grid(50, 0.5, rule))
              for rule in ("simpson", "trapezoid")]
    got = [premium_moments(w, spec, c) for c in curves]
    assert counts() == (2, 0)
    assert not np.array_equal(got[0], got[1])
    again = premium_moments(w, spec, curve)
    assert again is got[0]


def test_axes_that_differ_in_first_or_h_never_share_an_entry():
    # same a and count; a first index one step off moves the fold (or
    # misses b = 0), and a spacing one ulp off moves every point but b = 0
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    basket = BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                        dividends=[0.02, 0.03], vols=[0.2, 0.3],
                        corr=[[1.0, 0.5], [0.5, 1.0]])
    curve = boundary_curve(spec, T50)
    h = 0.25
    base = Axis(1.0, h, -4, 9)
    others = [Axis(1.0, h, first, 9) for first in (-3, 0, 1, -9)]
    others.append(Axis(1.0, float(np.nextafter(h, 1.0)), -4, 9))
    transforms = (
        lambda ax: premium_moments((ax,), spec, curve),
        lambda ax: discounted_payoff_transform((ax, Axis(1.0, 0.3, -4, 9)),
                                               basket, 0.5))
    for transform in transforms:
        for other in others:
            clear_boundary_cache()
            first = transform(base)
            got = transform(other)
            assert counts() == (2, 0)
            assert transform(base) is first and transform(other) is got
            # the neighbour's entry is what a recompute on an empty cache
            # gives
            clear_boundary_cache()
            assert np.array_equal(transform(other), got)


def test_cache_stays_bounded_and_clears():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    clear_boundary_cache()
    sizes = [2**k for k in range(6, 6 + boundary.MOMENT_CACHE_SIZE + 3)]
    first = premium_moments(half_contour(sizes[0]), spec, curve)
    for size in sizes[1:]:
        premium_moments(half_contour(size), spec, curve)
        assert len(boundary._moment_cache) <= boundary.MOMENT_CACHE_SIZE
    assert len(boundary._moment_cache) == boundary.MOMENT_CACHE_SIZE
    assert counts() == (len(sizes), 0)
    # the least recently used contour was evicted and is computed anew
    again = premium_moments(half_contour(sizes[0]), spec, curve)
    assert again is not first
    assert np.array_equal(again, first)
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)


def test_threaded_table_rows_equal_serial():
    # the boundary and moment caches are shared by threads that price the
    # table's cells side by side
    clear_boundary_cache()
    serial, _ = table1.run_table1(binomial_steps=200)
    assert len(serial) == 3 * len(table1.SPOTS)

    def quotes(row):
        rate, div, vol = table1.GROUPINGS[row.grouping]
        return (price_american_call(row.spot, table1.STRIKE, rate, div, vol,
                                    table1.TAU),
                dw_price_american_call(row.spot, table1.STRIKE, rate, div,
                                       vol, table1.TAU))

    clear_boundary_cache()
    with ThreadPoolExecutor(max_workers=2) as ex:
        threaded = list(ex.map(quotes, serial))
    assert threaded == [(row.fft, row.dw) for row in serial]


def test_concurrent_lookups_count_every_call_and_return_exact_entries():
    # more workers than keys and than cores, with frequent thread switches:
    # a lost counter update or a mixed-up entry breaks the invariants below
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = boundary_curve(spec, T50)
    contours = [(Axis(1.0, db, -4, 9),) for db in (0.25, 0.5, 0.75)]
    clear_boundary_cache()
    want = [premium_moments(w, spec, curve) for w in contours]
    clear_boundary_cache()
    calls = 8 * 60

    def work(k):
        got = premium_moments(contours[k % 3], spec, curve)
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
