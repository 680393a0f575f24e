"""Memoised transforms and lattices: exact reuse, read-only entries, bounds.

``fft_pricer.discounted_payoff_transform`` keeps its recent n >= 2 lattice
results in ``boundary._moment_cache``, next to the premium moments, keyed
on the exact inputs it reads.  A hit must be the array a recompute would
give, bit for bit, so every basket greek served from the cache equals the
same greek computed on an empty cache.  The spot-free parts of a lattice
(``fft_pricer.Lattice``) are made once and shared by every grid on it, so
a warm quote or greek computes only what depends on its spot.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import boundary, fft_pricer
from mellin_pricer import greeks as gk
from mellin_pricer.boundary import (boundary_curve, clear_boundary_cache,
                                    premium_time_grid)
from mellin_pricer.cli import main
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, Axis,
                                      build_grid,
                                      discounted_payoff_transform,
                                      invert_transform_lattice,
                                      premium_sums, price_put,
                                      price_surface, put_transform,
                                      sample_transform,
                                      unit_payoff_transform)
from mellin_pricer.mellin_core import BasketSpec

KINDS = (gk.delta1(1), gk.delta2(1, 2), gk.gamma(1), gk.theta(), gk.rho(),
         gk.nu(1), gk.xi(1))
MODES = ("kernel", "paper")


def counts():
    cache = boundary._moment_cache
    return cache.misses, cache.hits


def basket(strike=100.0, r=0.05, q=(0.02, 0.03), vols=(0.2, 0.3), rho=0.5,
           tau=0.5):
    return BasketSpec(n=2, strike=strike, maturity=tau, rate=r, dividends=q,
                      vols=vols, corr=[[1.0, rho], [rho, 1.0]])


def lattice(a=(1.0, 1.0), db=(0.25, 0.3), size=16):
    """The axes a_i + i (j - size/2) db_i, j < size."""
    return tuple(Axis(a[i], db[i], -size // 2, size) for i in (0, 1))


def up(x):
    return float(np.nextafter(x, np.inf))


SPEC, W = basket(), lattice()


def test_quote_and_three_greeks_at_one_spot_share_one_transform():
    # the basket_book position: a quote, then delta1, delta2 and gamma at
    # the same spot on the same default grid; the edge pieces are computed
    spec, spot = basket(), [48.0, 53.0]
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)
    grid = build_grid(2, 2**9, 1.0, spot)
    price_surface(spec, grid, 0.5, EUROPEAN_PUT)
    for kind in KINDS[:3]:
        gk.greek(kind, spot, 0.5, spec)
    assert counts() == (1, 3)
    assert len(boundary._moment_cache) == 1


def test_a_market_pays_for_one_transform():
    # the basket_book market: quotes at three spots, then delta1, delta2 and
    # gamma at the first; every spot's lattice has the same frequencies, so
    # the six share one transform
    spec, spots = basket(), ([50.0, 50.0], [48.0, 53.0], [55.3, 41.7])
    clear_boundary_cache()
    for spot in spots:
        price_surface(spec, build_grid(2, 2**9, 1.0, spot), 0.5, EUROPEAN_PUT)
    for kind in KINDS[:3]:
        gk.greek(kind, spots[0], 0.5, spec)
    assert counts() == (1, 5)


def test_cli_greeks_on_a_basket_share_one_transform(capsys):
    clear_boundary_cache()
    code = main(["greeks", "--style", "euro-put", "--spot", "48",
                 "--spot", "53", "--strike", "100", "--rate", "0.05",
                 "--div", "0.02", "--div", "0.03", "--vol", "0.2",
                 "--vol", "0.3", "--corr", "1,0.5,0.5,1", "--tau", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["delta"]) == 2
    # theta, rho, two each of delta, gamma, nu and xi, one cross delta
    assert counts() == (1, 10)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
@settings(max_examples=5, deadline=None)
@given(rho=st.floats(-0.5, 0.9), vol1=st.floats(0.15, 0.45),
       vol2=st.floats(0.15, 0.45), q1=st.floats(0.0, 0.08),
       q2=st.floats(0.0, 0.08), r=st.floats(0.01, 0.08),
       tau=st.sampled_from((0.25, 0.5, 1.0)),
       s1=st.floats(40.0, 60.0), s2=st.floats(40.0, 60.0),
       warm_kind=st.sampled_from(KINDS), warm_mode=st.sampled_from(MODES))
def test_warm_greek_equals_cold(kind, mode, rho, vol1, vol2, q1, q2, r, tau,
                                s1, s2, warm_kind, warm_mode):
    # basket_book's market range; the cache is filled by a possibly
    # different greek in a possibly different mode
    spec = basket(r=r, q=(q1, q2), vols=(vol1, vol2), rho=rho, tau=tau)
    kw = dict(mode=mode, size=2**8)
    clear_boundary_cache()
    cold = gk.greek(kind, [s1, s2], tau, spec, **kw)
    clear_boundary_cache()
    gk.greek(warm_kind, [s1, s2], tau, spec, **{**kw, "mode": warm_mode})
    warm = gk.greek(kind, [s1, s2], tau, spec, **kw)
    assert counts() == (1, 1)
    assert warm == cold


def test_entries_are_read_only_and_shared():
    clear_boundary_cache()
    got = discounted_payoff_transform(W, SPEC, 0.5)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0
    assert discounted_payoff_transform(W, SPEC, 0.5) is got
    assert counts() == (1, 1)


def test_edge_pieces_and_points_bypass_the_cache():
    clear_boundary_cache()
    for piece in ((W[0].part(0, 1), W[1]), (W[0], W[1].part(0, 1)),
                  (W[0].part(3, 4), W[1].part(6, 7))):
        got = discounted_payoff_transform(piece, SPEC, 0.5)
        assert got.flags.writeable
    assert counts() == (0, 0)
    assert len(boundary._moment_cache) == 0


ONE_ULP_OFF = [  # (spec, w, tau) with one key field moved by one ulp
    pytest.param(basket(r=up(0.05)), W, 0.5, id="r"),
    pytest.param(SPEC, W, up(0.5), id="tau"),
    pytest.param(basket(q=(up(0.02), 0.03)), W, 0.5, id="q1"),
    pytest.param(basket(q=(0.02, up(0.03))), W, 0.5, id="q2"),
    pytest.param(basket(vols=(up(0.2), 0.3)), W, 0.5, id="sigma1"),
    pytest.param(basket(vols=(0.2, up(0.3))), W, 0.5, id="sigma2"),
    pytest.param(basket(rho=up(0.5)), W, 0.5, id="rho"),
    pytest.param(SPEC, lattice(a=(up(1.0), 1.0)), 0.5, id="a1"),
    pytest.param(SPEC, lattice(a=(1.0, up(1.0))), 0.5, id="a2"),
    pytest.param(SPEC, lattice(db=(up(0.25), 0.3)), 0.5, id="db1"),
    pytest.param(SPEC, lattice(db=(0.25, up(0.3))), 0.5, id="db2"),
]


@pytest.mark.parametrize("spec, w, tau", ONE_ULP_OFF)
def test_one_ulp_change_in_any_key_field_misses(spec, w, tau):
    clear_boundary_cache()
    base = discounted_payoff_transform(W, SPEC, 0.5)
    got = discounted_payoff_transform(w, spec, tau)
    assert counts() == (2, 0)
    assert discounted_payoff_transform(W, SPEC, 0.5) is base
    assert counts() == (2, 1)
    # the neighbour's entry is what a recompute on an empty cache gives
    clear_boundary_cache()
    assert np.array_equal(got, discounted_payoff_transform(w, spec, tau))


def test_every_strike_of_a_market_shares_one_transform():
    # the transform is at strike 1: the key holds no strike, and a basket
    # put at any strike reads the one entry
    clear_boundary_cache()
    base = discounted_payoff_transform(W, SPEC, 0.5)
    for strike in (up(100.0), 80.0, 125.0):
        assert discounted_payoff_transform(W, basket(strike=strike),
                                           0.5) is base
    assert counts() == (1, 3)
    grid = build_grid(2, 2**9, 1.0, [50.0, 45.0])
    for strike in (80.0, 100.0, 125.0):
        price_surface(basket(strike=strike), grid, 0.5, EUROPEAN_PUT)
    assert counts()[0] == 2  # the lattice's half, once


def test_cache_stays_bounded_and_clears():
    spec = basket()
    spacings = [0.2 + 0.05 * k for k in range(boundary.MOMENT_CACHE_SIZE + 3)]
    clear_boundary_cache()
    first = discounted_payoff_transform(lattice(db=(spacings[0], 0.3)),
                                        spec, 0.5)
    for db in spacings[1:]:
        discounted_payoff_transform(lattice(db=(db, 0.3)), spec, 0.5)
        assert len(boundary._moment_cache) <= boundary.MOMENT_CACHE_SIZE
    assert len(boundary._moment_cache) == boundary.MOMENT_CACHE_SIZE
    assert counts() == (len(spacings), 0)
    # the least recently used lattice was evicted and is computed anew
    again = discounted_payoff_transform(lattice(db=(spacings[0], 0.3)),
                                        spec, 0.5)
    assert again is not first
    assert np.array_equal(again, first)
    clear_boundary_cache()
    assert len(boundary._moment_cache) == 0
    assert counts() == (0, 0)


def test_concurrent_lookups_count_every_call_and_return_exact_entries():
    # more workers than keys and than cores, with frequent thread switches:
    # a lost counter update or a mixed-up entry breaks the invariants below
    spec = basket()
    lattices = [lattice(db=(db, 0.3)) for db in (0.25, 0.5, 0.75)]
    clear_boundary_cache()
    want = [discounted_payoff_transform(w, spec, 0.5) for w in lattices]
    clear_boundary_cache()
    calls = 8 * 60

    def work(k):
        got = discounted_payoff_transform(lattices[k % 3], spec, 0.5)
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


def test_warm_quotes_and_greek_compute_no_spot_free_transform():
    # after one cold quote, quotes at four other spots and an American
    # greek only read the market's transforms: no premium pass, no payoff
    # transform, no miss
    market = (100.0, 0.06, 0.02, 0.3, 0.5)  # K, r, q, sigma, tau
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    clear_boundary_cache()
    price_put(100.0, *market)
    misses = counts()[0]
    with mock.patch.object(fft_pricer, "_moment_pass",
                           wraps=fft_pricer._moment_pass) as passes, \
            mock.patch.object(fft_pricer, "char_exponent_wi",
                              wraps=fft_pricer.char_exponent_wi) as psi:
        for spot in (80.0, 90.0, 110.0, 120.0):
            price_put(spot, *market)
        gk.greek(gk.gamma(), [95.0], 0.5, spec, style=AMERICAN_PUT)
    assert passes.call_count == 0
    assert psi.call_count == 0
    assert counts()[0] == misses


@pytest.mark.parametrize("n, size, spots", [
    (1, 2**14, ([80.0], [120.0])), (2, 2**9, ([50.0, 50.0], [48.0, 53.0]))])
def test_grids_at_two_spots_share_one_lattice(n, size, spots):
    first, second = (build_grid(n, size, 1.0, s) for s in spots)
    assert second.lattice is first.lattice
    assert all(a is b for a, b in zip(first.axes, second.axes))
    assert second.lattice.parts is first.lattice.parts
    assert not np.array_equal(first.origin, second.origin)


def test_every_cached_array_is_read_only():
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    grid = build_grid(1, 2**10, 1.0, [90.0], m_steps=50)
    lat = grid.lattice
    half, = lat.parts[0]
    clear_boundary_cache()
    bnd = boundary_curve(spec, premium_time_grid(50, 0.5))
    price_put(90.0, 100.0, 0.05, 0.03, 0.25, 0.5, size=2**10, m_steps=50)
    cached = [lat.strip_a, lat.deltas, lat.lams, *lat.readout,
              lat.unit_prices, grid.origin, grid.target_S,
              *premium_sums((half,), spec, bnd),
              put_transform((half,), spec, 0.5, AMERICAN_PUT, bnd),
              unit_payoff_transform((half,), spec, 0.5)]
    for axis in lat.axes + (half,):
        cached.append(axis.points)
    basket = build_grid(2, 16, 1.0, [50.0, 40.0], delta_target=0.5).lattice
    for axes in [basket.parts[0]] + basket.parts[1]:
        cached += [axis.points for axis in axes]
    for x in cached:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0


@settings(max_examples=5, deadline=None)
@given(rho=st.floats(-0.5, 0.9), vol1=st.floats(0.15, 0.45),
       vol2=st.floats(0.15, 0.45), q1=st.floats(0.0, 0.08),
       q2=st.floats(0.0, 0.08), r=st.floats(0.01, 0.08),
       tau=st.sampled_from((0.25, 0.5, 1.0)),
       s1=st.floats(40.0, 60.0), s2=st.floats(40.0, 60.0))
def test_warm_surface_equals_cold(rho, vol1, vol2, q1, q2, r, tau, s1, s2):
    # basket_book's market range; the transform is filled by a quote at
    # another spot, and the raw inverse and its residual, which the
    # surface and its diagnostics are made from, come out bit for bit
    spec = basket(r=r, q=(q1, q2), vols=(vol1, vol2), rho=rho, tau=tau)
    grid = build_grid(2, 2**8, 1.0, [s1, s2])

    def raw_inverse(grid):
        return invert_transform_lattice(grid, *sample_transform(
            grid, lambda axes: put_transform(axes, spec, tau, EUROPEAN_PUT,
                                             None)), strike=spec.strike)

    clear_boundary_cache()
    cold = raw_inverse(grid)
    clear_boundary_cache()
    raw_inverse(build_grid(2, 2**8, 1.0, [s2, s1]))
    warm = raw_inverse(grid)
    assert counts() == (1, 1)
    assert warm[0].tobytes() == cold[0].tobytes()
    assert warm[1] == cold[1]


def test_a_lambda_one_ulp_off_is_another_lattice():
    lam = 2 * np.pi / 8.0
    lattices = [fft_pricer._lattice(1, 16, (1.0,), (0.5,), (float(x),))
                for x in (lam, np.nextafter(lam, 1.0))]
    assert lattices[1] is not lattices[0]
    assert [g.lams[0] for g in lattices] == [lam, np.nextafter(lam, 1.0)]
