"""Memoised basket payoff transforms: exact reuse, read-only entries, bounds.

``fft_pricer.discounted_payoff_transform`` keeps its recent n >= 2 lattice
results in ``boundary._moment_cache``, next to the premium moments, keyed
on the exact inputs it reads.  A hit must be the array a recompute would
give, bit for bit, so every basket greek served from the cache equals the
same greek computed on an empty cache.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import boundary
from mellin_pricer import greeks as gk
from mellin_pricer.boundary import clear_boundary_cache
from mellin_pricer.cli import main
from mellin_pricer.fft_pricer import (EUROPEAN_PUT, build_grid,
                                      discounted_payoff_transform,
                                      price_surface)
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
    """An outer-product contour lattice a_i + i (j - size/2) db_i."""
    axes = [a[i] + 1j * (np.arange(size) - size / 2) * db[i] for i in (0, 1)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


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
    for piece in (W[:1], W[:, :1], W[3, 6]):
        got = discounted_payoff_transform(piece, SPEC, 0.5)
        assert got.flags.writeable
    assert counts() == (0, 0)
    assert len(boundary._moment_cache) == 0


ONE_ULP_OFF = [  # (spec, w, tau) with one key field moved by one ulp
    pytest.param(basket(strike=up(100.0)), W, 0.5, id="strike"),
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
