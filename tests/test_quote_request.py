"""The spot- and strike-free part of a quote, memoised once per market.

``fft_pricer.put_boundary`` keeps a market's strike-1 boundary curve in
``boundary._curve_cache``, and ``build_grid`` shares one lattice per
(n, N, a, delta), so a warm quote or greek computes only what its spot
and strike move.  Every value the memo serves must be the one a cold call
gives, bit for bit; the cache stays at its bound,
``clear_boundary_cache`` empties it and its arrays are read-only.  Every
route of a market (FFT, greek, series, trapezoid, residual, CLI) reads
one solve.  Each quote still makes one surface from one premium transform
and one inverse FFT, which the benchmark's per-layer metrics count.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellin_pricer import boundary, fft_pricer
from mellin_pricer import greeks as gk
from mellin_pricer.boundary import clear_boundary_cache
from mellin_pricer.cli import main
from mellin_pricer.fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                                      invert_transform_lattice,
                                      landing_surface, node0_step,
                                      price_american_call, price_put,
                                      put_boundary, put_transform,
                                      sample_transform)
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import (boundary_residual_cap,
                                   price_direct_trapezoid)
from mellin_pricer.series_pricer import DwConfig, dw_price

SIZE, M = 2**12, 60
GRID = dict(size=SIZE, m_steps=M)


def surface_state(surf):
    return (surf.landing_value(), surf.values.tobytes(), surf.imag_residual,
            surf.clamped_points)


@settings(max_examples=8, deadline=None)
@given(r=st.floats(0.01, 0.08), q=st.floats(0.001, 0.08),
       vol=st.floats(0.15, 0.45), tau=st.sampled_from((0.25, 0.5, 1.0)),
       spot=st.floats(80.0, 120.0),
       strikes=st.lists(st.floats(70.0, 130.0), min_size=1, max_size=3))
def test_warm_quotes_equal_cold(r, q, vol, tau, spot, strikes):
    spec = BasketSpec.single(100.0, tau, r, q, vol)
    calls = {}
    for k in strikes:
        for style in (AMERICAN_PUT, EUROPEAN_PUT):
            calls[k, style] = lambda k=k, style=style: surface_state(
                price_put(spot, k, r, q, vol, tau, style, **GRID)[1])
    for s in (spot, 0.9 * spot):
        calls["call", s] = lambda s=s: price_american_call(
            s, 100.0, r, q, vol, tau, **GRID)
    for kind in (gk.delta1(), gk.rho()):
        calls[kind] = lambda kind=kind: gk.greek(
            kind, [spot], tau, spec, style=AMERICAN_PUT, **GRID)
    cold = {}
    for key, fn in calls.items():  # each on an empty cache
        clear_boundary_cache()
        cold[key] = fn()
    clear_boundary_cache()
    price_put(1.1 * spot, 100.0, r, q, vol, tau, **GRID)
    for fn in calls.values():  # every memo filled
        fn()
    warm = {key: fn() for key, fn in calls.items()}
    assert warm == cold


def test_every_spot_and_strike_of_a_market_reads_one_request():
    clear_boundary_cache()
    cache = boundary._curve_cache
    for k in (80.0, 100.0, 125.0):
        for s in (80.0, 100.0, 120.0):
            price_put(s, k, 0.05, 0.03, 0.25, 0.5, **GRID)
    assert (cache.misses, cache.hits, len(cache)) == (1, 8, 1)
    # the calls are puts on their put-call symmetric market: one more
    for s in (80.0, 100.0, 120.0):
        price_american_call(s, 100.0, 0.05, 0.03, 0.25, 0.5, **GRID)
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    gk.greek(gk.gamma(), [90.0], 0.5, spec, style=AMERICAN_PUT, **GRID)
    assert (cache.misses, cache.hits, len(cache)) == (2, 11, 2)


@pytest.mark.parametrize("field, value", [
    ("rate", 0.0501), ("dividend", 0.0301), ("vol", 0.2501), ("tau", 0.49),
    ("maturity", 0.75), ("style", EUROPEAN_PUT), ("size", 2**11),
    ("m_steps", 61), ("strip_a", 0.9), ("delta_target", 0.3),
    ("boundary_mode", "printed")])
def test_any_other_setting_is_another_request(field, value):
    # a curve input is another curve entry; a lattice input is another
    # lattice on the same curve; a European put reads no curve
    args = dict(strike=100.0, maturity=0.5, rate=0.05, dividend=0.03,
                vol=0.25, tau=0.5, style=AMERICAN_PUT, size=SIZE, m_steps=M,
                strip_a=1.0, delta_target=0.25, boundary_mode="corrected")

    def quote(strike, maturity, rate, dividend, vol, **grid):
        spec = BasketSpec.single(strike, maturity, rate, dividend, vol)
        return landing_surface(spec, [100.0], **grid).grid.lattice

    clear_boundary_cache()
    first = quote(**args)
    second = quote(**dict(args, **{field: value}))
    cache = boundary._curve_cache
    if field == "style":
        assert (cache.misses, cache.hits, len(cache)) == (1, 0, 1)
    elif field in ("size", "strip_a", "delta_target"):
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)
        assert second is not first
    else:
        assert (cache.misses, cache.hits, len(cache)) == (2, 0, 2)
        assert second is first


def test_cache_stays_bounded_clears_and_holds_read_only_arrays():
    clear_boundary_cache()
    bound = boundary.CURVE_CACHE_SIZE
    for i in range(bound + 3):
        price_put(100.0, 100.0, 0.01 + 0.005 * i, 0.03, 0.25, 0.5, **GRID)
        assert len(boundary._curve_cache) <= bound
    assert len(boundary._curve_cache) == bound
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    curve = put_boundary(AMERICAN_PUT, spec, 0.5, M)
    again = put_boundary(AMERICAN_PUT, spec, 0.5, M)
    assert again.u is curve.u and again.grid is curve.grid
    # every strike reads the same strike-1 entry
    other = put_boundary(AMERICAN_PUT, BasketSpec.single(
        80.0, 0.5, 0.05, 0.03, 0.25), 0.5, M)
    assert (curve.strike, other.strike) == (100.0, 80.0)
    assert other.u is curve.u
    lat = build_grid(1, SIZE, 1.0, [100.0], M).lattice
    arrays = [curve.u, curve.grid.t, curve.grid.c, lat.strip_a, lat.deltas,
              lat.lams, lat.unit_prices, *lat.readout]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
    clear_boundary_cache()
    cache = boundary._curve_cache
    assert (len(cache), cache.misses, cache.hits) == (0, 0, 0)
    assert put_boundary(AMERICAN_PUT, spec, 0.5, M).u is not curve.u


def test_threaded_quotes_equal_serial():
    # more markets than the curve cache holds, priced by threads with
    # frequent switches: every quote equals the one priced alone
    markets = [(0.02 + 0.01 * (i % 5), 0.01 * (i % 3), 0.2 + 0.05 * (i % 4),
                (0.25, 0.5)[i % 2]) for i in range(boundary.CURVE_CACHE_SIZE
                                                   + 2)]
    jobs = [(mk, s) for mk in markets for s in (85.0, 100.0, 115.0)]

    def job(item):
        (r, q, vol, tau), s = item
        return (price_put(s, 100.0, r, q, vol, tau, **GRID)[0],
                price_american_call(s, 100.0, r, q, vol, tau, **GRID))

    serial = []
    for item in jobs:
        clear_boundary_cache()
        serial.append(job(item))
    clear_boundary_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            threaded = list(ex.map(job, jobs + jobs[::-1]))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial + serial[::-1]
    assert len(boundary._curve_cache) <= boundary.CURVE_CACHE_SIZE


class CallCounts:
    """Count calls of library functions by replacing every binding of each
    in the package's modules, as the benchmark's tracer does."""

    def __init__(self, monkeypatch, names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            orig = getattr(fft_pricer, name)

            def wrapper(*args, _orig=orig, _name=name, **kwargs):
                self.calls[_name] += 1
                return _orig(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("mellin_pricer"):
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            monkeypatch.setattr(mod, attr, wrapper)

    def take(self):
        out, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return out


@pytest.mark.parametrize("quote", [
    lambda s: price_put(s, 100.0, 0.06, 0.02, 0.3, 0.5, **GRID),
    lambda s: price_american_call(s, 100.0, 0.06, 0.02, 0.3, 0.5, **GRID)],
    ids=["put", "call"])
def test_each_american_quote_makes_one_surface_from_one_transform(
        monkeypatch, quote):
    # the benchmark's per-layer metrics read these counts: a quote path
    # that skipped the premium transform or made two surfaces would show
    # there, and fails here first
    names = ("premium_transform", "price_surface", "invert_transform_lattice")
    counts = CallCounts(monkeypatch, names)
    clear_boundary_cache()
    for s in (90.0, 100.0, 110.0):  # one cold, then two warm
        quote(s)
        assert counts.take() == dict.fromkeys(names, 1), s


@pytest.mark.parametrize("strike", [70.0, 130.0])
def test_node0_on_the_surface_is_its_step_at_every_lattice_price(strike):
    # the surface adds node 0's step as an affine function of the lattice
    # prices: it must be node0_step at each of them, at any strike
    surf = price_put(95.0, strike, 0.06, 0.02, 0.3, 0.5, **GRID)[1]
    grid = surf.grid
    spec = BasketSpec.single(strike, 0.5, 0.06, 0.02, 0.3)
    curve = put_boundary(AMERICAN_PUT, spec, 0.5, M)
    raw, _ = invert_transform_lattice(grid, *sample_transform(
        grid, lambda axes: put_transform(axes, spec, 0.5, AMERICAN_PUT,
                                         curve)), strike=strike)
    prices = np.exp(grid.origin[0]) * grid.lattice.unit_prices
    prices[grid.landing_index] = grid.target_S[0]
    want = np.maximum(raw + node0_step(prices, spec, curve), 0.0)
    assert np.count_nonzero(prices < curve.s_star[0]) > SIZE // 4
    assert np.abs(surf.values - want).max() <= 1e-13 * strike
    assert surf.landing_value() == want[grid.landing_index]


def test_every_route_reads_one_solve(monkeypatch, capsys):
    # the FFT, a greek, the series, the trapezoid, the residual at node 0
    # (time to expiry tau itself at M = 60) and the CLI all read the
    # market's one curve entry: one solve over its M nodes at strike 1
    solves, solve = [], boundary.critical_price_approx

    def counting(t, spec, mode="corrected"):
        solves.append((spec.strike, np.shape(t)))
        return solve(t, spec, mode)

    monkeypatch.setattr(boundary, "critical_price_approx", counting)
    clear_boundary_cache()
    spec = BasketSpec.single(100.0, 0.5, 0.05, 0.03, 0.25)
    grid = build_grid(1, SIZE, 1.0, [100.0], M)
    price_put(100.0, 100.0, 0.05, 0.03, 0.25, 0.5, **GRID)
    gk.greek(gk.rho(), [95.0], 0.5, spec, style=AMERICAN_PUT, **GRID)
    dw_price(105.0, 0.5, spec, DwConfig(m_steps=M))
    curve = put_boundary(AMERICAN_PUT, spec, 0.5, M)
    price_direct_trapezoid(spec, grid.lattice, 0.5, 100.0, AMERICAN_PUT,
                           curve)
    assert curve.grid.tte[0] == 0.5
    boundary_residual_cap(curve, 0, spec, grid)
    assert main(["price", "--method", "trapezoid", "--style", "amer-put",
                 "--spot", "90", "--strike", "100", "--rate", "0.05",
                 "--div", "0.03", "--vol", "0.25", "--tau", "0.5",
                 "--grid-n", str(SIZE), "--grid-m", str(M)]) == 0
    capsys.readouterr()
    assert solves == [(1.0, (M,))]
