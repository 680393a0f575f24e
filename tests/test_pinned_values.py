"""Outputs pinned at the commit before the streamed premium transform.

The values were computed by the per-node premium sum this package used
before.  Faster evaluation must not move them: FFT and series columns of
the paper's table and the American greeks to 1e-12 relative, the binomial
column exactly.  The series column was re-pinned once, when the series
began to sum the premium's t = 0 node in S space, and the FFT column and
the greeks once, when the lattice did the same; every moved price moved
toward the closed-form node sum.  The direct trapezoid, the boundary
residual, the series put at the benchmark's anchor and ``greek_fd`` were
pinned before these single-spot routes were rewired onto one contour price.
"""

import pytest

from mellin_pricer import greeks as gk
from mellin_pricer.boundary import boundary_curve, premium_time_grid
from mellin_pricer.fft_pricer import AMERICAN_PUT, EUROPEAN_PUT, build_grid
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.oracles import (boundary_residual_cap,
                                   price_direct_trapezoid)
from mellin_pricer.series_pricer import DwConfig, dw_price
from mellin_pricer.table1 import run_table1

RTOL = 1e-12

#: run_table1() defaults, grouping-then-spot order; premium node 0 added in
#: S space
PINNED_FFT = (
    (0.21985331559300472, 1.3894293487229117, 4.7938593680818355,
     11.126852169017848, 20.059585608875064),
    (2.692096150287387, 5.729603622422797, 10.253320603496165,
     16.20656733490235, 23.40018646177507),
    (1.6643809596591417, 4.4946759093627655, 9.250635435202938,
     15.797504356731956, 23.706204514015145),
)
#: premium node 0 summed in S space, not in the series
PINNED_DW = (
    (0.22002766317172007, 1.389128092731657, 4.794008240767129,
     11.128244437890313, 20.058090048668934),
    (2.6921132677618496, 5.729579107677339, 10.253320522163625,
     16.206630151323875, 23.400288295453),
    (1.6643819480159612, 4.494674909321786, 9.250636454398677,
     15.797506725433562, 23.70620686951083),
)
PINNED_TRUE = (
    (0.21935350410527102, 1.38643131249257, 4.782539131216287,
     11.097751780437125, 20.0004051100773),
    (2.6889233542760445, 5.722282028574158, 10.238494414479716,
     16.181193461575045, 23.359817989376573),
    (1.6644368729780186, 4.494673212304886, 9.250428556207618,
     15.79767835178239, 23.7060615309891),
)

#: American put greeks, K = 100, r = 0.06, q = 0.02, sigma = 0.3,
#: tau = 0.5, spot 100, default grid; premium node 0 in S space
PINNED_GREEKS = {
    "kernel": {
        "delta1": -0.43339946514136624,
        "gamma": 0.019549284238827867,
        "theta": 6.610757235877957,
        "rho": -20.464895762269652,
        "nu": 28.575141811579716,
        "xi": 17.78661659168125,
    },
    "paper": {
        "delta1": -0.43339946514136624,
        "gamma": 0.008960405860515198,
        "theta": 6.821230069283572,
        "rho": -8.04324923568682,
        "nu": 15.712453236338641,
        "xi": -21.43781429206846,
    },
}

KINDS = {"delta1": gk.delta1(), "gamma": gk.gamma(), "theta": gk.theta(),
         "rho": gk.rho(), "nu": gk.nu(), "xi": gk.xi()}


@pytest.fixture(scope="module")
def table_rows():
    rows, _ = run_table1()
    return rows


@pytest.mark.parametrize("column,pinned", [("fft", PINNED_FFT),
                                           ("dw", PINNED_DW)])
def test_table1_columns(table_rows, column, pinned):
    want = [v for row in pinned for v in row]
    got = [getattr(r, column) for r in table_rows]
    for g, w in zip(got, want):
        assert abs(g - w) <= RTOL * abs(w), (column, g, w)


def test_table1_binomial_column_is_bit_identical(table_rows):
    assert [r.true for r in table_rows] == [v for row in PINNED_TRUE
                                            for v in row]


@pytest.mark.parametrize("mode", sorted(PINNED_GREEKS))
@pytest.mark.parametrize("name", sorted(KINDS))
def test_american_greeks(mode, name):
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    got = gk.greek(KINDS[name], [100.0], 0.5, spec, style=AMERICAN_PUT,
                   mode=mode)
    want = PINNED_GREEKS[mode][name]
    assert abs(got - want) <= RTOL * abs(want)


#: greek_fd of the American put on the PINNED_GREEKS market, default grid,
#: h_rel = 1e-4, maturity tau + 1e-3 so that theta's bump stays inside it
PINNED_GREEK_FD = {
    "delta1": -0.43339947260405687,
    "gamma": 0.019549284369091424,
    "theta": 6.616933401399905,
    "rho": -18.880640323453157,
    "nu": 27.418787545623324,
    "xi": 16.424344775676225,
}
#: the American put at the benchmark's anchor (r = 0.06, q = 0.02,
#: sigma = 0.3, tau = 0.5, K = 100), spots 80, 100, 120, 1000 series terms
PINNED_DW_ANCHOR = (20.49854211640746, 7.547047058516075, 2.1030498190527576)
#: (spec, M, N, node, residual) on TestResidualDiagnostic's markets: the
#: grouping-1 market and its put-call symmetric one, a grid at S = 100
PINNED_RESIDUAL = (
    ("call", 250, 2**14, 249, 1.8621944946062285e-05),
    ("call", 250, 2**14, 248, -2.9789477906660977e-07),
    ("put", 250, 2**14, 249, -0.015542467519643298),
    ("call", 50, 2**12, 44, -7.94141086899458e-05),
)


def test_direct_trapezoid_basket_put():
    # the CI basket: European 2-asset put at (48, 53), N = 2^9
    spec = BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                      dividends=[0.02, 0.03], vols=[0.2, 0.3],
                      corr=[[1.0, 0.5], [0.5, 1.0]])
    grid = build_grid(2, 2**9, 1.0, [48.0, 53.0])
    got = price_direct_trapezoid(spec, grid.lattice, 0.5, [48.0, 53.0],
                                 EUROPEAN_PUT)
    assert abs(got - 5.091576589583716) <= RTOL * 5.091576589583716


def test_direct_trapezoid_american_put():
    # table1's grouping 1 as a put (r = 0.03, q = 0.07), S = K = 100
    spec = BasketSpec.single(100.0, 0.5, 0.03, 0.07, 0.2)
    curve = boundary_curve(spec, premium_time_grid(250, 0.5))
    grid = build_grid(1, 2**14, 1.0, [100.0])
    got = price_direct_trapezoid(spec, grid.lattice, 0.5, [100.0],
                                 AMERICAN_PUT, curve)
    assert abs(got - 6.528413677114157) <= RTOL * 6.528413677114157


@pytest.mark.parametrize("which,m,size,node,want", PINNED_RESIDUAL)
def test_boundary_residual(which, m, size, node, want):
    r, q = (0.03, 0.07) if which == "call" else (0.07, 0.03)
    spec = BasketSpec.single(100.0, 0.5, r, q, 0.2)
    curve = boundary_curve(spec, premium_time_grid(m, 0.5))
    grid = build_grid(1, size, 1.0, [100.0], m_steps=m)
    got = boundary_residual_cap(curve, node, spec, grid)
    assert abs(got - want) <= RTOL * abs(want)


@pytest.mark.parametrize("spot,want", zip((80.0, 100.0, 120.0),
                                          PINNED_DW_ANCHOR))
def test_series_american_put_at_the_anchor(spot, want):
    spec = BasketSpec.single(100.0, 0.5, 0.06, 0.02, 0.3)
    got = dw_price(spot, 0.5, spec, DwConfig(n_terms=1000, m_steps=250))
    assert abs(got - want) <= RTOL * abs(want)


@pytest.mark.parametrize("name", sorted(KINDS))
def test_american_greek_fd(name):
    spec = BasketSpec.single(100.0, 0.5 + 1e-3, 0.06, 0.02, 0.3)
    got = gk.greek_fd(KINDS[name], [100.0], 0.5, spec, style=AMERICAN_PUT,
                      h_rel=1e-4)
    want = PINNED_GREEK_FD[name]
    assert abs(got - want) <= RTOL * abs(want)
