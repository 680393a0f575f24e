"""Outputs pinned at the commit before the streamed premium transform.

The values were computed by the per-node premium sum this package used
before.  Faster evaluation must not move them: FFT and series columns of
the paper's table and the American greeks to 1e-12 relative, the binomial
column exactly.  The series column was re-pinned once, when the series
began to sum the premium's t = 0 node in S space, and the FFT column and
the greeks once, when the lattice did the same; every moved price moved
toward the closed-form node sum.
"""

import pytest

from mellin_pricer import greeks as gk
from mellin_pricer.fft_pricer import AMERICAN_PUT
from mellin_pricer.mellin_core import BasketSpec
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
