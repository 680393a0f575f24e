"""Outputs pinned at the commit before the streamed premium transform.

The values were computed by the per-node premium sum this package used
before.  Faster evaluation must not move them: FFT and series columns of
the paper's table and the American greeks to 1e-12 relative, the binomial
column exactly.
"""

import pytest

from mellin_pricer import greeks as gk
from mellin_pricer.fft_pricer import AMERICAN_PUT
from mellin_pricer.mellin_core import BasketSpec
from mellin_pricer.table1 import run_table1

RTOL = 1e-12

#: run_table1() defaults, grouping-then-spot order
PINNED_FFT = (
    (0.21985269970483537, 1.389430128949605, 4.793859830868666,
     11.126851080075621, 20.059795662741017),
    (2.6920959547267413, 5.729604130185372, 10.253319999613101,
     16.206566130468076, 23.40018720880826),
    (1.664380953687543, 4.494675911963584, 9.250635444819796,
     15.797504362997703, 23.706204490424923),
)
PINNED_DW = (
    (0.22004304134302136, 1.3891021501389968, 4.794009267926406,
     11.128380048514147, 20.05645415973214),
    (2.692121071243871, 5.7295681570470816, 10.253316262978096,
     16.206658325670197, 23.40034167095881),
    (1.6643821425814618, 4.4946746351284075, 9.250636598102973,
     15.797507228128973, 23.706207415181915),
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
#: tau = 0.5, spot 100, default grid
PINNED_GREEKS = {
    "kernel": {
        "delta1": -0.4333769785964992,
        "gamma": 0.019410580223605516,
        "theta": 6.548430355673386,
        "rho": -20.4648885680575,
        "nu": 28.575141811579716,
        "xi": 17.786611287412367,
    },
    "paper": {
        "delta1": -0.4333769785964992,
        # with the full-precision boundary solve; a Brent solve per node
        # (xtol 1e-13 K) gave 0.009098660144840186
        "gamma": 0.009098660144851138,
        "theta": 6.758903514646323,
        "rho": -8.043249235687078,
        "nu": 15.712453236338622,
        "xi": -21.437814292068484,
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
