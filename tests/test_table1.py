"""The benchmark table's driver: the true column."""

import numpy as np

from mellin_pricer import oracles, table1


def test_true_column_is_each_spot_priced_alone():
    rows, _ = table1.run_table1(groupings=[2], binomial_steps=300)
    rate, div, vol = table1.GROUPINGS[2]
    want = [oracles.binomial_price(s, table1.STRIKE, rate, div, vol,
                                   table1.TAU, steps=300,
                                   style=oracles.AMER_CALL)
            for s in table1.SPOTS]
    assert [r.true for r in rows] == want
    assert all(type(r.true) is float for r in rows)
    assert list(oracles.binomial_price(
        np.array(table1.SPOTS), table1.STRIKE, rate, div, vol, table1.TAU,
        steps=300, style=oracles.AMER_CALL)) == want
