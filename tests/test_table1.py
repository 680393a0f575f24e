"""The benchmark table's driver: thread count and the true column."""

import numpy as np
import pytest

from mellin_pricer import oracles, table1


@pytest.mark.parametrize("raw", [None, "", "  "])
def test_unset_or_empty_thread_count_is_one(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("MELLIN_PRICER_THREADS", raising=False)
    else:
        monkeypatch.setenv("MELLIN_PRICER_THREADS", raw)
    assert table1.worker_count() == 1


@pytest.mark.parametrize("raw,want", [("1", 1), ("3", 3), (" 2 ", 2)])
def test_positive_thread_count_is_read(monkeypatch, raw, want):
    monkeypatch.setenv("MELLIN_PRICER_THREADS", raw)
    assert table1.worker_count() == want


@pytest.mark.parametrize("raw", ["abc", "-4", "0", "2.5", "1e3"])
def test_bad_thread_count_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("MELLIN_PRICER_THREADS", raw)
    with pytest.raises(ValueError, match="MELLIN_PRICER_THREADS"):
        table1.worker_count()
    # an explicit thread count does not read the variable
    table1.run_table1(groupings=[1], binomial_steps=10, threads=1)
    with pytest.raises(ValueError, match="MELLIN_PRICER_THREADS"):
        table1.run_table1(groupings=[1], binomial_steps=10)


def test_true_column_is_each_spot_priced_alone():
    rows, _ = table1.run_table1(groupings=[2], binomial_steps=300, threads=1)
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
