import os

import numpy as np
import pytest
from hypothesis import settings

from mellin_pricer.boundary import TimeGrid, premium_time_grid
from mellin_pricer.mellin_core import BasketSpec

# On CI a randomized failure prints the blob that reproduces it, since the
# example database that would replay it stays on the machine that ran it.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# benchmark groupings: (rate, dividend, vol) of the 6-month call experiments
GROUPING_PARAMS = {
    1: (0.03, 0.07, 0.2),
    2: (0.03, 0.07, 0.4),
    3: (0.07, 0.03, 0.3),
}


@pytest.fixture
def grouping1_spec():
    """Single-asset spec with the grouping-1 market (strike 100, 6 months)."""
    r, q, sig = GROUPING_PARAMS[1]
    return BasketSpec.single(100.0, 0.5, r, q, sig)


@pytest.fixture
def grouping1_put_spec():
    """Grouping-1 market after put-call symmetry (rate/dividend swapped)."""
    r, q, sig = GROUPING_PARAMS[1]
    return BasketSpec.single(100.0, 0.5, q, r, sig)


@pytest.fixture
def basket2_spec():
    return BasketSpec(n=2, strike=100.0, maturity=0.5, rate=0.05,
                      dividends=[0.02, 0.03], vols=[0.2, 0.3],
                      corr=[[1.0, 0.5], [0.5, 1.0]])


def time_grid(m, tau, rule):
    """The premium's M uniform nodes over tau with the composite "simpson"
    weights of ``premium_time_grid``, or the "trapezoid" or "flat"
    (tau / M each) weights, built here: the pricers take a grid of any
    weights."""
    simpson = premium_time_grid(m, tau)
    if rule == "simpson":
        return simpson
    c = np.full(m, tau / (m - 1) if rule == "trapezoid" else tau / m)
    if rule == "trapezoid":
        c[[0, -1]] *= 0.5
    return TimeGrid(tau, simpson.t, c)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def assert_close(got, want, rtol=0.0, atol=0.0, label=""):
    err = abs(got - want)
    bound = rtol * abs(want) + atol
    assert err <= bound, (
        f"{label or 'value'}: got {got!r}, want {want!r} "
        f"(err {err:.3e} > bound {bound:.3e})")
