"""Benchmark table of 6-month American call prices, three rate/vol groupings.

Reference values are the published benchmark: a 10000-step binomial lattice
("true"), the FFT Mellin inversion ("fft"), and the sine-cosine series
inversion ("dw"), for strike 100 at spots 80..120.  ``run_table1``
recomputes all three columns with this library and reports the worst
deviation of the FFT column from its reference.  The true column is most
of that work; each grouping prices its five spots in one windowed lattice
sweep (``oracles.binomial_price`` with a vector of spots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracles
from .fft_pricer import price_american_call
from .series_pricer import DwConfig, dw_price_american_call

STRIKE = 100.0
TAU = 0.5
SPOTS = (80.0, 90.0, 100.0, 110.0, 120.0)

#: (rate, dividend, vol) per grouping
GROUPINGS = {
    1: (0.03, 0.07, 0.2),
    2: (0.03, 0.07, 0.4),
    3: (0.07, 0.03, 0.3),
}

#: reference columns, keyed by grouping, indexed like SPOTS
REF_TRUE = {
    1: (0.2194, 1.3864, 4.7825, 11.0978, 20.0004),
    2: (2.6889, 5.7223, 10.2385, 16.1812, 23.3598),
    3: (1.6644, 4.4947, 9.2504, 15.7977, 23.7061),
}
REF_FFT = {
    1: (0.2198, 1.3894, 4.7942, 11.1269, 20.0594),
    2: (2.6921, 5.7298, 10.2539, 16.2076, 23.4013),
    3: (1.6643, 4.4946, 9.2505, 15.7974, 23.7060),
}
REF_DW = {
    1: (0.2198, 1.3895, 4.7943, 11.1270, 20.0591),
    2: (2.6921, 5.7297, 10.2538, 16.2074, 23.4010),
    3: (1.6644, 4.4947, 9.2506, 15.7975, 23.7062),
}

FFT_TOLERANCE = 2e-3


@dataclass(frozen=True)
class TableRow:
    grouping: int
    spot: float
    true: float
    fft: float
    dw: float

    @property
    def ref_fft(self):
        return REF_FFT[self.grouping][SPOTS.index(self.spot)]

    @property
    def ref_dw(self):
        return REF_DW[self.grouping][SPOTS.index(self.spot)]

    @property
    def ref_true(self):
        return REF_TRUE[self.grouping][SPOTS.index(self.spot)]


def run_table1(groupings=None, size=2**14, m_steps=250, strip_a=1.0,
               dw_cfg: DwConfig | None = None, binomial_steps=10000,
               boundary_mode="corrected", time_weights="simpson"):
    """Recompute the benchmark rows.

    Returns (rows, max_fft_deviation): rows in grouping-then-spot order and
    the worst |fft - reference fft| over the computed cells.  The true
    column of each grouping is one binomial sweep over its five spots; the
    FFT and DW prices are then computed cell by cell, in that order.
    """
    if groupings is None:
        groupings = sorted(GROUPINGS)
    for g in groupings:
        if g not in GROUPINGS:
            raise ValueError(f"unknown grouping {g}")
    if dw_cfg is None:
        dw_cfg = DwConfig(m_steps=m_steps, time_weights=time_weights)
    rows = []
    for g in groupings:
        rate, div, vol = GROUPINGS[g]
        true = oracles.binomial_price(np.array(SPOTS), STRIKE, rate, div, vol,
                                      TAU, steps=binomial_steps,
                                      style=oracles.AMER_CALL)
        for s, t in zip(SPOTS, true):
            fft = price_american_call(s, STRIKE, rate, div, vol, TAU,
                                      size=size, m_steps=m_steps,
                                      strip_a=strip_a,
                                      time_weights=time_weights,
                                      boundary_mode=boundary_mode)
            dw = dw_price_american_call(s, STRIKE, rate, div, vol, TAU,
                                        cfg=dw_cfg,
                                        boundary_mode=boundary_mode)
            rows.append(TableRow(grouping=g, spot=s, true=float(t), fft=fft,
                                 dw=dw))
    max_dev = max(abs(r.fft - r.ref_fft) for r in rows)
    return rows, max_dev


def rows_to_csv(rows, max_dev, fp):
    """S, true, fft, dw rows plus a max-deviation summary row."""
    fp.write("grouping,S,true,fft,dw\n")
    for r in rows:
        fp.write(f"{r.grouping},{r.spot:.10g},{r.true:.10g},"
                 f"{r.fft:.10g},{r.dw:.10g}\n")
    fp.write(f"max_abs_dev_fft_vs_reference,,,{max_dev:.10g},\n")
