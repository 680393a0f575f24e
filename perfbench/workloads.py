"""The benchmark's workloads: inputs, the timed closed loop, output checks.

Each workload yields *books*: the list of operations one market (or one
table) needs.  The loop runs them one at a time on one thread, each call
waiting for its result (a closed loop with one caller), and ends at the
first book boundary after the run's seconds are spent.  Outputs are
checked after the loop, outside the timed region.  README.md says what
each metric means on each workload.
"""

from __future__ import annotations

import functools
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from mellin_pricer import boundary, fft_pricer, greeks, oracles, table1
from mellin_pricer import series_pricer
from mellin_pricer.errors import ImagResidualTooLarge
from mellin_pricer.fft_pricer import AMERICAN_PUT, EUROPEAN_PUT
from mellin_pricer.mellin_core import BasketSpec

import speed
import tracing

STRIKE = 100.0
TAUS = (0.25, 0.5, 1.0)
SPOT_MULTS = (0.8, 0.9, 1.0, 1.1, 1.2)
TOL = table1.FFT_TOLERANCE
GREEK_FD_RTOL = 1e-3          # the tolerance the library's greek tests use
MC_SE_LIMIT = 3.0             # basket quotes must sit within 3 MC std errors
GREEK_FD_GATED = ("delta1",)  # see README: the other kinds are reported
FALLBACK_DELTA = 0.35         # basket grid spacing after a quality refusal


@dataclass(frozen=True)
class Sizes:
    """Grid sizes; FULL is the benchmark, TOY the harness self-test."""

    amer_n: int = 2**14
    amer_m: int = 250
    basket_n: int = 2**9
    table_n: int = 2**14
    table_m: int = 250
    binomial_steps: int = 10000
    mc_paths: int = 400_000
    anchor_mc_paths: int = 4_000_000


FULL = Sizes()
# Smaller lattices fail the library's quality gates on these markets, so the
# toy sizes keep N and shrink the rest; the table keeps M, which its
# published-column check needs.
TOY = Sizes(amer_m=16, binomial_steps=200, mc_paths=20_000,
            anchor_mc_paths=20_000)


@dataclass
class Op:
    kind: str            # "quote", "greek" or "table"
    label: str
    fn: object
    meta: dict = field(default_factory=dict)
    value: object = None
    seconds: float = 0.0
    kernel: float = 0.0
    error: str = ""
    check_failed: str = ""
    refused: str = ""    # the library refusal a fallback answered

    @property
    def ok(self):
        return not self.error and not self.check_failed

    @property
    def scale(self):
        return speed.NOMINAL_KERNEL_S / self.kernel

    @property
    def nominal_seconds(self):
        return self.seconds * self.scale


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _dw_cfg(m_steps):
    """The series reference at the pricer's M.

    With the default 250 terms the series itself is off by up to 2.4e-3 on
    deep in-the-money one-year calls (it converges to within 1e-4 of the
    FFT with 1000 terms), so the reference keeps 1000.
    """
    return series_pricer.DwConfig(n_terms=1000, m_steps=m_steps)


# ---------------------------------------------------------------------------
# amer_book
# ---------------------------------------------------------------------------


class AmerBook:
    """American puts and calls at five spots plus six put greeks, per market."""

    name = "amer_book"
    GREEKS = (greeks.delta1(), greeks.gamma(), greeks.theta(), greeks.rho(),
              greeks.nu(), greeks.xi())
    ANCHOR = dict(r=0.06, q=0.02, vol=0.3, tau=0.5)
    WARMUP = dict(r=0.045, q=0.04, vol=0.25, tau=0.5)

    def __init__(self, seed, sizes):
        self.rng = np.random.default_rng(seed)
        self.n, self.m = sizes.amer_n, sizes.amer_m
        self.sizes = sizes

    def _put(self, spot, mk, style=AMERICAN_PUT):
        return fft_pricer.price_put(spot, STRIKE, mk["r"], mk["q"], mk["vol"],
                                    mk["tau"], style=style, size=self.n,
                                    m_steps=self.m)[0]

    def warmup(self):
        self._put(STRIKE, self.WARMUP)

    def books(self):
        while True:
            rng = self.rng
            mk = dict(r=rng.uniform(0.01, 0.08), q=rng.uniform(0.0, 0.08),
                      vol=rng.uniform(0.15, 0.45), tau=float(rng.choice(TAUS)))
            spec = BasketSpec.single(STRIKE, mk["tau"], mk["r"], mk["q"],
                                     mk["vol"])
            ops = []
            for mult in SPOT_MULTS:
                s = STRIKE * mult
                ops.append(Op("quote", "put", lambda s=s: self._put(s, mk),
                              dict(mk, spot=s)))
            for mult in SPOT_MULTS:
                s = STRIKE * mult
                ops.append(Op("quote", "call",
                              lambda s=s: fft_pricer.price_american_call(
                                  s, STRIKE, mk["r"], mk["q"], mk["vol"],
                                  mk["tau"], size=self.n, m_steps=self.m),
                              dict(mk, spot=s)))
            for kind in self.GREEKS:
                ops.append(Op("greek", kind.name,
                              lambda kind=kind: greeks.greek(
                                  kind, [STRIKE], mk["tau"], spec,
                                  style=AMERICAN_PUT, size=self.n,
                                  m_steps=self.m),
                              dict(mk, spot=STRIKE, kind=kind)))
            yield ops

    def check(self, books, report):
        cfg = _dw_cfg(self.m)
        for ops in books:
            for op in ops:
                if op.error:
                    continue
                mk = op.meta
                if not math.isfinite(op.value):
                    op.check_failed = "not finite"
                elif op.label == "put":
                    spec = BasketSpec.single(STRIKE, mk["tau"], mk["r"],
                                             mk["q"], mk["vol"])
                    dw = series_pricer.dw_price(mk["spot"], mk["tau"], spec,
                                                cfg)
                    euro = self._put(mk["spot"], mk, EUROPEAN_PUT)
                    intrinsic = max(STRIKE - mk["spot"], 0.0)
                    if abs(op.value - dw) > TOL:
                        op.check_failed = f"|fft - dw| = {abs(op.value - dw):.3g}"
                    elif op.value < euro - TOL or op.value < intrinsic - TOL:
                        op.check_failed = (f"american {op.value:.6g} below "
                                           f"european {euro:.6g} or "
                                           f"intrinsic {intrinsic:.6g}")
                elif op.label == "call":
                    dw = series_pricer.dw_price_american_call(
                        mk["spot"], STRIKE, mk["r"], mk["q"], mk["vol"],
                        mk["tau"], cfg)
                    if abs(op.value - dw) > TOL:
                        op.check_failed = f"|fft - dw| = {abs(op.value - dw):.3g}"
        self._check_greeks_fd(books, report)
        self._anchor(report)

    def _check_greeks_fd(self, books, report):
        """Compare the first market's greeks with finite differences.

        greek_fd's theta bumps tau past the contract's maturity, so the
        differenced market carries a slightly longer maturity; the boundary
        depends on time to expiry only, so prices are unchanged.
        """
        gaps = {}
        for op in books[0]:
            if op.kind != "greek" or op.error:
                continue
            mk = op.meta
            spec = BasketSpec.single(STRIKE, mk["tau"] + 1e-3, mk["r"],
                                     mk["q"], mk["vol"])
            fd = greeks.greek_fd(mk["kind"], [STRIKE], mk["tau"], spec,
                                 style=AMERICAN_PUT, h_rel=1e-4, size=self.n,
                                 m_steps=self.m)
            gaps[op.label] = _rel(op.value, fd)
            if op.label in GREEK_FD_GATED and gaps[op.label] > GREEK_FD_RTOL:
                op.check_failed = f"relative gap to greek_fd {gaps[op.label]:.3g}"
        report["greek_fd_rel_gap"] = gaps

    def _anchor(self, report):
        """Accuracy on a fixed market, so the figures do not depend on seed."""
        mk = self.ANCHOR
        spec = BasketSpec.single(STRIKE, mk["tau"], mk["r"], mk["q"],
                                 mk["vol"])
        cfg = _dw_cfg(self.m)
        quad, model = [], []
        for mult in (0.8, 1.0, 1.2):
            s = STRIKE * mult
            fft = self._put(s, mk)
            dw = series_pricer.dw_price(s, mk["tau"], spec, cfg)
            true = oracles.binomial_price(s, STRIKE, mk["r"], mk["q"],
                                          mk["vol"], mk["tau"],
                                          steps=self.sizes.binomial_steps,
                                          style=oracles.AMER_PUT)
            quad.append(abs(fft - dw))
            model.append(abs(fft - true))
        report["max_abs_err"] = max(quad)
        report["model_err"] = max(model)
        if report["max_abs_err"] > TOL:
            report["anchor_failed"] = "anchor |fft - dw| above tolerance"


# ---------------------------------------------------------------------------
# basket_book
# ---------------------------------------------------------------------------


def _basket_spec(r, q, vols, rho, tau):
    return BasketSpec(n=2, strike=STRIKE, maturity=tau, rate=r, dividends=q,
                      vols=vols, corr=[[1.0, rho], [rho, 1.0]])


class BasketBook:
    """European 2-asset basket puts at three spots plus three greeks."""

    name = "basket_book"
    GREEKS = (greeks.delta1(1), greeks.delta2(1, 2), greeks.gamma(1))
    ANCHOR = dict(r=0.05, q=(0.02, 0.03), vols=(0.2, 0.3), rho=0.5, tau=0.5,
                  spot=(50.0, 50.0))
    WARMUP = dict(r=0.04, q=(0.01, 0.05), vols=(0.25, 0.35), rho=0.2, tau=0.5,
                  spot=(48.0, 53.0))

    def __init__(self, seed, sizes):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes

    def _quote(self, spec, spot, n, **grid_kw):
        grid = fft_pricer.build_grid(2, n, 1.0, spot, **grid_kw)
        return fft_pricer.price_surface(spec, grid, spec.maturity,
                                        EUROPEAN_PUT).landing_value()

    def _market_quote(self, spec, spot, n, grid_kw, op):
        """A quote as a desk would get it: the library's default grid until
        the library refuses the market's surface, then, for the rest of the
        market, the same N with a wider frequency range.  The refused
        attempt stays in the quote's time and is recorded on the op."""
        if not grid_kw:
            try:
                return self._quote(spec, spot, n)
            except ImagResidualTooLarge as exc:
                op.refused = f"{type(exc).__name__}: {exc}"
                grid_kw["delta_target"] = FALLBACK_DELTA
        return self._quote(spec, spot, n, **grid_kw)

    def _spec(self, mk):
        return _basket_spec(mk["r"], mk["q"], mk["vols"], mk["rho"], mk["tau"])

    def warmup(self):
        self._quote(self._spec(self.WARMUP), self.WARMUP["spot"],
                    self.sizes.basket_n)

    def books(self):
        n = self.sizes.basket_n
        while True:
            rng = self.rng
            rho = rng.uniform(-0.5, 0.9)
            vols = rng.uniform(0.15, 0.45, 2)
            q = rng.uniform(0.0, 0.08, 2)
            r = rng.uniform(0.01, 0.08)
            tau = float(rng.choice(TAUS))
            spots = [50.0 * rng.uniform(0.8, 1.2, 2) for _ in range(3)]
            spec = _basket_spec(r, q, vols, rho, tau)
            grid_kw = {}
            ops = []
            for s in spots:
                op = Op("quote", "basket_put", None, dict(spec=spec, spot=s))
                op.fn = functools.partial(self._market_quote, spec, s, n,
                                          grid_kw, op)
                ops.append(op)
            for kind in self.GREEKS:
                ops.append(Op("greek", kind.name,
                              lambda kind=kind: greeks.greek(
                                  kind, spots[0], tau, spec, size=n),
                              dict(spec=spec, spot=spots[0])))
            yield ops

    def _mc_ok(self, spec, spot, value, paths, seed):
        """Within MC_SE_LIMIT standard errors; a breach is confirmed by an
        independent run with 4x the paths before it counts."""
        mc, se = oracles.mc_basket_euro_put(
            spec, spot, spec.maturity, oracles.McConfig(paths=paths, seed=seed))
        if abs(value - mc) <= MC_SE_LIMIT * se:
            return True, mc, se
        mc, se = oracles.mc_basket_euro_put(
            spec, spot, spec.maturity,
            oracles.McConfig(paths=4 * paths, seed=seed + 1))
        return abs(value - mc) <= MC_SE_LIMIT * se, mc, se

    def check(self, books, report):
        k = 0
        for ops in books:
            for op in ops:
                if op.error:
                    continue
                if not math.isfinite(op.value):
                    op.check_failed = "not finite"
                elif op.kind == "quote":
                    k += 1
                    ok, mc, se = self._mc_ok(op.meta["spec"], op.meta["spot"],
                                             op.value, self.sizes.mc_paths,
                                             2 * (1000 * self.seed + k))
                    if not ok:
                        op.check_failed = (f"fft {op.value:.6g} vs mc {mc:.6g}"
                                           f" +- {se:.2g}")
        self._anchor(report)

    def _anchor(self, report):
        """Accuracy on a fixed market with a fixed MC seed.

        The European basket has no exercise boundary to approximate, so the
        independent reference (MC) measures both errors.
        """
        mk = self.ANCHOR
        spec = self._spec(mk)
        fft = self._quote(spec, mk["spot"], self.sizes.basket_n)
        ok, mc, se = self._mc_ok(spec, mk["spot"], fft,
                                 self.sizes.anchor_mc_paths, 20140316)
        report["max_abs_err"] = report["model_err"] = abs(fft - mc)
        if not ok:
            report["anchor_failed"] = f"anchor fft {fft:.6g} vs mc {mc:.6g}"


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


class Table1:
    """The paper's table, then the strike delta of each grouping's
    at-the-money call (through the put it maps to by put-call symmetry)."""

    name = "table1"
    CELLS = len(table1.GROUPINGS) * len(table1.SPOTS)
    WARMUP = dict(spot=105.0, r=0.05, q=0.05, vol=0.25)

    def __init__(self, seed, sizes):
        self.sizes = sizes

    def warmup(self):
        w = self.WARMUP
        fft_pricer.price_american_call(w["spot"], STRIKE, w["r"], w["q"],
                                       w["vol"], table1.TAU,
                                       size=self.sizes.table_n,
                                       m_steps=self.sizes.table_m)

    def books(self):
        sz = self.sizes
        while True:
            ops = [Op("table", "run_table1",
                      lambda: table1.run_table1(
                          size=sz.table_n, m_steps=sz.table_m,
                          binomial_steps=sz.binomial_steps))]
            for g, (r, q, vol) in sorted(table1.GROUPINGS.items()):
                spec = BasketSpec.single(STRIKE, table1.TAU, q, r, vol)
                ops.append(Op("greek", f"strike_delta_g{g}",
                              lambda spec=spec: greeks.greek(
                                  greeks.delta1(), [STRIKE], table1.TAU, spec,
                                  style=AMERICAN_PUT, size=sz.table_n,
                                  m_steps=sz.table_m)))
            yield ops

    def check(self, books, report):
        for ops in books:
            for op in ops:
                if op.error:
                    continue
                if op.kind == "greek":
                    if not math.isfinite(op.value):
                        op.check_failed = "not finite"
                    continue
                rows, max_dev = op.value
                if max_dev > TOL:
                    op.check_failed = f"max |fft - published| = {max_dev:.3g}"
                report["max_abs_err"] = max_dev
                report["model_err"] = max(abs(r.fft - r.true) for r in rows)


WORKLOADS = {w.name: w for w in (AmerBook, BasketBook, Table1)}


def describe(op):
    """The inputs of an operation, for the run record."""
    meta = op.meta
    if "spec" in meta:
        sp = meta["spec"]
        vec = lambda v: ",".join(f"{float(x):.6g}" for x in v)
        return (f"r={sp.rate:.6g} q={vec(sp.dividends)} vols={vec(sp.vols)} "
                f"rho={sp.corr[0, 1]:.6g} tau={sp.maturity:.6g} "
                f"spot={vec(meta['spot'])}")
    return " ".join(f"{k}={v:.6g}" for k, v in meta.items()
                    if isinstance(v, float))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_loop(wl, seconds, tracer=None, max_books=None):
    """Run whole books until ``seconds`` are spent and one book succeeded.

    Each book starts from an empty boundary cache, so no market is served
    by curves an earlier market (or an earlier copy of the table) solved.
    Each operation gets its machine-speed samples (see speed.py).
    Returns (books, nominal seconds of each complete book, the probe).
    """
    books, book_times = [], []
    t0 = time.perf_counter()
    n_ops = 0
    probe = speed.Probe()
    with probe.installed():
        k_prev = speed.kernel_seconds()
        for ops in wl.books():
            boundary.clear_boundary_cache()
            done = []
            for op in ops:
                if tracer is not None:
                    tracer.op = n_ops
                n_ops += 1
                start = time.perf_counter()
                with probe.sampling():
                    try:
                        op.value = op.fn()
                    except Exception as exc:  # a refused operation is counted
                        op.error = f"{type(exc).__name__}: {exc}"
                op.seconds = time.perf_counter() - start - probe.paused
                k_next = speed.kernel_seconds()
                kernels = [k_prev, *probe.samples, k_next]
                op.kernel = sum(kernels) / len(kernels)
                k_prev = k_next
                done.append(op)
            books.append(done)
            if all(op.ok for op in done):
                book_times.append(sum(op.nominal_seconds for op in done))
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and (book_times
                                       or elapsed >= 2 * seconds + 30):
                break
            if max_books is not None and len(books) >= max_books:
                break
    return books, book_times, probe.pauses


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(samples, q, what):
    if not samples:
        raise RuntimeError(f"no successful {what} in the run")
    return 1e3 * float(np.percentile(samples, q))


def _quote_seconds(ops):
    """Nominal quote times; a table is timed whole and its quotes are its
    cells."""
    return ([op.nominal_seconds for op in ops if op.kind == "quote"]
            + [op.nominal_seconds / Table1.CELLS for op in ops
               if op.kind == "table"])


def end_to_end(books, book_times, report, setup_samples):
    """The user-facing metrics of an untraced run, at nominal speed."""
    every = [op for b in books for op in b]
    ops = [op for op in every if op.ok]
    quotes = _quote_seconds(ops)
    tables = [op.nominal_seconds for op in ops if op.kind == "table"]
    greek_t = [op.nominal_seconds for op in ops if op.kind == "greek"]
    completed = len(ops) + len(tables) * (Table1.CELLS - 1)
    busy = sum(op.nominal_seconds for op in every)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "quote_ms.p50": (_ms(quotes, 50, "quote"), "ms"),
        "quote_ms.p90": (_ms(quotes, 90, "quote"), "ms"),
        "greek_ms.p50": (_ms(greek_t, 50, "greek"), "ms"),
        "ops_per_s": (completed / busy, "1/s"),
        "table_s": (statistics.median(tables or book_times), "s"),
        "max_abs_err": (report["max_abs_err"], "currency"),
        "model_err": (report["model_err"], "currency"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def traced_layers(books, tracer, pauses):
    """Per-layer metrics of a traced run, at nominal speed."""
    ops = [op for b in books for op in b]
    n_tables = sum(op.kind == "table" for op in ops)
    layers = tracing.layer_metrics(
        tracer.spans, len(ops) + n_tables * (Table1.CELLS - 1),
        [op.scale for op in ops], pauses)
    quotes = _quote_seconds([op for op in ops if op.ok])
    layers["trace.quote_ms.p50"] = (_ms(quotes, 50, "quote"), "ms")
    return layers
