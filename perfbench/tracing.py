"""Spans around the library's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function with a wrapper in every
``mellin_pricer`` namespace that binds it (modules import several of them
by name, and some import at call time from the defining module), records
one span per call in memory, and puts the originals back when the traced
block ends.  Nothing inside the library changes.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs that get a span; the module is the layer.
TRACED = (
    ("boundary", "boundary_curve"),
    ("boundary", "critical_price_approx"),
    ("fft_pricer", "price_put"),
    ("fft_pricer", "price_surface"),
    ("fft_pricer", "premium_transform"),
    ("fft_pricer", "discounted_payoff_transform"),
    ("fft_pricer", "invert_transform_lattice"),
    ("mellin_core", "early_exercise_mellin"),
    ("mellin_core", "multinomial_beta"),
    ("mellin_core", "lgamma_complex"),
    ("greeks", "greek"),
    ("greeks", "greek_multiplier"),
    ("series_pricer", "dw_price"),
    ("oracles", "binomial_price"),
    ("table1", "run_table1"),
)


def _points(name, args, kwargs):
    """Work size of one call, for the layers that report points."""
    if name == "mellin_core.lgamma_complex":
        return getattr(args[0], "size", 1)
    if name == "fft_pricer.invert_transform_lattice":
        return getattr(args[1], "size", 1)
    return 0


def _american(name, args, kwargs):
    """Whether a quote call prices an American option."""
    if name == "fft_pricer.price_put":
        style = args[6] if len(args) > 6 else kwargs.get("style", "american_put")
        return style == "american_put"
    if name == "series_pricer.dw_price":
        style = args[4] if len(args) > 4 else kwargs.get("style", "american_put")
        return style == "american_put"
    return False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    op: int              # index of the benchmark operation that caused it
    points: int = 0
    american: bool = False
    raised: bool = False


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op: int = -1
    _stack: list = field(default_factory=list)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.op,
                        _points(name, args, kwargs),
                        _american(name, args, kwargs))
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        wrapper.__traced__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every namespace binding a traced function; restore on exit."""
        patched = []
        try:
            for module, func in TRACED:
                orig = getattr(sys.modules[f"mellin_pricer.{module}"], func)
                wrapper = self._wrap(f"{module}.{func}", orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "mellin_pricer" and not mod_name.startswith(
                            "mellin_pricer."):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)
            assert_untraced()


def assert_untraced():
    """Raise if any library namespace still holds a tracing wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mellin_pricer" or mod_name.startswith("mellin_pricer."):
            for attr, val in vars(mod).items():
                if getattr(val, "__traced__", False):
                    raise RuntimeError(f"{mod_name}.{attr} is still wrapped")


def durations(spans, pauses=()):
    """Span durations without the machine-speed samples taken inside them.

    ``pauses`` are disjoint, time-ordered (start, end) intervals; each lies
    wholly inside or wholly outside any span.
    """
    starts = [a for a, _ in pauses]
    before = list(itertools.accumulate((b - a for a, b in pauses), initial=0.0))
    out = []
    for s in spans:
        lo = bisect.bisect_left(starts, s.start)
        hi = bisect.bisect_left(starts, s.end)
        out.append(s.end - s.start - (before[hi] - before[lo]))
    return out


def self_times(spans, pauses=()):
    """Per-span duration minus the time covered by its direct children.

    Calls are sequential on one thread, so children never overlap.
    """
    dur = durations(spans, pauses)
    own = list(dur)
    for s, d in zip(spans, dur):
        if s.parent >= 0:
            own[s.parent] -= d
    return own, dur


def layer_metrics(spans, n_ops, scales, pauses):
    """Per-operation layer figures from one traced run.

    Times are ms per operation and counts are per operation, so runs that
    fit a different number of operations into their time compare directly.
    ``scales[i]`` converts operation i's wall time to nominal speed.
    """
    n = max(n_ops, 1)
    own, dur = self_times(spans, pauses)
    total = {}
    self_total = {}
    calls = {}
    points = {}
    for s, o, d in zip(spans, own, dur):
        k = scales[s.op]
        total[s.name] = total.get(s.name, 0.0) + d * k
        self_total[s.name] = self_total.get(s.name, 0.0) + o * k
        calls[s.name] = calls.get(s.name, 0) + 1
        points[s.name] = points.get(s.name, 0) + s.points

    def ms(name):
        return 1e3 * total.get(name, 0.0) / n

    def self_ms(name):
        return 1e3 * self_total.get(name, 0.0) / n

    def per_op(table, name):
        return table.get(name, 0) / n

    refused = sum(1 for s in spans
                  if s.name == "fft_pricer.price_surface" and s.raised)

    # boundary_curve calls that solved nothing were served by the cache
    solving = {s.parent for s in spans
               if s.name == "boundary.critical_price_approx"}
    curves = [i for i, s in enumerate(spans)
              if s.name == "boundary.boundary_curve"]
    hits = sum(1 for i in curves if i not in solving)

    # premium transforms made on behalf of an American quote, per quote
    quotes = {i for i, s in enumerate(spans) if s.american}
    under_quote = 0
    for s in spans:
        if s.name != "fft_pricer.premium_transform":
            continue
        p = s.parent
        while p >= 0 and p not in quotes:
            p = spans[p].parent
        under_quote += p >= 0

    return {
        "fft_pricer.premium_transform.self_ms":
            (self_ms("fft_pricer.premium_transform"), "ms/op"),
        "fft_pricer.premium_transform.calls":
            (per_op(calls, "fft_pricer.premium_transform"), "calls/op"),
        "fft_pricer.premium_transforms_per_quote":
            (under_quote / len(quotes) if quotes else 0.0, "ratio"),
        "mellin_core.early_exercise_mellin.calls":
            (per_op(calls, "mellin_core.early_exercise_mellin"), "calls/op"),
        "mellin_core.early_exercise_mellin.self_ms":
            (self_ms("mellin_core.early_exercise_mellin"), "ms/op"),
        "greeks.greek.self_ms": (self_ms("greeks.greek"), "ms/op"),
        "greeks.greek_multiplier.calls":
            (per_op(calls, "greeks.greek_multiplier"), "calls/op"),
        "boundary.boundary_curve.ms": (ms("boundary.boundary_curve"), "ms/op"),
        "boundary.critical_price_approx.calls":
            (per_op(calls, "boundary.critical_price_approx"), "calls/op"),
        "boundary.cache_hit_ratio":
            (hits / len(curves) if curves else 0.0, "ratio"),
        "mellin_core.multinomial_beta.self_ms":
            (self_ms("mellin_core.multinomial_beta"), "ms/op"),
        "mellin_core.lgamma_complex.ms":
            (ms("mellin_core.lgamma_complex"), "ms/op"),
        "mellin_core.lgamma_complex.points":
            (per_op(points, "mellin_core.lgamma_complex"), "points/op"),
        "fft_pricer.discounted_payoff_transform.self_ms":
            (self_ms("fft_pricer.discounted_payoff_transform"), "ms/op"),
        "fft_pricer.invert_transform_lattice.ms":
            (ms("fft_pricer.invert_transform_lattice"), "ms/op"),
        "fft_pricer.invert_transform_lattice.points":
            (per_op(points, "fft_pricer.invert_transform_lattice"),
             "points/op"),
        "fft_pricer.price_surface.self_ms":
            (self_ms("fft_pricer.price_surface"), "ms/op"),
        "fft_pricer.price_surface.refused": (refused / n, "calls/op"),
        "fft_pricer.price_put.self_ms":
            (self_ms("fft_pricer.price_put"), "ms/op"),
        "series_pricer.dw_price.ms": (ms("series_pricer.dw_price"), "ms/op"),
        "oracles.binomial_price.ms": (ms("oracles.binomial_price"), "ms/op"),
    }


def span_records(spans):
    """Plain rows for writing the spans out after the run."""
    return [[s.name, s.start, s.end, s.parent, s.op, s.points, s.raised]
            for s in spans]
