"""American put critical asset price via an implicit approximation.

The boundary S*(t) solves a smooth-pasting approximation for an array of
calendar times t in one vectorised bracketed solve, so a cold curve costs
one :func:`critical_price_approx` call.  Three formula modes are available:

``corrected`` (default)
    delta = (sigma/2 + (q-r)/sigma)^2 + 2r and the denominator carries
    exp(-q (T-t)).  With these two amendments the formula is exactly what a
    constant-boundary smooth-pasting derivation produces (delta - 2q then
    equals (sigma/2 - (q-r)/sigma)^2, a perfect square, so the radicands
    are always valid), and it reproduces the reference benchmark table.
``printed``
    delta = sigma/2 + (q-r)/sigma + 2r and exp(+q (T-t)), kept verbatim for
    comparison; raises NegativeRadicand where its radicands go negative.
``sigma-squared``
    delta = sigma^2/2 + (q-r)/sigma + 2r and exp(+q (T-t)); same guards.

The critical price is homogeneous of degree 1 in (S, K): the residual,
the bracket, the root tolerance and the expiry limit all scale with the
strike.  So every solve runs at K = 1, and a curve at strike K is K times
its market's unit curve, solved once; the five calls of one market, which
put-call symmetry maps to five strikes, share one solve.  Both the
strike-free curves and the scaled ones are cached per rounded parameter
tuple in bounded least-recently-used caches of CACHE_SIZE entries each;
cached curves are immutable and shared, so repeated requests are
bit-identical.  A third cache, of MOMENT_CACHE_SIZE entries, holds the
transforms that a position's quote and greeks share, each keyed on the
exact bytes of its inputs, not on the rounded tuple.  The premium
moments that ``fft_pricer.premium_moments`` computes from a curve (0.5 MB
for an N = 2^14 greek) let the greeks of one position share one premium
pass.  The basket payoff transforms that
``fft_pricer.discounted_payoff_transform`` computes on a lattice (about
2.1 MB for a two-asset N = 2^9 half lattice) let a basket quote and the
greeks at its spot share one transform.  :func:`clear_boundary_cache`
empties all three; each counts its hits and misses.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize.elementwise import find_root
from scipy.special import ndtr

from .errors import NegativeRadicand, NoBracket
from .mellin_core import BasketSpec

CRITICAL_PRICE_MODES = ("corrected", "printed", "sigma-squared")


def _capf_terms(strike, r, q, sigma, tte, mode):
    """Terms of the critical-price equation free of S, shaped like tte."""
    if mode == "corrected":
        delta = (sigma / 2.0 + (q - r) / sigma) ** 2 + 2.0 * r
        exp_sign = -1.0
    elif mode == "printed":
        delta = sigma / 2.0 + (q - r) / sigma + 2.0 * r
        exp_sign = +1.0
    elif mode == "sigma-squared":
        delta = sigma**2 / 2.0 + (q - r) / sigma + 2.0 * r
        exp_sign = +1.0
    else:
        raise ValueError(f"unknown critical-price mode {mode!r}")
    if delta < 0.0:
        raise NegativeRadicand(f"delta = {delta} < 0 (mode={mode})")
    rad = delta - 2.0 * q
    if rad < 0.0:
        if mode == "corrected" and rad > -1e-13:
            rad = 0.0  # exact perfect square, rounding only
        else:
            raise NegativeRadicand(f"delta - 2q = {rad} < 0 (mode={mode})")
    sq_delta = math.sqrt(delta)
    two_n_minus_1 = 2.0 * ndtr(np.sqrt(delta * tte)) - 1.0
    b1 = math.sqrt(rad)
    omega = (2.0 * q + sigma * b1) / (2.0 * sigma * sq_delta) * two_n_minus_1
    n_b1 = ndtr(b1 * np.sqrt(tte))
    numer = strike * r / (sigma * sq_delta) * two_n_minus_1
    exp_q = np.exp(exp_sign * q * tte)
    return numer, exp_q, n_b1, omega


def _capf_denominator(s, t, spec, mode):
    tte = spec.maturity - np.asarray(t, dtype=float)
    if np.any(tte <= 0):
        raise ValueError("requires t < maturity")
    r, q, sigma = spec.rate, float(spec.dividends[0]), float(spec.vols[0])
    numer, exp_q, n_b1, omega = _capf_terms(spec.strike, r, q, sigma, tte, mode)
    kappa = ((np.log(s / spec.strike) + (r - q + sigma**2 / 2.0) * tte)
             / (sigma * np.sqrt(tte)))
    den = exp_q * (ndtr(kappa) - n_b1) + omega + 0.5
    return numer, den


def capf_residual(s, t, spec: BasketSpec, mode="corrected"):
    """G(s) = s - RHS(s) of the critical-price equation at calendar time t.

    ``s`` and ``t`` broadcast against each other.  Where the denominator
    underflows to 0 (deep below the root for q = 0) the residual is -inf.
    """
    if spec.n != 1:
        raise ValueError("critical price approximation is single-asset only")
    numer, den = _capf_denominator(s, t, spec, mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(den == 0.0, np.where(numer > 0, -np.inf, s),
                     s - numer / den)
    return float(g) if g.ndim == 0 else g


def critical_price_approx(t, spec: BasketSpec, mode="corrected"):
    """Critical asset price S*(t) of the American put, single asset.

    ``t`` is a calendar time or an array of them; the prices come back in
    its shape (a float for a scalar ``t``).  All times are solved in one
    vectorised bracketed solve (Chandrupatla's method,
    ``scipy.optimize.elementwise.find_root``), so a cold boundary curve is
    one call.  S* is homogeneous of degree 1 in (S, K), so G(S*) = 0 is
    solved at strike 1 on [1e-6, 1], the upper end widened to 2 at times
    with no sign change there, and the roots are scaled by K.  Converged
    roots satisfy |G| < 1e-10 K, else ``NoBracket``.

    Limits: at t = T the root degenerates to K min(1, r/q) (K when q = 0);
    for r = 0 early exercise is never optimal and 0 is returned.
    """
    if spec.n != 1:
        raise ValueError("critical price approximation is single-asset only")
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t <= spec.maturity)):
        raise ValueError("require 0 <= t <= maturity")
    r, q = spec.rate, float(spec.dividends[0])
    out = np.full(t.shape, min(1.0, r / q) if q > 0 else 1.0)
    live = spec.maturity - t > 0.0
    if r == 0.0:
        out[...] = 0.0
    elif np.any(live):
        unit = dataclasses.replace(spec, strike=1.0)

        # Solve the singularity-free rescaling s*den(s) - num = 0 (same
        # root; the raw G(s) = s - num/den has a 1/den blow-up deep below
        # the root when q = 0), then check convergence on G itself.
        def f(s, t):
            numer, den = _capf_denominator(s, t, unit, mode)
            return s * den - numer

        t = t[live]
        lo, hi = np.full(t.shape, 1e-6), np.ones(t.shape)
        f_lo = f(lo, t)
        hi[f_lo * f(hi, t) > 0] = 2.0
        bad = f_lo * f(hi, t) > 0
        if np.any(bad):
            raise NoBracket(f"no sign change on [{1e-6 * spec.strike}, "
                            f"{2.0 * spec.strike}] at t={t[bad][0]} "
                            f"(mode={mode})")
        root = find_root(f, (lo, hi), args=(t,)).x
        resid = np.max(np.abs(capf_residual(root, t, unit, mode)))
        if not resid <= 1e-10:
            raise NoBracket(f"root did not converge: |G| = {resid} K")
        out[live] = root
    out *= spec.strike
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoundaryCurve:
    """Critical prices sampled on the pricer's time grid.

    ``times`` are times to expiry theta_l = l*tau/(M-1), ascending, and
    ``values[l]`` = S* at time-to-expiry ``times[l]`` (i.e. at calendar time
    T - times[l]).  The premium integrand at pricer time t_l reads the value
    for time-to-expiry tau - t_l through :meth:`at_tte`.
    """

    times: np.ndarray
    values: np.ndarray
    spec_hash: tuple

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times/values length mismatch")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("boundary values must be finite and nonnegative")

    @property
    def m(self):
        return self.times.shape[0]

    def at_tte(self, theta):
        """Value at time-to-expiry theta, which must lie on the grid.

        ``theta`` may be an array; the values then come back in its shape.
        """
        theta = np.asarray(theta, dtype=float)
        span = self.times[-1]
        idx = (np.rint(theta / span * (self.m - 1)).astype(int) if span > 0
               else np.zeros(theta.shape, dtype=int))
        if (np.any((idx < 0) | (idx >= self.m))
                or np.any(np.abs(self.times[idx] - theta) > 1e-9)):
            raise KeyError(f"time-to-expiry {theta} not on the boundary grid")
        values = self.values[idx]
        return float(values) if values.ndim == 0 else values

    def to_csv(self, fp):
        """Write `t,s_star` rows (t = time to expiry, ascending)."""
        fp.write("t,s_star\n")
        for t, v in zip(self.times, self.values):
            fp.write(f"{t:.12g},{v:.12g}\n")


class _LruCache:
    """A bounded map that evicts its least recently used entry; thread-safe.

    ``hits`` and ``misses`` count the lookups since the last :meth:`clear`.
    """

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = 0

    def __len__(self):
        with self._lock:
            return len(self._data)

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def add(self, key, value):
        """Store ``value`` unless ``key`` is held already; return the held one."""
        with self._lock:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value

    def clear(self):
        with self._lock:
            self._data.clear()
            self.hits = self.misses = 0


CACHE_SIZE = 256  # curves per cache; an M = 250 curve holds 4 kB of arrays
_curve_cache = _LruCache(CACHE_SIZE)
_unit_cache = _LruCache(CACHE_SIZE)
# premium moments per (market, curve, contour), filled by
# fft_pricer.premium_moments (an N = 2^14 greek entry holds 0.5 MB), and
# basket payoff transforms per (market, lattice axes), filled by
# fft_pricer.discounted_payoff_transform (an N = 2^9 two-asset half
# lattice holds about 2.1 MB); the quote or greeks of one position need
# one entry
MOMENT_CACHE_SIZE = 2
_moment_cache = _LruCache(MOMENT_CACHE_SIZE)


def _unit_curve(spec: BasketSpec, m_steps, tau, mode):
    """The boundary curve of ``spec`` at strike 1, solved once per market.

    Samples S* at times-to-expiry l*tau/(M-1), l = 0..M-1.
    """
    unit = dataclasses.replace(spec, strike=1.0)
    key = unit.param_key(extra=(int(m_steps), round(float(tau), 12), mode))
    hit = _unit_cache.get(key)
    if hit is not None:
        return hit
    if m_steps == 1:
        tte = np.array([tau])
    else:
        tte = np.arange(m_steps) * (tau / (m_steps - 1))
    # l * (tau / (M-1)) can exceed tau = maturity by an ulp at l = M-1
    values = critical_price_approx(np.maximum(unit.maturity - tte, 0.0),
                                   unit, mode)
    tte.setflags(write=False)
    values.setflags(write=False)
    return _unit_cache.add(key, BoundaryCurve(times=tte, values=values,
                                              spec_hash=key))


def boundary_curve(spec: BasketSpec, m_steps, tau, mode="corrected"):
    """Critical prices on the M-point time grid, cached per parameter tuple.

    Samples S* at times-to-expiry l*tau/(M-1), l = 0..M-1.  The critical
    price is homogeneous of degree 1 in (S, K), so the curve is K times
    the strike-1 curve of the same market, which is solved once and
    shared by every strike.  Two calls with identical (rounded) parameters
    return the same immutable curve object.
    """
    if m_steps < 1:
        raise ValueError("m_steps must be >= 1")
    if not 0 < tau <= spec.maturity + 1e-12:
        raise ValueError("require 0 < tau <= maturity")
    key = spec.param_key(extra=(int(m_steps), round(float(tau), 12), mode))
    hit = _curve_cache.get(key)
    if hit is not None:
        return hit
    unit = _unit_curve(spec, m_steps, tau, mode)
    values = spec.strike * unit.values
    values.setflags(write=False)
    return _curve_cache.add(key, BoundaryCurve(times=unit.times, values=values,
                                               spec_hash=key))


def clear_boundary_cache():
    """Empty the per-strike and strike-1 curve caches and the cache of
    premium moments and basket payoff transforms, and zero their counts."""
    _curve_cache.clear()
    _unit_cache.clear()
    _moment_cache.clear()


def boundary_residual_cap(curve: BoundaryCurve, t, spec: BasketSpec, grid,
                          mode="corrected"):
    """Residual of the exact free-boundary condition at calendar time t.

    Evaluates K - S*(t) - [European term - premium term] with both Mellin
    inversions computed by the pricer's truncated trapezoid sum at the
    single point S = S*(t) (no FFT).  A diagnostic of how well the
    approximate boundary satisfies the exact smooth-pasted condition; not a
    solver.  Single-asset only.
    """
    if spec.n != 1:
        raise ValueError("residual diagnostic is single-asset only")
    # local import: fft_pricer depends on this module
    from .fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, contour_sum,
                             put_boundary, put_transform)

    tte = spec.maturity - t
    s_star = curve.at_tte(tte)
    if s_star <= 0.0:
        return spec.strike - 0.0  # empty exercise region, r = 0 limit
    style = AMERICAN_PUT if tte > 0 else EUROPEAN_PUT  # no premium at expiry
    w = (grid.strip_a[0] + 1j * grid.frequencies(0))[:, None]
    values = put_transform(w, spec, tte, style,
                           put_boundary(style, spec, curve.m, tte, mode))
    put = contour_sum(values, w, grid.deltas[0] / (2.0 * math.pi), [s_star])
    return spec.strike - s_star - put
