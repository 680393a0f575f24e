"""American put critical asset price via an implicit approximation.

The boundary S*(t) solves a smooth-pasting approximation for an array of
calendar times t in one vectorised bracketed solve, so a cold curve costs
one :func:`critical_price_approx` call.  The solve is a short numpy loop
of Chandrupatla's (1997) method in this module, which does the arithmetic
of ``scipy.optimize.elementwise.find_root`` and returns the same floats
without its per-iteration overhead; the terms of the equation that are
free of S are computed once per solve, not once per iteration.  Three
formula modes are available:

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
its market's unit curve, solved once, with each root then moved by a few
ulps to the float of least residual at K; the five calls of one market,
which put-call symmetry maps to five strikes, share one solve.  Both the
strike-free curves and the scaled ones are cached per rounded parameter
tuple in bounded least-recently-used caches of CACHE_SIZE entries each;
cached curves are immutable and shared, so repeated requests are
bit-identical, and each scaled curve carries its strike-free one.  A third
cache, of MOMENT_CACHE_SIZE entries, holds the transforms that several
quotes and greeks share, each keyed on its exact inputs, not
on the rounded tuple.  ``fft_pricer.premium_moments`` computes the premium
moments from the strike-free curve (0.5 MB for an N = 2^14 greek) and
keys them on the market, that curve and the contour, with no strike: the
greeks of one position share one premium pass, and so do the five calls
of one market, which are five strikes on one contour.  The basket payoff
transforms that ``fft_pricer.discounted_payoff_transform`` computes on a
lattice (about 2.1 MB for a two-asset N = 2^9 half lattice) let a basket
quote and the greeks at its spot share one transform.
:func:`clear_boundary_cache` empties all three; each counts its hits and
misses.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
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


def _capf_s_free(t, spec, mode):
    """Every term of the equation at calendar times t that is free of S:
    those of :func:`_capf_terms`, then the drift and the volatility of
    kappa over the time to expiry."""
    tte = spec.maturity - np.asarray(t, dtype=float)
    if np.any(tte <= 0):
        raise ValueError("requires t < maturity")
    r, q, sigma = spec.rate, float(spec.dividends[0]), float(spec.vols[0])
    return (*_capf_terms(spec.strike, r, q, sigma, tte, mode),
            (r - q + sigma**2 / 2.0) * tte, sigma * np.sqrt(tte))


def _capf_den(moneyness, numer, exp_q, n_b1, omega, drift, vol):
    """The denominator at S/K = ``moneyness``, given the S-free terms."""
    with np.errstate(divide="ignore"):  # s = 0: kappa = -inf, N(kappa) = 0
        log_s = np.log(moneyness)
    kappa = (log_s + drift) / vol
    return exp_q * (ndtr(kappa) - n_b1) + omega + 0.5


def _capf_denominator(s, t, spec, mode):
    terms = _capf_s_free(t, spec, mode)
    return terms[0], _capf_den(s / spec.strike, *terms)


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
    vectorised bracketed solve, so a cold boundary curve is one call: a
    loop of Chandrupatla's method (:func:`_chandrupatla`, the arithmetic
    of ``scipy.optimize.elementwise.find_root``) with the S-free terms of
    the equation computed once.  S* is homogeneous of degree 1 in (S, K),
    so G(S*) = 0 is solved at strike 1 on [1e-6, 1], the upper end widened
    to 2 at times with no sign change there, then the lower end widened to
    the least normal float (``LOWEST_ROOT``) at times with still none: a
    tiny positive rate puts the root near K r/q.  The roots are scaled by
    K and moved to the float near them with the least |G| at K
    (:func:`_nearest_roots`).  Converged roots satisfy |G| < 1e-10 K, else
    ``NoBracket``, which also reports an element the loop returned as NaN;
    a root below K times the least normal float (r of a few denormals) has
    no bracket.

    Limits: at t = T the root degenerates to K min(1, r/q) (K when q = 0);
    for r = 0 early exercise is never optimal and 0 is returned.
    """
    if spec.n != 1:
        raise ValueError("critical price approximation is single-asset only")
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t <= spec.maturity)):
        raise ValueError("require 0 <= t <= maturity")
    r, q = spec.rate, float(spec.dividends[0])
    out = np.full(t.shape, spec.strike * (min(1.0, r / q) if q > 0 else 1.0))
    live = spec.maturity - t > 0.0
    if r == 0.0:
        out[...] = 0.0
    elif np.any(live):
        unit = dataclasses.replace(spec, strike=1.0)
        t = t[live]
        terms = _capf_s_free(t, unit, mode)

        # Solve the singularity-free rescaling s*den(s) - num = 0 (same
        # root; the raw G(s) = s - num/den has a 1/den blow-up deep below
        # the root when q = 0), then check convergence on G itself.
        def f(s, *terms):
            return s * _capf_den(s, *terms) - terms[0]

        lo, hi = np.full(t.shape, 1e-6), np.ones(t.shape)
        f_lo = f(lo, *terms)
        hi[f_lo * f(hi, *terms) > 0] = 2.0
        f_hi = f(hi, *terms)
        lo[f_lo * f_hi > 0] = LOWEST_ROOT
        f_lo = f(lo, *terms)
        bad = f_lo * f_hi > 0
        if np.any(bad):
            raise NoBracket(f"no sign change on [{lo[bad][0] * spec.strike}, "
                            f"{2.0 * spec.strike}] at t={t[bad][0]} "
                            f"(mode={mode})")
        root = _chandrupatla(f, lo, hi, f_lo, f_hi, terms)
        resid = np.max(np.abs(capf_residual(root, t, unit, mode)))
        if not resid <= 1e-10:
            raise NoBracket(f"root did not converge: |G| = {resid} K")
        out[live] = _nearest_roots(spec.strike * root, t, spec, mode,
                                   SOLVED_REACH)
    return float(out) if out.ndim == 0 else out


# lower end of the bracket at strike 1 where [1e-6, 2] holds no sign
# change: a tiny positive rate puts the root near r/q, below 1e-6
LOWEST_ROOT = float(np.finfo(float).tiny)

# Chandrupatla's tolerances for doubles (xatol = 4 tiny, xrtol = 4 eps,
# fatol = tiny) and its iteration cap, the number of bisections from the
# largest double down to tiny (2046): the LOWEST_ROOT bracket needs them
_EPS, _TINY = float(np.finfo(float).eps), LOWEST_ROOT
_MAXITER = int(math.log2(np.finfo(float).max) - math.log2(_TINY))


def _chandrupatla(f, x1, x2, f1, f2, args):
    """Roots of the elementwise ``f(x, *args)`` in the brackets [x1, x2],
    where f takes the values f1 and f2, by Chandrupatla's (1997) hybrid of
    inverse quadratic interpolation and bisection.

    The arithmetic, tolerances and iteration cap are those of
    ``scipy.optimize.elementwise.find_root``, so the roots are the same
    floats.  An element leaves the working arrays, ``args`` included, once
    it stops; one whose bracket lost its sign change, or whose ends are not
    finite or both give NaN, comes back NaN.
    """
    root = np.empty_like(x1)
    active, t = np.arange(x1.size), 0.5
    for nit in range(_MAXITER + 1):
        if nit:
            x = x1 + t * (x2 - x1)
            fx = f(x, *args)
            j = np.sign(fx) == np.sign(f1)
            x3, f3 = np.where(j, x1, x2), np.where(j, f1, f2)
            x2, f2 = np.where(j, x2, x1), np.where(j, f2, f1)
            x1, f1 = x, fx
        i = np.abs(f1) < np.abs(f2)
        xmin = np.where(i, x1, x2)
        conv = np.abs(np.where(i, f1, f2)) <= _TINY
        fail = ~conv & ((np.sign(f1) == np.sign(f2))
                        | ~(np.isfinite(x1) & np.isfinite(x2))
                        | (np.isnan(f1) & np.isnan(f2)))
        xmin[fail] = np.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * (4 * _EPS) + 4 * _TINY
        stop = conv | fail | (dx < tol) | (nit == _MAXITER)
        root[active[stop]] = xmin[stop]
        keep = ~stop
        if not keep.any():
            return root
        active, x1, x2, f1, f2 = (a[keep] for a in (active, x1, x2, f1, f2))
        args = tuple(a[keep] for a in args)
        if nit:  # the next step: interpolate where it is safe, else bisect
            x3, f3, dx, tol = x3[keep], f3[keep], dx[keep], tol[keep]
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(j, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)


# ulps searched on either side of a root: the strike-1 roots of
# _chandrupatla times K sat up to 7 ulps from the float of least |G| at K,
# and K times those floats up to 3 (over amer_book's market range, 75,000
# nodes each)
SOLVED_REACH = 8
SCALED_REACH = 4


def _nearest_roots(s, t, spec: BasketSpec, mode, reach):
    """Each root ``s`` at calendar time ``t`` moved to the float within
    ``reach`` ulps of it with the least |G| at ``spec``'s strike, the
    nearest one on ties: as near as a solve at that strike gets.  One
    vectorised residual over the 2 reach + 1 floats around each root.
    """
    steps = np.arange(-reach, reach + 1)
    steps = steps[np.argsort(np.abs(steps), kind="stable")]  # 0, -1, 1, ...
    cand = s + steps[:, None] * np.spacing(s)
    g = np.abs(capf_residual(cand, t, spec, mode))
    return np.take_along_axis(cand, np.argmin(g, axis=0)[None], axis=0)[0]


@dataclass(frozen=True)
class BoundaryCurve:
    """Critical prices sampled on the pricer's time grid.

    ``times`` are times to expiry theta_l = l*tau/(M-1), ascending, and
    ``values[l]`` = S* at time-to-expiry ``times[l]`` (i.e. at calendar time
    T - times[l]).  The premium integrand at pricer time t_l reads the value
    for time-to-expiry tau - t_l through :meth:`at_tte`.  ``unit`` is the
    strike-1 curve of the same market that :func:`boundary_curve` scaled
    to make ``values``; curves made by hand carry none.
    """

    times: np.ndarray
    values: np.ndarray
    spec_hash: tuple
    unit: BoundaryCurve | None = None

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
# premium moments per (market, strike-1 curve, contour), filled by
# fft_pricer.premium_moments (an N = 2^14 greek entry holds 0.5 MB), and
# basket payoff transforms per (market, lattice axes), filled by
# fft_pricer.discounted_payoff_transform (an N = 2^9 two-asset half
# lattice holds about 2.1 MB); the quote or greeks of one position, or
# the calls of one market, need one entry
MOMENT_CACHE_SIZE = 2
_moment_cache = _LruCache(MOMENT_CACHE_SIZE)


def _unit_curve(spec: BasketSpec, m_steps, tau, mode):
    """The boundary curve of ``spec`` at strike 1, solved once per market.

    Samples S* at times-to-expiry l*tau/(M-1), l = 0..M-1.
    """
    unit = dataclasses.replace(spec, strike=1.0)
    key = unit.param_key(extra=(int(m_steps), float(tau), mode))
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
    the strike-1 curve of the same market, which is solved once, shared
    by every strike and attached as the curve's ``unit``; each scaled root
    is then moved to the float near it with the least |G| at K.  Both
    caches key a market on the exact bytes of its parameters
    (:meth:`BasketSpec.param_key`), M, tau and ``mode``: two calls with
    identical parameters return the same immutable curve object, and
    markets that differ in any bit do not share one.
    """
    if m_steps < 1:
        raise ValueError("m_steps must be >= 1")
    if not 0 < tau <= spec.maturity + 1e-12:
        raise ValueError("require 0 < tau <= maturity")
    key = spec.param_key(extra=(int(m_steps), float(tau), mode))
    hit = _curve_cache.get(key)
    if hit is not None:
        return hit
    unit = _unit_curve(spec, m_steps, tau, mode)
    values = spec.strike * unit.values
    t = np.maximum(spec.maturity - unit.times, 0.0)
    live = (spec.maturity - t > 0.0) & (values > 0.0)
    if spec.strike != 1.0 and np.any(live):
        values[live] = _nearest_roots(values[live], t[live], spec, mode,
                                      SCALED_REACH)
    values.setflags(write=False)
    return _curve_cache.add(key, BoundaryCurve(times=unit.times, values=values,
                                               spec_hash=key, unit=unit))


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
    axes = grid.axes[:1]
    values = put_transform(axes, spec, tte, style,
                           put_boundary(style, spec, curve.m, tte, mode))
    put = contour_sum(values, axes, axes[0].h / (2.0 * math.pi), [s_star])
    return spec.strike - s_star - put
