"""The premium's time axis, and the American put's critical price on it.

:func:`premium_time_grid` alone makes the premium's time nodes, a frozen
:class:`TimeGrid`, and :func:`boundary_curve` alone makes a
:class:`BoundaryCurve`: that grid, the market's strike-1 critical prices
u_l at its nodes in node order, and the strike K, so node l reads
S*_l = K u_l.  The American pricers take the curve alone, made for a put
by ``fft_pricer.put_boundary``.  This module reads no pricer; the curve's
residual against the exact condition is ``oracles.boundary_residual_cap``.

S* solves a smooth-pasting approximation for an array of calendar times t
in one vectorised bracketed solve, so a cold curve costs one
:func:`critical_price_approx` call.  The solve is a short numpy loop of
Chandrupatla's (1997) method in this module, which does the arithmetic of
``scipy.optimize.elementwise.find_root`` and returns the same floats
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

S* is homogeneous of degree 1 in (S, K), so a curve is solved at K = 1
and serves every strike.  Two bounded least-recently-used caches live
here, keyed on exact inputs and holding read-only arrays: the strike-1
curves of ``fft_pricer.put_boundary`` (:func:`boundary_curve` is the
plain solve) and the strike-free transforms of ``fft_pricer``.
:func:`clear_boundary_cache` empties both and zeroes their counts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NegativeRadicand, NoBracket
from .mellin_core import BasketSpec, check_tau

CRITICAL_PRICE_MODES = ("corrected", "printed", "sigma-squared")


def simpson_weight(j_sum):
    """Composite-Simpson weight alpha = (3 + (-1)^(1+sum j) - delta_0)/3."""
    j_sum = np.asarray(j_sum)
    alpha = (3.0 + -((-1.0) ** j_sum) - (j_sum == 0)) / 3.0
    return alpha if alpha.shape else float(alpha)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """The nodes t_l and weights c_l of the premium's time integral on
    [0, tau], made by :func:`premium_time_grid`; the arrays are read-only.
    """

    tau: float
    t: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for a in (self.t, self.c):
            a.setflags(write=False)

    @property
    def m(self):
        return self.t.shape[0]

    @functools.cached_property
    def key(self):
        """The exact bytes of the nodes and weights, for cache keys."""
        return self.t.tobytes() + self.c.tobytes()

    @property
    def tte(self):
        """The nodes' times to expiry tau - t_l, in node order: for M >= 2
        the uniform nodes reversed, as t_(M-1-l) = tau - t_l; for M = 1,
        whose one node is t = 0, tau."""
        return self.t[::-1] if self.m > 1 else np.full(1, self.tau)


def check_m_steps(m_steps):
    """Raise ``ValueError`` unless M is an integer >= 1."""
    if not (m_steps >= 1 and float(m_steps).is_integer()):
        raise ValueError(f"m_steps must be an integer >= 1, got {m_steps!r}")


def premium_time_grid(m_steps, tau):
    """The premium's M time nodes t_l = l tau/(M-1) (t = 0 alone for
    M = 1) and their composite Simpson weights (:func:`simpson_weight`),
    which include the step size.

    ``ValueError`` for an M that is not an integer >= 1 or a tau that is
    not finite and positive.
    """
    check_m_steps(m_steps)
    check_tau(tau)
    if m_steps == 1:
        return TimeGrid(tau, np.array([0.0]), np.array([tau]))
    dt = tau / (m_steps - 1)
    return TimeGrid(tau, np.arange(m_steps) * dt,
                    simpson_weight(np.arange(m_steps)) * dt)


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
        out[live] = _nearest_roots(spec.strike * root, t, spec, mode)
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
# _chandrupatla times K sat up to 7 ulps from the float of least |G| at K
# (over amer_book's market range, 75,000 nodes)
SOLVED_REACH = 8


def _nearest_roots(s, t, spec: BasketSpec, mode):
    """Each root ``s`` at calendar time ``t`` moved to the float within
    SOLVED_REACH ulps of it with the least |G| at ``spec``'s strike, the
    nearest one on ties: as near as a solve at that strike gets.  One
    vectorised residual over the 2 SOLVED_REACH + 1 floats around each
    root.
    """
    steps = np.arange(-SOLVED_REACH, SOLVED_REACH + 1)
    steps = steps[np.argsort(np.abs(steps), kind="stable")]  # 0, -1, 1, ...
    cand = s + steps[:, None] * np.spacing(s)
    g = np.abs(capf_residual(cand, t, spec, mode))
    return np.take_along_axis(cand, np.argmin(g, axis=0)[None], axis=0)[0]


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """The critical prices S*_l = K u_l at the nodes of a :class:`TimeGrid`.

    ``u`` holds the market's strike-1 critical prices in node order: u_l at
    node l's time to expiry ``grid.tte[l]``, read-only and shared by every
    strike.  Made by :func:`boundary_curve`.
    """

    grid: TimeGrid
    u: np.ndarray
    strike: float

    def __post_init__(self):
        if self.u.shape != (self.grid.m,):
            raise ValueError("one critical price per time node required")
        # min and max, not isfinite and any: this runs on every quote
        if not 0.0 <= self.u.min() <= self.u.max() < math.inf:
            raise ValueError("boundary values must be finite and nonnegative")
        self.u.setflags(write=False)

    @property
    def s_star(self):
        """S*_l = K u_l, in node order."""
        return self.strike * self.u

    def at(self, strike):
        """This curve at ``strike``: the same u."""
        return BoundaryCurve(self.grid, self.u, strike)

    def to_csv(self, fp):
        """Write `t,s_star` rows (t = time to expiry, ascending)."""
        fp.write("t,s_star\n")
        for t, v in zip(self.grid.tte[::-1], self.s_star[::-1]):
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


# fft_pricer.put_boundary's curves, 6 kB at M = 250; amer_book needs two
CURVE_CACHE_SIZE = 8
_curve_cache = _LruCache(CURVE_CACHE_SIZE)
# Strike-free transforms shared by quotes and greeks, one entry each: a
# one-asset strike-1 payoff transform per (market, contour) (0.13 MB at
# N = 2^14); a dict per (market, strike-1 curve, contour) of the premium
# moments, the premium transform, its t-weighted sum and the American
# transform (0.66 MB at N = 2^14); and a basket payoff transform
# per (market, lattice axes) (2.1 MB at N = 2^9).  A market's puts and
# greeks at every spot and strike, and its calls, need four.
MOMENT_CACHE_SIZE = 4
_moment_cache = _LruCache(MOMENT_CACHE_SIZE)


def boundary_curve(spec: BasketSpec, grid: TimeGrid, mode="corrected"):
    """The critical prices of ``spec`` at the times to expiry of the
    premium grid ``grid`` (:class:`BoundaryCurve`).

    The curve holds the market's strike-1 prices u, shared by every
    strike and solved in one :func:`critical_price_approx` call, unmemoised
    (``fft_pricer.put_boundary`` memoises it).  ``ValueError`` for a grid
    longer than the contract.
    """
    if not grid.tau <= spec.maturity + 1e-12:
        raise ValueError("require 0 < tau <= maturity")
    unit = dataclasses.replace(spec, strike=1.0)
    # l * (tau / (M-1)) can exceed tau = maturity by an ulp at l = M-1
    u = critical_price_approx(np.maximum(unit.maturity - grid.tte, 0.0),
                              unit, mode)
    return BoundaryCurve(grid, u, spec.strike)


def clear_boundary_cache():
    """Empty the cache of strike-1 curves and the cache of strike-free
    transforms, and zero their counts."""
    _curve_cache.clear()
    _moment_cache.clear()
