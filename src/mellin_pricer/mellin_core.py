"""Contract data types and closed-form Mellin transforms for basket puts.

Holds the market/contract containers, the characteristic exponent of
correlated arithmetic Brownian motion, complex log-gamma on the right
half-plane (``scipy.special.loggamma`` behind a pole check), and the
closed-form transforms of the basket put payoff and of the early-exercise
function.  :func:`multinomial_beta` and :func:`payoff_mellin` evaluate
pointwise; the FFT pricer factors the same transform along the lattice
axes, and the tests compare the two.  Everything here is a pure function
of its inputs; instances are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .errors import NonFiniteSpot, PoleError

# Eigenvalue floor used when validating user-supplied correlation matrices.
# Slightly negative eigenvalues from rounding are tolerated and clipped to 0.
PSD_EIGENVALUE_FLOOR = -1e-10


# ---------------------------------------------------------------------------
# complex log-gamma
# ---------------------------------------------------------------------------


def lgamma_complex(z):
    """Log-gamma for complex ``z`` with Re(z) > 0.

    ``scipy.special.loggamma`` restricted to the right half-plane, which
    covers the strip of convergence used throughout (Re(w) > 0); points
    with Re(z) <= 0 raise :class:`PoleError` instead of reaching the poles
    at the non-positive integers.  All downstream gamma ratios
    exponentiate sums and differences of these values, so large |Im(z)|
    never overflows.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0.0):
        raise PoleError("lgamma_complex requires Re(z) > 0")
    out = loggamma(z)
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _as_readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


_FLOAT64 = np.dtype(float)


def _field_values(spec, name, ndmin):
    """(array, its floats): the field as a private read-only float64 array."""
    a = getattr(spec, name)
    if not (type(a) is np.ndarray and a.dtype is _FLOAT64
            and a.ndim >= ndmin and a.base is None and not a.flags.writeable):
        a = np.array(a, dtype=float, ndmin=ndmin)
        a.setflags(write=False)
        object.__setattr__(spec, name, a)
    values = a.ravel().tolist()
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    return a, values


_UNIT_CORR = _as_readonly([[1.0]])  # every one-asset spec's correlation


@dataclass(frozen=True)
class BasketSpec:
    """Contract and market parameters of an n-asset basket option.

    Attributes
    ----------
    n : number of underlying assets (>= 1)
    strike : exercise price K > 0, currency
    maturity : T > 0, years
    rate : risk-free rate r >= 0, per year
    dividends : continuous dividend rates, one per asset, each >= 0
    vols : volatilities, one per asset, each > 0
    corr : n x n correlation matrix (symmetric, unit diagonal, PSD)
    """

    n: int
    strike: float
    maturity: float
    rate: float
    dividends: np.ndarray
    vols: np.ndarray
    corr: np.ndarray

    def __post_init__(self):
        """Every check once, on floats; |x - y| <= 1e-12 + 1e-5 |y| is
        ``np.allclose``'s.  Symmetry and PSD hold for any 1 x 1 corr."""
        n = self.n
        if n < 1:
            raise ValueError("asset count n must be >= 1")
        if not math.isfinite(self.strike):
            raise ValueError("strike must be finite")
        if not math.isfinite(self.maturity):
            raise ValueError("maturity must be finite")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        q, qv = _field_values(self, "dividends", 1)
        s, sv = _field_values(self, "vols", 1)
        c, cv = _field_values(self, "corr", 2)  # c_ij is cv[i n + j]
        if not self.strike > 0:
            raise ValueError("strike must be positive")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if q.shape != (n,):
            raise ValueError(f"dividends must have length n={n}")
        if s.shape != (n,):
            raise ValueError(f"vols must have length n={n}")
        if c.shape != (n, n):
            raise ValueError(f"corr must be {n}x{n}")
        if min(qv) < 0:
            raise ValueError("dividend rates must be nonnegative")
        if min(sv) <= 0:
            # zero vol breaks the integrand decay and the k1/k2 reduction
            raise ValueError("volatilities must be strictly positive")
        for i in range(n if n > 1 else 0):  # row i of c and of c.T
            for x, y in zip(cv[i * n:(i + 1) * n], cv[i::n]):
                if not abs(x - y) <= 1e-12 + 1e-5 * abs(y):
                    raise ValueError("corr must be symmetric")
        for d in cv[::n + 1]:
            if not abs(d - 1.0) <= 1e-12 + 1e-5:
                raise ValueError("corr must have unit diagonal")
        if max(map(abs, cv)) > 1 + 1e-12:
            raise ValueError("corr entries must lie in [-1, 1]")
        if n > 1 and np.linalg.eigvalsh(c).min() < PSD_EIGENVALUE_FLOOR:
            raise ValueError("corr must be positive semidefinite")

    @classmethod
    def single(cls, strike, maturity, rate, dividend, vol):
        """One-asset convenience constructor.  A spec is immutable, so the
        recent ones are shared, keyed on the exact floats."""
        return _single(cls, struct.pack("5d", *map(float, (
            strike, maturity, rate, dividend, vol))))

    def corr_cholesky(self):
        """Lower Cholesky factor of corr, clipping tiny negative eigenvalues."""
        try:
            return np.linalg.cholesky(self.corr)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.corr)
            if vals.min() < PSD_EIGENVALUE_FLOOR:
                from .errors import CholeskyFailure
                raise CholeskyFailure("correlation matrix is not PSD")
            fixed = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
            return np.linalg.cholesky(fixed + 1e-15 * np.eye(self.n))


@functools.lru_cache(maxsize=64)
def _single(cls, key):
    """The one-asset spec of the packed floats ``key``; its arrays are made
    here, read-only, so the spec keeps them without a copy."""
    strike, maturity, rate, dividend, vol = struct.unpack("5d", key)
    return cls(n=1, strike=strike, maturity=maturity, rate=rate,
               dividends=_as_readonly([dividend]), vols=_as_readonly([vol]),
               corr=_UNIT_CORR)


@dataclass(frozen=True)
class CovStruct:
    """Covariance matrix and risk-neutral drift derived from a BasketSpec."""

    cov: np.ndarray
    drift: np.ndarray

    @classmethod
    def from_spec(cls, spec: BasketSpec):
        sigma = np.outer(spec.vols, spec.vols) * spec.corr
        return cls(cov=_as_readonly(sigma), drift=_as_readonly(riskneutral_drift(spec)))

    @property
    def n(self):
        return self.drift.shape[0]


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


def riskneutral_drift(spec: BasketSpec) -> np.ndarray:
    """Per-asset log-price drift r - q_i - sigma_i^2 / 2 (no-arbitrage)."""
    return spec.rate - spec.dividends - 0.5 * spec.vols**2


def char_exponent_wi(w, cov: CovStruct):
    """Characteristic exponent Psi(u) = u'Sigma u / 2 - i mu'u at u = w i.

    For Mellin points w, (wi)'Sigma(wi) = -w'Sigma w, so this is
    -w'Sigma w / 2 + mu'w.  ``w`` has the asset index on the last axis.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape[-1:] != (cov.n,):
        raise ValueError(f"w must have trailing dimension n={cov.n}")
    quad = -0.5 * np.einsum("...i,ij,...j->...", w, cov.cov, w)
    lin = w @ cov.drift
    out = quad + lin
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# payoff and early-exercise transforms
# ---------------------------------------------------------------------------


def check_finite_spot(spot):
    """Raise :class:`NonFiniteSpot` unless every spot price is finite.

    NaN fails every comparison, so the positivity checks alone let it
    through to a log or an index computation.
    """
    if not np.all(np.isfinite(spot)):
        raise NonFiniteSpot("spot must be finite")


def check_tau(tau):
    """Raise ``ValueError`` unless the time to expiry is finite and positive.

    NaN fails every comparison, so ``tau <= 0`` alone lets it through, and
    a pricer then returns NaN values that pass every quality gate.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")


def _check_strip(w):
    if not np.all(np.asarray(w).real > 0.0):
        raise PoleError("Mellin argument must satisfy Re(w) > 0 componentwise")


def multinomial_beta(w):
    """prod_j Gamma(w_j) / Gamma(sum_j w_j), computed in log space.

    ``w`` has the asset index on the last axis; requires Re(w_j) > 0.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w[None]
    _check_strip(w)
    if w.shape[-1] == 1:
        # Gamma(w)/Gamma(w): exact unity, skip the round trip
        out = np.ones(w.shape[:-1], dtype=complex)
        return out if out.shape else 1 + 0j
    log_num = np.sum(lgamma_complex(w), axis=-1)
    out = np.exp(log_num - lgamma_complex(np.sum(w, axis=-1)))
    return out if np.ndim(out) else complex(out)


def payoff_mellin(w, strike):
    """Mellin transform of the basket put payoff (K - sum_i S_i)^+.

    beta_n(w) K^(1+sum w) / ((sum w)(sum w + 1)); for n=1 this reduces to
    K^(w+1) / (w (w+1)).
    """
    if strike <= 0:
        raise ValueError("strike must be positive")
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w[None]
    _check_strip(w)
    sw = np.sum(w, axis=-1)
    out = (multinomial_beta(w) * np.exp((1.0 + sw) * math.log(strike))
           / (sw * (sw + 1.0)))
    return out if np.ndim(out) else complex(out)


def exercise_indicator_mellin(w, s_star):
    """Mellin transform of the exercise-region indicator 1{sum_i S_i <= s*}.

    beta_n(w) (s*)^(sum w) / (sum w).  Returns 0 for s_star == 0 (empty
    exercise region, the r = 0 boundary limit).
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w[None]
    _check_strip(w)
    sw = np.sum(w, axis=-1)
    if s_star == 0.0:
        out = np.zeros(sw.shape, dtype=complex)
        return out if out.shape else 0j
    if s_star < 0:
        raise ValueError("s_star must be nonnegative")
    out = multinomial_beta(w) * np.exp(sw * math.log(s_star)) / sw
    return out if np.ndim(out) else complex(out)


def early_exercise_mellin(w, s_star, spec: BasketSpec):
    """Mellin transform of the early-exercise function at boundary level s*.

    beta_n(w) (s*)^(sum w) / (sum w) * [ q'w s* / (sum w + 1) - r K ].
    Returns 0 for s_star == 0.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0:
        w = w[None]
    ind = exercise_indicator_mellin(w, s_star)
    if s_star == 0.0:
        return ind
    sw = np.sum(w, axis=-1)
    qw = w @ spec.dividends
    out = ind * (qw * s_star / (sw + 1.0) - spec.rate * spec.strike)
    return out if np.ndim(out) else complex(out)
