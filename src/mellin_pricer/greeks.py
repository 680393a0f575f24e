"""Option sensitivities by differentiating under the Mellin inversion.

Two multiplier modes are available.  ``kernel`` (default, and the ground
truth) differentiates the inversion kernel and transform factors directly:
d/dS_i of S_i^(-w_i) gives -w_i/S_i, the second derivative gives
w_i(w_i+1)/S_i^2, d/dtau of Phi e^(-r tau) gives -(Psi(wi)+r), and r, q_i,
sigma_i derivatives act on Psi, the discount, and the early-exercise
transform's explicit parameters.  ``paper`` reproduces the published
display factors verbatim for comparison; finite differences arbitrate
where the two disagree (gamma, cross delta, theta, rho, nu, xi premium
weights and signs).

Factor convention: greek = fE * [European inversion] + fP(s) * [premium
inversion], where the premium object integrates the early-exercise
transform positively (the base price itself has fE = 1, fP = -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid,
                         discounted_payoff_transform, exercise_factors,
                         invert_transform_lattice, premium_moments,
                         price_surface, put_boundary, sample_transform)
from .mellin_core import BasketSpec, CovStruct, char_exponent_wi

GREEK_NAMES = ("delta1", "delta2", "gamma", "theta", "rho", "nu", "xi")
MULTIPLIER_MODES = ("kernel", "paper")


@dataclass(frozen=True)
class GreekKind:
    """A sensitivity tag with 1-based asset indices where applicable."""

    name: str
    i: int = 1
    j: int = 0  # second asset, delta2 only

    def __post_init__(self):
        if self.name not in GREEK_NAMES:
            raise ValueError(f"unknown greek {self.name!r}")
        if self.i < 1:
            raise ValueError("asset index must be >= 1")
        if self.name == "delta2":
            if self.j < 1:
                raise ValueError("delta2 needs a second asset index")
            if self.j == self.i:
                raise ValueError("delta2 requires distinct assets")

    def validate(self, n):
        if self.i > n or (self.name == "delta2" and self.j > n):
            raise ValueError(f"asset index out of range for n={n}")


def delta1(i=1):
    return GreekKind("delta1", i=i)


def delta2(i, j):
    return GreekKind("delta2", i=i, j=j)


def gamma(i=1):
    return GreekKind("gamma", i=i)


def theta():
    return GreekKind("theta")


def rho():
    return GreekKind("rho")


def nu(i=1):
    return GreekKind("nu", i=i)


def xi(i=1):
    return GreekKind("xi", i=i)


# ---------------------------------------------------------------------------
# multiplier factors
# ---------------------------------------------------------------------------


def _vol_cross_term(kind, w, spec, mode):
    """Volatility multiplier: directional derivative of the quadratic form."""
    i = kind.i - 1
    wi = w[..., i]
    sig = spec.vols
    if mode == "kernel":
        cross = np.zeros_like(wi)
        for l in range(spec.n):
            if l == i:
                continue
            cross = cross + spec.corr[i, l] * sig[l] * w[..., l]
        return sig[i] * wi * (wi + 1.0) + wi * cross
    # published display: symmetric half cross-sum plus w(w-1) diagonal
    total = np.zeros_like(wi)
    for a in range(spec.n):
        for b in range(spec.n):
            if a == b:
                continue
            total = total + 0.5 * spec.corr[a, b] * sig[b] * w[..., a] * w[..., b]
    for a in range(spec.n):
        total = total + sig[a] * w[..., a] * (w[..., a] - 1.0)
    return total


def greek_multiplier(kind: GreekKind, w, spot, tau, s, spec: BasketSpec,
                     mode="kernel"):
    """(european factor, premium factor) for the requested sensitivity.

    ``w`` carries the asset index on the last axis; ``spot`` is the spot
    vector; ``s`` is the inner (premium) time the premium factor is
    evaluated at; every premium factor is affine in ``s``.  In kernel mode,
    rho and xi carry an additional additive premium term (the
    early-exercise transform's explicit parameter derivative) that no
    multiplicative factor expresses; :func:`greek` adds it.
    """
    if mode not in MULTIPLIER_MODES:
        raise ValueError(f"unknown multiplier mode {mode!r}")
    kind.validate(spec.n)
    w = np.asarray(w, dtype=complex)
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    i = kind.i - 1

    if kind.name == "delta1":
        f = w[..., i] / spot[i]
        return -f, +f
    if kind.name == "delta2":
        jx = kind.j - 1
        f = w[..., i] * w[..., jx] / (spot[i] * spot[jx])
        if mode == "kernel":
            return +f, -f
        return -f, +f
    if kind.name == "gamma":
        if mode == "kernel":
            f = w[..., i] * (w[..., i] + 1.0) / spot[i] ** 2
            return +f, -f
        f = w[..., i] * (1.0 - w[..., i]) / spot[i] ** 2
        return -f, -f
    if kind.name == "theta":
        psi_r = char_exponent_wi(w, CovStruct.from_spec(spec)) + spec.rate
        if mode == "kernel":
            return -psi_r, +psi_r
        return -psi_r, +(psi_r - 1.0)
    if kind.name == "rho":
        sw = np.sum(w, axis=-1)
        if mode == "kernel":
            return -tau * (sw + 1.0), +s * (sw + 1.0)
        return -tau**2 * (sw - 1.0), -s * (sw - 1.0)
    if kind.name == "nu":
        d = _vol_cross_term(kind, w, spec, mode)
        return +tau * d, -s * d
    if kind.name == "xi":
        if mode == "kernel":
            return +tau * w[..., i], -s * w[..., i]
        return -tau * w[..., i], +s * w[..., i]
    raise AssertionError(kind.name)


# ---------------------------------------------------------------------------
# pipeline evaluation
# ---------------------------------------------------------------------------


def _default_size(n):
    return 2**14 if n == 1 else 2**9


def _premium_sensitivity(kind, w, spot, tau, spec, boundary, mode):
    """Premium term sum_l c_l f_p(w, t_l) f(w, s*_l) X_l of the sensitivity.

    f_p is affine in the inner time, f_p = alpha + beta t, so the time sum
    reduces to the moments of :func:`premium_moments` with t^0 and t^1
    weights; f = q/(w+1) s* - rK/w per unit X (see
    :func:`~mellin_pricer.fft_pricer.premium_transform`).
    """
    _, alpha = greek_multiplier(kind, w, spot, tau, 0.0, spec, mode)
    _, at_one = greek_multiplier(kind, w, spot, tau, 1.0, spec, mode)
    (a0, a1), (t0, t1) = premium_moments(w, spec, tau, boundary,
                                         t_powers=(0, 1))
    f_q, f_r = exercise_factors(w, spec)
    out = (alpha * (f_q * a1 + f_r * a0)
           + (at_one - alpha) * (f_q * t1 + f_r * t0))
    if mode == "kernel":
        # explicit parameter derivatives of the early-exercise transform:
        # d/dr adds K s*^w / w, d/dq subtracts s*^(w+1) / (w+1)
        wv = np.asarray(w)[..., 0]
        if kind.name == "rho":
            out = out + spec.strike * a0 / wv
        elif kind.name == "xi":
            out = out - a1 / (wv + 1.0)
    return out


def greek(kind: GreekKind, spot, tau, spec: BasketSpec, style=EUROPEAN_PUT,
          mode="kernel", size=None, m_steps=250, strip_a=1.0,
          delta_target=0.25, boundary_mode="corrected"):
    """Sensitivity of the put at ``spot`` via the FFT pipeline.

    European style drops the premium term.  American sensitivities are
    single-asset only and, in kernel mode, theta additionally picks up the
    early-exercise function value inside the exercise region.
    """
    kind.validate(spec.n)
    if style not in (EUROPEAN_PUT, AMERICAN_PUT):
        raise ValueError(f"unknown style {style!r}")
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if size is None:
        size = _default_size(spec.n)
    grid = build_grid(spec.n, size, strip_a, spot, m_steps=m_steps,
                      delta_target=delta_target)
    bnd = put_boundary(style, spec, m_steps, tau, boundary_mode)
    correction = 0.0
    if (bnd is not None and kind.name == "theta" and mode == "kernel"
            and float(spot.sum()) <= bnd.at_tte(tau)):
        correction = spec.rate * spec.strike - float(spec.dividends @ spot)

    def transform(w):
        # the transform first, so that its temporaries and the multipliers
        # are never alive at once
        values = discounted_payoff_transform(w, spec, tau)
        out = greek_multiplier(kind, w, spot, tau, 0.0, spec, mode)[0] * values
        if bnd is not None:
            out = out + _premium_sensitivity(kind, w, spot, tau, spec, bnd,
                                             mode)
        return out

    values, _ = invert_transform_lattice(grid,
                                         *sample_transform(grid, transform))
    return float(values[grid.landing_index]) + correction


def _pipeline_price(spot, tau, spec, style, size, m_steps, strip_a,
                    delta_target, boundary_mode):
    grid = build_grid(spec.n, size, strip_a, spot, m_steps=m_steps,
                      delta_target=delta_target)
    bnd = put_boundary(style, spec, m_steps, tau, boundary_mode)
    surf = price_surface(spec, grid, tau, style, boundary=bnd)
    return surf.landing_value()


def greek_fd(kind: GreekKind, spot, tau, spec: BasketSpec,
             style=EUROPEAN_PUT, h_rel=1e-4, size=None, m_steps=250,
             strip_a=1.0, delta_target=0.25, boundary_mode="corrected",
             price_fn=None):
    """Central finite difference of the corresponding price.

    Bump h = h_rel * max(|parameter|, 1).  Theta uses the -dV/dt = +dV/dtau
    convention.  ``price_fn(spot, tau, spec) -> float`` substitutes the
    pricing routine (tests inject constant functions to validate the
    differencing itself).
    """
    if not 0 < h_rel <= 1e-2:
        raise ValueError("h_rel must lie in (0, 1e-2]")
    kind.validate(spec.n)
    spot = np.atleast_1d(np.asarray(spot, dtype=float)).copy()
    if size is None:
        size = _default_size(spec.n)
    if price_fn is None:
        price_fn = lambda s, t, sp: _pipeline_price(
            s, t, sp, style, size, m_steps, strip_a, delta_target,
            boundary_mode)

    def respec(rate=None, dividends=None, vols=None):
        return BasketSpec(
            n=spec.n, strike=spec.strike, maturity=spec.maturity,
            rate=spec.rate if rate is None else rate,
            dividends=spec.dividends if dividends is None else dividends,
            vols=spec.vols if vols is None else vols, corr=spec.corr)

    i = kind.i - 1
    if kind.name == "delta1":
        h = h_rel * max(abs(spot[i]), 1.0)
        up, dn = spot.copy(), spot.copy()
        up[i] += h
        dn[i] -= h
        return (price_fn(up, tau, spec) - price_fn(dn, tau, spec)) / (2 * h)
    if kind.name == "gamma":
        h = h_rel * max(abs(spot[i]), 1.0)
        up, dn = spot.copy(), spot.copy()
        up[i] += h
        dn[i] -= h
        mid = price_fn(spot, tau, spec)
        return (price_fn(up, tau, spec) - 2 * mid
                + price_fn(dn, tau, spec)) / h**2
    if kind.name == "delta2":
        jx = kind.j - 1
        hi = h_rel * max(abs(spot[i]), 1.0)
        hj = h_rel * max(abs(spot[jx]), 1.0)
        acc = 0.0
        for si, sj_ in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            s = spot.copy()
            s[i] += si * hi
            s[jx] += sj_ * hj
            acc += si * sj_ * price_fn(s, tau, spec)
        return acc / (4 * hi * hj)
    if kind.name == "theta":
        h = h_rel * max(abs(tau), 1.0)
        h = min(h, 0.5 * tau)
        return (price_fn(spot, tau + h, spec)
                - price_fn(spot, tau - h, spec)) / (2 * h)
    if kind.name == "rho":
        h = h_rel * max(abs(spec.rate), 1.0)
        if spec.rate - h < 0:
            return (price_fn(spot, tau, respec(rate=spec.rate + h))
                    - price_fn(spot, tau, spec)) / h
        return (price_fn(spot, tau, respec(rate=spec.rate + h))
                - price_fn(spot, tau, respec(rate=spec.rate - h))) / (2 * h)
    if kind.name == "nu":
        h = h_rel * max(abs(spec.vols[i]), 1.0)
        up, dn = spec.vols.copy(), spec.vols.copy()
        up[i] += h
        dn[i] -= h
        return (price_fn(spot, tau, respec(vols=up))
                - price_fn(spot, tau, respec(vols=dn))) / (2 * h)
    if kind.name == "xi":
        h = h_rel * max(abs(spec.dividends[i]), 1.0)
        up, dn = spec.dividends.copy(), spec.dividends.copy()
        up[i] += h
        dn[i] -= h
        if dn[i] < 0:
            return (price_fn(spot, tau, respec(dividends=up))
                    - price_fn(spot, tau, spec)) / h
        return (price_fn(spot, tau, respec(dividends=up))
                - price_fn(spot, tau, respec(dividends=dn))) / (2 * h)
    raise AssertionError(kind.name)
