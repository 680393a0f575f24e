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

from .boundary import premium_time_grid
from .fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, build_grid, contour_sum,
                         landing_surface, lattice_pieces, node0_region,
                         premium_sums, put_boundary, put_transform,
                         sample_transform)
from .mellin_core import BasketSpec, CovStruct, char_exponent_wi, check_tau

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


def _vol_cross_term(kind, z, spec, mode):
    """Volatility multiplier: directional derivative of the quadratic form."""
    i = kind.i - 1
    wi = z[i]
    sig = spec.vols
    if mode == "kernel":
        cross = np.zeros_like(wi)
        for l in range(spec.n):
            if l == i:
                continue
            cross = cross + spec.corr[i, l] * sig[l] * z[l]
        return sig[i] * wi * (wi + 1.0) + wi * cross
    # published display: symmetric half cross-sum plus w(w-1) diagonal
    total = np.zeros_like(wi)
    for a in range(spec.n):
        for b in range(spec.n):
            if a == b:
                continue
            total = total + 0.5 * spec.corr[a, b] * sig[b] * z[a] * z[b]
    for a in range(spec.n):
        total = total + sig[a] * z[a] * (z[a] - 1.0)
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
    _check_mode(mode)
    kind.validate(spec.n)
    w = np.asarray(w, dtype=complex)
    z = [w[..., i] for i in range(w.shape[-1])]
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    return (_factor(kind, z, spot, tau, spec, mode, premium=False),
            _factor(kind, z, spot, s, spec, mode, premium=True))


def _check_mode(mode):
    if mode not in MULTIPLIER_MODES:
        raise ValueError(f"unknown multiplier mode {mode!r}")


def _factor(kind, z, spot, t, spec, mode, premium):
    """One factor of :func:`greek_multiplier`, built alone.

    The European factor at maturity ``t``, or with ``premium`` the premium
    factor at inner time ``t``.  ``z`` holds the coordinates w_i of the
    points, arrays that broadcast together (on a lattice, each along its
    own axis, so a factor of one coordinate stays one-dimensional);
    ``spot`` is an array already.
    """
    i = kind.i - 1
    if kind.name == "delta1":
        f = z[i] / spot[i]
        return +f if premium else -f
    if kind.name == "delta2":
        jx = kind.j - 1
        f = z[i] * z[jx] / (spot[i] * spot[jx])
        return -f if premium == (mode == "kernel") else +f
    if kind.name == "gamma":
        if mode == "kernel":
            f = z[i] * (z[i] + 1.0) / spot[i] ** 2
            return -f if premium else +f
        f = z[i] * (1.0 - z[i]) / spot[i] ** 2
        return -f
    if kind.name == "theta":
        w = np.stack(np.broadcast_arrays(*z), axis=-1)
        psi_r = char_exponent_wi(w, CovStruct.from_spec(spec)) + spec.rate
        if not premium:
            return -psi_r
        return +psi_r if mode == "kernel" else +(psi_r - 1.0)
    if kind.name == "rho":
        sw = sum(z)
        if mode == "kernel":
            return +t * (sw + 1.0) if premium else -t * (sw + 1.0)
        return -t * (sw - 1.0) if premium else -t**2 * (sw - 1.0)
    if kind.name == "nu":
        d = _vol_cross_term(kind, z, spec, mode)
        return -t * d if premium else +t * d
    if kind.name == "xi":
        if premium == (mode == "kernel"):
            return -t * z[i]
        return +t * z[i]
    raise AssertionError(kind.name)


# ---------------------------------------------------------------------------
# pipeline evaluation
# ---------------------------------------------------------------------------


def _default_size(n):
    return 2**14 if n == 1 else 2**9


def _premium_sensitivity(kind, axes, spot, spec, boundary, mode):
    """Premium term sum_l c_l f_p(w, t_l) f(w, s*_l) X_l of the sensitivity,
    at strike 1, on the one-asset contour ``axes`` and the time grid of
    ``boundary``.

    f_p is affine in the inner time, f_p = alpha + beta t, so the time sum
    reduces to the market's memoised strike-1 sums f over the t^0 and t^1
    moments, f = q/(w+1) u - r/w per unit X on the strike-1 curve u
    (:func:`~mellin_pricer.fft_pricer.premium_sums`).
    """
    z = [axes[0].points]
    alpha = _factor(kind, z, spot, 0.0, spec, mode, premium=True)
    at_one = _factor(kind, z, spot, 1.0, spec, mode, premium=True)
    (a0, a1), premium, t_premium = premium_sums(axes, spec, boundary)
    out = alpha * premium + (at_one - alpha) * t_premium
    if mode == "kernel":
        # explicit parameter derivatives of the early-exercise transform:
        # d/dr adds K s*^w / w, d/dq subtracts s*^(w+1) / (w+1); at strike 1
        if kind.name == "rho":
            out = out + a0 / z[0]
        elif kind.name == "xi":
            out = out - a1 / (z[0] + 1.0)
    return out


def _node0_sensitivity(kind, spot, spec, boundary, mode):
    """The S-space term of an American sensitivity at ``spot``.

    Premium node 0 (t = 0) is out of the premium moments; in the premium
    it is c_0 f(w, s*_0), the transform of c_0 (qS - rK) 1{S < s*_0}
    (:func:`~mellin_pricer.fft_pricer.node0_step`).  Under the premium
    factor at t = 0, m(w), a polynomial in w, its inverse is
    c_0 [q m(-1) S - rK m(0)] below s*_0 and 0 above: the residues at
    w = -1 and w = 0.  So delta gets -c_0 q, kernel gamma 0, kernel theta
    c_0 (q^2 S - r^2 K).  In kernel mode rho and xi add node 0's explicit
    parameter derivatives, c_0 K and -c_0 S, and theta the early-exercise
    function value rK - qS, the premium integral's upper limit moving with
    tau.  All on :func:`~mellin_pricer.fft_pricer.node0_region`, so counted
    half at S = s*_0.
    """
    s, k = float(spot[0]), spec.strike
    region = float(node0_region(s, boundary))
    if not region:
        return 0.0
    r, q, c0 = spec.rate, float(spec.dividends[0]), boundary.grid.c[0]
    at_s, at_k = _factor(kind, [np.array([-1.0, 0.0])], spot, 0.0, spec,
                         mode, premium=True).real
    out = c0 * (q * at_s * s - r * k * at_k)
    if mode == "kernel":
        out += {"rho": c0 * k, "xi": -c0 * s,
                "theta": r * k - q * s}.get(kind.name, 0.0)
    return out * region


def greek(kind: GreekKind, spot, tau, spec: BasketSpec, style=EUROPEAN_PUT,
          mode="kernel", size=None, m_steps=250, strip_a=1.0,
          delta_target=0.25, boundary_mode="corrected"):
    """Sensitivity of the put at ``spot`` via the FFT pipeline.

    European style drops the premium term.  American sensitivities are
    single-asset only and read the premium on the Simpson time grid of
    ``m_steps`` nodes; its node 0 enters in S space
    (:func:`_node0_sensitivity`), where, in kernel mode, theta also picks
    up the early-exercise function value inside the exercise region.  As
    for the price, the sum reads the memoised strike-1 transforms at S/K
    and scales by K (module docstring of :mod:`~mellin_pricer.fft_pricer`,
    "Strike"); the multipliers are free of K, so only they and the sum are
    computed per greek.

    A greek is read at one point, so it is the one single-spot trapezoid
    sum (:func:`~mellin_pricer.fft_pricer.contour_sum`) over the lattice's
    half and edge pieces (:func:`~mellin_pricer.fft_pricer.lattice_pieces`),
    the FFT inverter's real output at the spot to rounding, without the
    rest of the surface.  It carries no quality gate: no imaginary
    residual is computed and no surface is checked.  ``tau`` must be
    finite and positive (``ValueError``).
    """
    check_tau(tau)
    _check_mode(mode)
    kind.validate(spec.n)
    if style not in (EUROPEAN_PUT, AMERICAN_PUT):
        raise ValueError(f"unknown style {style!r}")
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if size is None:
        size = _default_size(spec.n)
    grid = build_grid(spec.n, size, strip_a, spot, m_steps=m_steps,
                      delta_target=delta_target)
    bnd = None
    if style == AMERICAN_PUT:
        bnd = put_boundary(style, spec, premium_time_grid(m_steps, tau),
                           boundary_mode)

    def transform(axes):
        # the transform first, so that its temporaries and the multipliers
        # are never alive at once
        values = put_transform(axes, spec, tau, EUROPEAN_PUT, None)
        out = _factor(kind, np.ix_(*(ax.points for ax in axes)), spot, tau,
                      spec, mode, premium=False) * values
        if bnd is not None:
            out += _premium_sensitivity(kind, axes, spot, spec, bnd, mode)
        return out

    pieces = lattice_pieces(grid, *sample_transform(grid, transform))
    out = spec.strike * sum(contour_sum(*p, spot / spec.strike)
                            for p in pieces)
    if bnd is not None:
        out += _node0_sensitivity(kind, spot, spec, bnd, mode)
    return out


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
        price_fn = lambda s, t, sp: landing_surface(
            sp, s, t, style, size, m_steps, strip_a, delta_target,
            boundary_mode).landing_value()

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
