"""Independent pricing references used for validation.

Binomial lattice (benchmark truth for American options), closed-form
Black-Scholes with continuous dividend plus its Greeks, Monte Carlo basket
pricing with antithetic variates, a direct (no-FFT) trapezoid evaluation
of the Mellin inversion at a single spot, and the closed-form sum over the
premium's time nodes that the American inversions converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidProbability, OutOfRange
from .mellin_core import BasketSpec, check_finite_spot

EURO_PUT = "euro_put"
EURO_CALL = "euro_call"
AMER_PUT = "amer_put"
AMER_CALL = "amer_call"


def norm_cdf(x):
    return ndtr(x)


def norm_pdf(x):
    return np.exp(-np.asarray(x) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# binomial lattice
# ---------------------------------------------------------------------------


def binomial_price(spot, strike, rate, dividend, vol, tau, steps=10000,
                   style=AMER_CALL):
    """Cox-Ross-Rubinstein lattice price.

    u = exp(vol sqrt(dt)), d = 1/u, p = (exp((r-q) dt) - d)/(u - d);
    backward induction with an early-exercise comparison for American
    styles.  Node values are kept in log space so 10000-step lattices do
    not overflow.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_finite_spot(spot)
    if style not in (EURO_PUT, EURO_CALL, AMER_PUT, AMER_CALL):
        raise ValueError(f"unknown style {style!r}")
    dt = tau / steps
    sdt = vol * math.sqrt(dt)
    u = math.exp(sdt)
    d = 1.0 / u
    p = (math.exp((rate - dividend) * dt) - d) / (u - d)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise InvalidProbability(
            f"risk-neutral probability {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    disc = math.exp(-rate * dt)
    is_call = style in (EURO_CALL, AMER_CALL)
    american = style in (AMER_PUT, AMER_CALL)

    # every node of every step is spot * u^m, m = -steps..steps; step i
    # reads m = -i, -i+2, ..., i, every other node from index steps - i, so
    # from the contiguous copy of that index's parity
    nodes = np.exp(math.log(spot) + np.arange(-steps, steps + 1.0) * sdt)
    exercise = nodes - strike if is_call else strike - nodes
    by_parity = (exercise[::2].copy(), exercise[1::2].copy())
    values = np.maximum(by_parity[0], 0.0)
    up = np.empty(steps)
    down = 1.0 - p
    for i in range(steps - 1, -1, -1):
        # disc * (p v[j+1] + (1-p) v[j]) in place, in that operation order
        v, pv = values[:i + 1], up[:i + 1]
        np.multiply(p, values[1:i + 2], out=pv)
        np.multiply(down, v, out=v)
        np.add(pv, v, out=v)
        np.multiply(disc, v, out=v)
        if american:
            lo = (steps - i) // 2
            np.maximum(v, by_parity[(steps - i) % 2][lo:lo + i + 1], out=v)
    return float(values[0])


# ---------------------------------------------------------------------------
# Black-Scholes closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BsQuote:
    """Price and closed-form sensitivities.

    ``theta`` follows the -dV/dt (= +dV/dtau) convention; ``dividend_rho``
    is dV/dq.
    """

    price: float
    delta: float
    gamma: float
    theta: float
    rho: float
    vega: float
    dividend_rho: float


def black_scholes(spot, strike, rate, dividend, vol, tau, style="put"):
    """Dividend-adjusted Black-Scholes price and Greeks."""
    if vol <= 0 or tau <= 0:
        raise ValueError("vol and tau must be positive")
    check_finite_spot(spot)
    if style not in ("put", "call"):
        raise ValueError(f"unknown style {style!r}")
    sqt = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate - dividend + vol**2 / 2.0) * tau) / sqt
    d2 = d1 - sqt
    eq = math.exp(-dividend * tau)
    er = math.exp(-rate * tau)
    pdf = float(norm_pdf(d1))
    gamma = eq * pdf / (spot * sqt)
    vega = spot * eq * pdf * math.sqrt(tau)
    time_kernel = spot * eq * pdf * vol / (2.0 * math.sqrt(tau))
    if style == "call":
        nd1, nd2 = float(norm_cdf(d1)), float(norm_cdf(d2))
        price = spot * eq * nd1 - strike * er * nd2
        delta = eq * nd1
        theta = time_kernel + rate * strike * er * nd2 - dividend * spot * eq * nd1
        rho = tau * strike * er * nd2
        dividend_rho = -tau * spot * eq * nd1
    else:
        nd1, nd2 = float(norm_cdf(-d1)), float(norm_cdf(-d2))
        price = strike * er * nd2 - spot * eq * nd1
        delta = -eq * nd1
        theta = time_kernel - rate * strike * er * nd2 + dividend * spot * eq * nd1
        rho = -tau * strike * er * nd2
        dividend_rho = tau * spot * eq * nd1
    return BsQuote(price=price, delta=delta, gamma=gamma, theta=theta,
                   rho=rho, vega=vega, dividend_rho=dividend_rho)


# ---------------------------------------------------------------------------
# Monte Carlo basket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McConfig:
    paths: int = 1_000_000
    steps: int = 1
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.paths < 1000:
            raise ValueError("need >= 1000 paths for a variance estimate")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def mc_basket_euro_put(spec: BasketSpec, s0, tau, cfg: McConfig):
    """Monte Carlo price of the European basket put, with standard error.

    Correlated terminal GBM draws via the Cholesky factor of the
    correlation matrix; normals generated by inverse-CDF so runs are
    reproducible bit-for-bit for a given seed.  Antithetic variates halve
    the path count of independent draws.
    """
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if s0.shape != (spec.n,):
        raise ValueError(f"s0 must have length n={spec.n}")
    check_finite_spot(s0)
    chol = spec.corr_cholesky()
    rng = np.random.default_rng(cfg.seed)
    drift = (spec.rate - spec.dividends - 0.5 * spec.vols**2)
    dt = tau / cfg.steps

    log_s = np.broadcast_to(np.log(s0), (cfg.paths, spec.n)).copy()
    log_s_anti = log_s.copy() if cfg.antithetic else None
    for _ in range(cfg.steps):
        u = rng.random((cfg.paths, spec.n))
        z = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16)) @ chol.T
        log_s = log_s + drift * dt + spec.vols * math.sqrt(dt) * z
        if cfg.antithetic:
            log_s_anti = log_s_anti + drift * dt - spec.vols * math.sqrt(dt) * z
    disc = math.exp(-spec.rate * tau)
    payoff = disc * np.maximum(spec.strike - np.exp(log_s).sum(axis=1), 0.0)
    if cfg.antithetic:
        anti = disc * np.maximum(spec.strike - np.exp(log_s_anti).sum(axis=1),
                                 0.0)
        payoff = 0.5 * (payoff + anti)
    price = float(payoff.mean())
    stderr = float(payoff.std(ddof=1) / math.sqrt(payoff.shape[0]))
    return price, stderr


# ---------------------------------------------------------------------------
# direct trapezoid evaluation (single spot, no FFT)
# ---------------------------------------------------------------------------


def price_direct_trapezoid(spec: BasketSpec, strip_a, size, deltas, m_steps,
                           tau, spot, style="european_put", boundary=None,
                           time_weights="simpson"):
    """Mellin inversion at one spot via the plain truncated trapezoid sum.

    Shares the transform evaluation with the FFT pricer, so at a lattice
    landing point the two agree to reordering-level rounding.
    """
    from .fft_pricer import contour_sum, put_transform

    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if spot.shape != (spec.n,):
        raise ValueError(f"spot must have length n={spec.n}")
    check_finite_spot(spot)
    if np.any(spot <= 0):
        raise OutOfRange("spot must be positive")
    strip_a = np.broadcast_to(np.asarray(strip_a, dtype=float), (spec.n,))
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (spec.n,))

    axes = [strip_a[i] + 1j * (np.arange(size) - size / 2) * deltas[i]
            for i in range(spec.n)]
    w = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    values = put_transform(w, spec, tau, style, boundary, time_weights)
    quad = float(np.prod(deltas)) / (2.0 * math.pi) ** spec.n
    return contour_sum(values, w, quad, spot)


# ---------------------------------------------------------------------------
# closed-form node sum (the discrete American put)
# ---------------------------------------------------------------------------


def american_put_node_sum(spots, spec: BasketSpec, tau, boundary,
                          time_weights="simpson"):
    """The American put on the pricer's own time nodes, in closed form.

    Each premium node's Mellin inverse is a lognormal expectation, so with
    the nodes t_l and weights c_l of ``time_weights`` and s*_l the
    ``boundary`` at time-to-expiry tau - t_l, the N -> infinity limit of the
    FFT, series and trapezoid American puts is

        P_BS(S) + sum_{l >= 1} c_l [rK e^(-r t_l) N(-d2_l)
                                    - qS e^(-q t_l) N(-d1_l)]
                + c_0 (rK - qS) 1{S < s*_0}

    with d1_l = (ln(S / s*_l) + (r - q + sigma^2 / 2) t_l) / (sigma sqrt(t_l))
    and d2_l = d1_l - sigma sqrt(t_l).  Node 0 (t = 0, no diffusion) is a
    step, counted half at S = s*_0; nodes with s*_l = 0 drop out.  Single
    asset; vectorised over ``spots``, whose shape the result takes.
    """
    from .fft_pricer import premium_time_grid

    if spec.n != 1:
        raise ValueError("the node sum is single-asset only")
    spots = np.asarray(spots, dtype=float)
    check_finite_spot(spots)
    if np.any(spots <= 0):
        raise OutOfRange("spot must be positive")
    r, q, vol, k = (spec.rate, float(spec.dividends[0]),
                    float(spec.vols[0]), spec.strike)
    s = spots[..., None]

    def legs(level, t):
        """e^(-rt) N(-d2) and e^(-qt) N(-d1) for the put struck at level."""
        sd = vol * np.sqrt(t)
        d1 = (np.log(s / level) + (r - q + vol**2 / 2.0) * t) / sd
        return np.exp(-r * t) * ndtr(sd - d1), np.exp(-q * t) * ndtr(-d1)

    t, c = premium_time_grid(boundary.m, tau, time_weights)
    s_star = boundary.at_tte(tau - t)
    live = (s_star > 0.0) & (t > 0.0)
    euro_k, euro_s = legs(k, tau)
    node_k, node_s = legs(s_star[live], t[live])
    step = 0.5 * (1.0 + np.sign(s_star[0] - spots))  # t_0 = 0
    out = (k * euro_k[..., 0] - spots * euro_s[..., 0]
           + (node_k * r * k - node_s * q * s) @ c[live]
           + c[0] * (r * k - q * spots) * step)
    return float(out) if out.ndim == 0 else out
