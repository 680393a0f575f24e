"""Pricing references used for validation.

Binomial lattice (benchmark truth for American options), closed-form
Black-Scholes with continuous dividend plus its Greeks, Monte Carlo basket
pricing with antithetic variates, and the closed-form sum over the
premium's time nodes that the American inversions converge to.  The direct
(no-FFT) trapezoid at a single spot and the boundary's residual, which
reads it, are not independent: they share the pricer's transform
(:func:`~mellin_pricer.fft_pricer.contour_price`) and check only its
inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidProbability, OutOfRange
from .fft_pricer import (AMERICAN_PUT, EUROPEAN_PUT, contour_price,
                         put_boundary)
from .mellin_core import BasketSpec, check_finite_spot, check_tau

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


# unit roundoff of float64, and the relative error allowed for every exp
# and expm1 of the lattice set-up: 4 ulps, above the 1 ulp numpy's accuracy
# tests hold its float64 exp to and glibc's documented bounds
_UNIT = 2.0 ** -53
_EXP_ERR = 8 * _UNIT
# the exercise region is used only while every operand of its proof stays
# in this range, so no product in it underflows or overflows
_NORMAL = (2.0 ** -300, 2.0 ** 300)


def binomial_price(spot, strike, rate, dividend, vol, tau, steps=10000,
                   style=AMER_CALL):
    """Cox-Ross-Rubinstein lattice price at one spot or a vector of spots.

    u = exp(vol sqrt(dt)), d = 1/u, p = (exp((r-q) dt) - d)/(u - d);
    backward induction with an early-exercise comparison for American
    styles.  Node values are kept in log space so 10000-step lattices do
    not overflow.  A scalar ``spot`` gives a float; a 1-D array of spots
    gives an array of its length, each entry bit for bit the price of its
    spot alone.  The spots share one backward sweep over a (nodes, spots)
    array, and each spot's node row is the contiguous 1-D
    ``exp(log(spot) + m sdt)`` of a single spot.

    **Window.**  Every step computes only the nodes whose value is not
    already known, with the same five in-place ufuncs in the same
    operation order as the full lattice, so every value is bit for bit
    the full lattice's.  The nodes of a step are ordered so that the
    exercise value falls along them: by node for a call, reversed for a
    put.  Each step then splits into three runs of slots, shared by all
    spots:

    * *zero* at the low end: both children hold exactly 0.0 and (American
      styles) every spot's exercise value is <= 0.  Then the node is
      exactly 0.0, for every style: p*0 + (1-p)*0, times a finite disc, is
      +0.0, and max(0.0, ex <= 0) is 0.0.  No value is ever -0.0.
    * *exercise* at the high end (American styles): both children hold
      exactly their exercise values and every spot's node lies beyond the
      safe level below, where max(cont, ex) returns ex.
    * *continuation*: everything between, the only slots computed.

    Each edge first moves by what the children prove (zero shrinks by one
    slot, exercise by none, both capped by the precomputed first node
    whose exercise value is > 0 and the first node of the safe run), then
    grows over computed slots that came out exactly 0.0 or exactly equal
    to their exercise values: O(1) rows read per step, amortised.  The
    exercise slots are not written back each step; the one or two that
    the next step reads are refilled from the exercise table.

    **Safe level.**  Let U = 2^-53 (unit roundoff), s = vol sqrt(dt),
    g = exp((r-q) dt), A = 1 - e^(-r dt) and B = 1 - e^(-q dt).  With both
    children exercised the exact continuation value at node S is
    S e^(-q dt) - K e^(-r dt), so a call's exercise value S - K beats it
    by S B - K A and a put's K - S by K A - S B.  In floats the computed
    continuation can exceed the exact one, and the computed exercise value
    fall short of it, by at most eps (S + K) together, where eps sums the
    following, each bound times 1.01 for second-order terms and for the
    rounding of eps itself:

    * p: u, d and g (4 ulps each), the subtraction and the division, and
      the clamp |p - p0| (p0 unclamped) bound
      rho = |p e^s + (1-p) e^-s - e^((r-q) dt)|;
    * the node table: a node is exp(log S0 + m s), its argument off by at
      most U (|log S0| + 2 steps s) and its exp by 4 ulps, so a child is
      its node times e^(+-s) to a relative theta = 2 (argument error +
      4 ulps);
    * one rounding each for the three products, the sum, 1 - p, the two
      children's and the node's exercise values, and disc's 4 ulps plus
      the rounding of r dt.

    That is eps = (1 + disc error)(1 + U)^6 (1 + theta)(1 + (rho + U)/g)
    - 1 + U, and max(cont, ex) returns ex where S (B - eps) >= K (A + eps)
    for a call and K (A - eps) >= S (B + eps) for a put, on the exercise
    side of K.  The level K (A + eps)/(B - eps), or K (A - eps)/(B + eps),
    takes A and B from expm1 and is used only while the difference keeps
    at least half its first term (B > 2 eps for a call, A > 2 eps for a
    put), so its evaluation error stays below 32 U; it is moved 64 U
    outward.  So calls have no exercise region when q = 0, and puts none
    when r = 0; nor does a lattice with r or q < 0, or with K, a node,
    disc or a nonzero p or 1 - p outside [2^-300, 2^300], where the
    one-rounding-per-operation model could fail by underflow or overflow.
    European styles use the zero region only.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_finite_spot(spot)
    if style not in (EURO_PUT, EURO_CALL, AMER_PUT, AMER_CALL):
        raise ValueError(f"unknown style {style!r}")
    spots = np.asarray(spot, dtype=float)
    if spots.ndim > 1:
        raise ValueError("spot must be a scalar or a 1-D array")
    dt = tau / steps
    sdt = vol * math.sqrt(dt)
    u = math.exp(sdt)
    d = 1.0 / u
    growth = math.exp((rate - dividend) * dt)
    p_raw = (growth - d) / (u - d)
    if not -1e-12 <= p_raw <= 1.0 + 1e-12:
        raise InvalidProbability(
            f"risk-neutral probability {p_raw} outside [0, 1]")
    p = min(max(p_raw, 0.0), 1.0)
    disc = math.exp(-rate * dt)
    if not math.isfinite(disc):
        raise ValueError(f"discount factor exp({-rate * dt}) overflows")
    is_call = style in (EURO_CALL, AMER_CALL)
    american = style in (AMER_PUT, AMER_CALL)

    if spots.size == 0:
        return np.empty(0)

    # every node of every step is spot * u^m, m = -steps..steps, in the
    # exercise order (ascending for a call, descending for a put); step i
    # reads nodes steps - i, steps - i + 2, ..., steps + i, every other
    # node from index steps - i, so from the contiguous copy of that
    # index's parity
    log_steps = np.arange(-steps, steps + 1.0) * sdt
    nodes = np.empty((2 * steps + 1, spots.size))
    for k, s in enumerate(spots.reshape(-1)):
        nodes[:, k] = np.exp(math.log(s) + log_steps)
    if is_call:
        exercise = nodes - strike
    else:
        nodes = nodes[::-1]
        exercise = strike - nodes
    by_parity = (exercise[::2].copy(), exercise[1::2].copy())
    values = np.maximum(by_parity[0], 0.0)
    up = np.empty((steps, spots.size))
    # the continuation sums disc * (p v_up + (1-p) v_down) in place;
    # a put's order puts the down child first, and the sum commutes
    c_next, c_here = (p, 1.0 - p) if is_call else (1.0 - p, p)
    zero_row = bytes(values[0].nbytes)

    n_nodes = 2 * steps + 1
    zero_edge = n_nodes  # first node whose exercise value matters
    safe_edge = n_nodes  # first node of the run beyond the safe level
    zero = _leading(np.any(values != 0.0, axis=1), steps + 1)
    top = steps + 1  # first slot of the exercise region
    if american:
        zero_edge = _leading(np.any(exercise > 0.0, axis=1), n_nodes)
        top = steps + 1 - _leading(
            ~np.all(values == by_parity[0], axis=1)[::-1], steps + 1)
        level = _exercise_level(strike, rate, dividend, dt, sdt, u, d, growth,
                                p_raw, p, disc, spots, nodes, steps,
                                is_call)
        if level is not None:
            safe = (nodes >= level) if is_call else (nodes <= level)
            safe_edge = n_nodes - _leading(~np.all(safe, axis=1)[::-1],
                                           n_nodes)

    for i in range(steps - 1, -1, -1):
        # the window of step i from that of step i + 1: slot j reads slots
        # j and j + 1 and is node steps - i + 2 j
        z = max(0, min(zero - 1, (zero_edge - steps + i + 1) // 2))
        t = min(i + 1, max(top, -((steps - i - safe_edge) // 2)))
        z = min(z, t)
        if z < t:
            if top <= t:  # the exercise slots of step i + 1 it reads
                lo = (steps - i - 1) // 2
                row = by_parity[(steps - i - 1) % 2]
                values[top:t + 1] = row[lo + top:lo + t + 1]
            v, pv = values[z:t], up[z:t]
            np.multiply(c_next, values[z + 1:t + 1], out=pv)
            np.multiply(c_here, v, out=v)
            np.add(pv, v, out=v)
            np.multiply(disc, v, out=v)
            lo = (steps - i) // 2
            row = by_parity[(steps - i) % 2]
            if american:
                np.maximum(v, row[lo + z:lo + t], out=v)
                while t > z and (values[t - 1].tobytes()
                                 == row[lo + t - 1].tobytes()):
                    t -= 1
            while z < t and values[z].tobytes() == zero_row:
                z += 1
        zero, top = z, t
    out = values[0] if top > 0 else by_parity[steps % 2][steps // 2]
    return float(out[0]) if spots.ndim == 0 else out.copy()


def _leading(flags, size):
    """Index of the first true flag, ``size`` when there is none."""
    return int(np.argmax(flags)) if flags.any() else size


def _exercise_level(strike, rate, dividend, dt, sdt, u, d, growth, p_raw, p,
                    disc, spots, nodes, steps, is_call):
    """The safe level of :func:`binomial_price`'s exercise region, already
    capped at the strike, or None where the region is not used."""
    lo, hi = _NORMAL
    if not (rate >= 0.0 and dividend >= 0.0
            and lo <= min(strike, disc, float(nodes.min()))
            and max(strike, float(nodes.max())) <= hi
            and all(c == 0.0 or lo <= c for c in (p, 1.0 - p))):
        return None
    # rho: |p e^s + (1-p) e^-s - g|, from the rounding of u, d, g, the
    # subtraction and the division, and the clamp
    x = (rate - dividend) * dt
    err_u = 1.01 * _EXP_ERR * u
    err_d = 1.01 * (_EXP_ERR + _UNIT) * d
    err_g = 1.01 * (_EXP_ERR + 3 * _UNIT * abs(x)) * growth
    num, den = growth - d, u - d
    e_num = err_g + err_d + 1.01 * _UNIT * abs(num)
    e_den = err_u + err_d + 1.01 * _UNIT * abs(den)
    rho = (abs(p_raw) * e_den + _UNIT * abs(num) + e_num
           + abs(p - p_raw) * (abs(den) + e_den))
    # theta: a child against its node times e^(+-s)
    log_max = max(abs(math.log(float(np.min(spots)))),
                  abs(math.log(float(np.max(spots)))))
    arg_err = 1.01 * _UNIT * (log_max + 2 * steps * sdt)
    theta = 1.01 * (2 * arg_err + 2 * _EXP_ERR)
    err_disc = 1.01 * (_EXP_ERR + _UNIT * abs(rate * dt))
    eps = ((1 + err_disc) * (1 + _UNIT) ** 6 * (1 + theta)
           * (1 + 1.01 * (rho + _UNIT) / growth) - 1 + _UNIT)
    a, b = -math.expm1(-rate * dt), -math.expm1(-dividend * dt)
    if is_call:
        if not b > 2 * eps:
            return None
        return max(strike, strike * (a + eps) / (b - eps) * (1 + 64 * _UNIT))
    if not a > 2 * eps:
        return None
    return min(strike, strike * (a - eps) / (b + eps) * (1 - 64 * _UNIT))


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


def basket_euro_put_conditional(spec: BasketSpec, spots, tau, nodes=64):
    """The European 2-asset basket put, exact up to its quadrature.

    Given Z_1 = z, S_2 is lognormal with volatility sigma_2 sqrt(1 - rho^2),
    so the put is a Black-Scholes put on S_2 struck at K - S_1(z), 0 for
    z >= z* where S_1(z*) = K (Carmona & Durrleman 2003, "Pricing and
    hedging spread options").  It is integrated against the normal density
    on [-12, min(z*, 12)] by ``nodes``-point Gauss-Legendre per panel,
    split where the inner put is at the money, as it turns over a width
    that shrinks with sqrt(1 - rho^2): within 4e-13 K at |rho| <= 0.95,
    1.3e-8 K at 0.999.  Two assets with |rho| < 1 only (``ValueError``).
    """
    s = np.atleast_1d(np.asarray(spots, dtype=float))
    if spec.n != 2 or s.shape != (2,):
        raise ValueError("the conditional basket put needs two assets")
    check_finite_spot(s)
    if np.any(s <= 0):
        raise OutOfRange("spot must be positive")
    check_tau(tau)
    rho = float(spec.corr[0, 1])
    if not abs(rho) < 1.0:
        raise ValueError("the conditional basket put needs |rho| < 1")
    r, k = spec.rate, spec.strike
    (q1, q2), (v1, v2) = spec.dividends, spec.vols
    sd1, sd2 = v1 * math.sqrt(tau), v2 * math.sqrt(tau)
    sd = sd2 * math.sqrt(1.0 - rho**2)
    mu1 = math.log(s[0]) + (r - q1 - 0.5 * v1**2) * tau
    hi = min((math.log(k) - mu1) / sd1, 12.0)
    if hi <= -12.0:
        return 0.0
    log_f2 = math.log(s[1]) + (r - q2 - 0.5 * v2**2) * tau + 0.5 * sd**2

    def log_moneyness(z):  # ln(forward of S_2 given z / (K - S_1(z)))
        return log_f2 + sd2 * rho * z - np.log(k - np.exp(mu1 + sd1 * z))

    grid = np.linspace(-12.0, hi, 2049)[:-1]
    turns = grid[np.nonzero(np.diff(np.sign(log_moneyness(grid))))[0] + 1]
    edges = np.concatenate([[-12.0], turns, [hi]])
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    z = edges[:-1, None] + half * (x + 1.0)
    m = log_moneyness(z)
    d1 = (m + 0.5 * sd**2) / sd
    put = (math.exp(-r * tau) * (k - np.exp(mu1 + sd1 * z))
           * (ndtr(sd - d1) - np.exp(m) * ndtr(-d1)))
    return float(np.sum(half * (put * norm_pdf(z)) @ w))


# ---------------------------------------------------------------------------
# direct trapezoid evaluation (single spot, no FFT)
# ---------------------------------------------------------------------------


def price_direct_trapezoid(spec: BasketSpec, lattice, tau, spot,
                           style=EUROPEAN_PUT, boundary=None):
    """Mellin inversion at one spot via the plain truncated trapezoid sum.

    On the full lattice of ``lattice`` (a
    :class:`~mellin_pricer.fft_pricer.Lattice`), its ``axes``
    a_i + i (j - N/2) delta_i, j < N, with the cells delta_i / 2 pi: the
    pricer's single-spot price
    (:func:`~mellin_pricer.fft_pricer.contour_price`, ``boundary`` as in
    :func:`~mellin_pricer.fft_pricer.put_transform`), so at a lattice
    landing point it agrees with the FFT to reordering-level rounding.
    """
    spot = np.atleast_1d(np.asarray(spot, dtype=float))
    if spot.shape != (spec.n,):
        raise ValueError(f"spot must have length n={spec.n}")
    check_finite_spot(spot)
    if np.any(spot <= 0):
        raise OutOfRange("spot must be positive")
    return contour_price(spec, spot, tau, style, boundary, lattice.axes,
                         lattice.deltas / (2.0 * math.pi))


def boundary_residual_cap(curve, l, spec: BasketSpec, grid, mode="corrected"):
    """Residual of the exact free-boundary condition at node ``l`` of
    ``curve`` (a :class:`~mellin_pricer.boundary.BoundaryCurve`), time to
    expiry theta = ``curve.grid.tte[l]``.

    Evaluates K - S* - [European term - premium term] at theta with
    :func:`price_direct_trapezoid` at S = S* on the lattice of ``grid``,
    the premium on the curve's M nodes over [0, theta]: how well the
    approximate boundary satisfies the exact smooth-pasted condition, a
    diagnostic, not a solver.
    """
    if spec.n != 1:
        raise ValueError("residual diagnostic is single-asset only")
    tte, s_star = curve.grid.tte[l], curve.s_star[l]
    if s_star <= 0.0:
        return spec.strike  # empty exercise region, r = 0 limit
    style = AMERICAN_PUT if tte > 0 else EUROPEAN_PUT  # no premium at expiry
    put = price_direct_trapezoid(
        spec, grid.lattice, tte, s_star, style,
        put_boundary(style, spec, tte, curve.grid.m, mode))
    return spec.strike - s_star - put


# ---------------------------------------------------------------------------
# closed-form node sum (the discrete American put)
# ---------------------------------------------------------------------------


def american_put_node_sum(spots, spec: BasketSpec, boundary):
    """The American put on the pricer's own time nodes, in closed form.

    Each premium node's Mellin inverse is a lognormal expectation, so with
    the nodes t_l and weights c_l of the curve's time grid over [0, tau]
    and s*_l = K u_l the ``boundary`` at node l, the limit of the FFT,
    series and trapezoid American puts as their contour sums converge is

        P_BS(S) + sum_{l >= 1} c_l [rK e^(-r t_l) N(-d2_l)
                                    - qS e^(-q t_l) N(-d1_l)]
                + c_0 (rK - qS) 1{S < s*_0}

    with d1_l = (ln(S / s*_l) + (r - q + sigma^2 / 2) t_l) / (sigma sqrt(t_l))
    and d2_l = d1_l - sigma sqrt(t_l).  Node 0 (t = 0, no diffusion) is a
    step, counted half at S = s*_0; nodes with s*_l = 0 drop out.  Single
    asset; vectorised over ``spots``, whose shape the result takes.
    """
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

    t, c, tau = boundary.grid.t, boundary.grid.c, boundary.grid.tau
    s_star = boundary.s_star
    live = (s_star > 0.0) & (t > 0.0)
    euro_k, euro_s = legs(k, tau)
    node_k, node_s = legs(s_star[live], t[live])
    step = 0.5 * (1.0 + np.sign(s_star[0] - spots))  # t_0 = 0
    out = (k * euro_k[..., 0] - spots * euro_s[..., 0]
           + (node_k * r * k - node_s * q * s) @ c[live]
           + c[0] * (r * k - q * spots) * step)
    return float(out) if out.ndim == 0 else out
