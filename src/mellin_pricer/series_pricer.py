"""Sine-cosine series Mellin inversion (Dishon-Weiss scheme), single asset.

Under S = exp(-x) the inverse Mellin integral becomes a Fourier integral in
x; sampling the contour at spacing pi/L turns it into a cosine/sine series
with period 2L in x.  Queries must satisfy |x| <= L/2 to keep the
periodization images negligible.  The premium uses the same time-quadrature
code path as the FFT pricer, so the two routes share the transform values
exactly and differ only in how the contour integral is truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeViolation
from .fft_pricer import (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM, EUROPEAN_PUT,
                         discounted_payoff_transform, premium_transform)
from .mellin_core import BasketSpec, check_finite_spot


@dataclass(frozen=True)
class DwConfig:
    """Series-inversion configuration.

    n_terms : number of oscillatory terms (plus the half-weight real term)
    log_range : L, half-range of the log-price variable x = -ln S
    strip_a : contour abscissa a > 0
    m_steps : premium time steps
    time_weights : quadrature mode for the premium time axis
    """

    n_terms: int = 250
    log_range: float = 10.0
    strip_a: float = 1.0
    m_steps: int = 250
    time_weights: str = "simpson"

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if self.log_range <= 0:
            raise ValueError("log_range must be positive")
        if self.strip_a <= 0:
            raise ValueError("strip_a must be positive")
        if self.m_steps < 1:
            raise ValueError("m_steps must be >= 1")

    def contour_points(self):
        """w_0 = a (half-weight term) and w_j = a + i pi j / L, j = 1..n."""
        j = np.arange(1, self.n_terms + 1)
        return np.concatenate(
            ([self.strip_a], self.strip_a + 1j * math.pi * j / self.log_range))


def dw_g_hat(w, tau, spec: BasketSpec):
    """Discounted payoff transform exp(-r tau) theta(w) Phi(wi; tau)."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return discounted_payoff_transform(w[..., None], spec, tau)


def dw_h_hat(w, tau, spec: BasketSpec, boundary, time_weights="simpson"):
    """Time-quadrature premium transform, shared with the FFT pricer."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return premium_transform(w[..., None], spec, tau, boundary,
                             time_mode=time_weights)


def _series_sum(values, x, cfg: DwConfig):
    """exp(ax)/(2L) v_0 + exp(ax)/L sum_j [Re v_j cos - Im v_j sin]."""
    a, L = cfg.strip_a, cfg.log_range
    j = np.arange(1, cfg.n_terms + 1)
    phase = math.pi * j * x / L
    head = math.exp(a * x) / (2.0 * L) * values[0].real
    tail = math.exp(a * x) / L * float(
        np.sum(values[1:].real * np.cos(phase) - values[1:].imag * np.sin(phase)))
    return head + tail


def dw_price(spot, tau, spec: BasketSpec, cfg: DwConfig | None = None,
             style=AMERICAN_PUT, boundary_mode="corrected"):
    """Series-inversion put price at ``spot``.

    The American value is the European series minus the premium series
    (the premium transform integrates the negative-valued early-exercise
    function, so subtracting it adds a nonnegative premium).
    """
    if spec.n != 1:
        raise ValueError("series inversion is single-asset only")
    if cfg is None:
        cfg = DwConfig()
    check_finite_spot(spot)
    x = -math.log(spot)
    if abs(x) > cfg.log_range / 2.0:
        raise RangeViolation(
            f"|ln spot| = {abs(x):g} exceeds L/2 = {cfg.log_range / 2.0:g}")
    w = cfg.contour_points()
    g = dw_g_hat(w, tau, spec)
    euro = _series_sum(g, x, cfg)
    if style == EUROPEAN_PUT:
        return euro
    if style not in (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM):
        raise ValueError(f"unknown style {style!r}")
    from .boundary import boundary_curve

    bnd = boundary_curve(spec, cfg.m_steps, tau, mode=boundary_mode)
    h = dw_h_hat(w, tau, spec, bnd, cfg.time_weights)
    premium = -_series_sum(h, x, cfg)
    return premium if style == EARLY_EXERCISE_PREMIUM else euro + premium


def dw_price_american_call(spot, strike, rate, dividend, vol, tau,
                           cfg: DwConfig | None = None,
                           boundary_mode="corrected"):
    """American call via put-call symmetry: C(S,K,r,q) = P(K,S,q,r)."""
    spec = BasketSpec.single(spot, max(tau, 1e-12), dividend, rate, vol)
    return dw_price(strike, tau, spec, cfg, style=AMERICAN_PUT,
                    boundary_mode=boundary_mode)


def dw_price_european_call(spot, strike, rate, dividend, vol, tau,
                           cfg: DwConfig | None = None):
    """European call from the put via parity."""
    spec = BasketSpec.single(strike, max(tau, 1e-12), rate, dividend, vol)
    put = dw_price(spot, tau, spec, cfg, style=EUROPEAN_PUT)
    return (put + spot * math.exp(-dividend * tau)
            - strike * math.exp(-rate * tau))
