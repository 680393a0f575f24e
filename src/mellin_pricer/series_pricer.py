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
from .fft_pricer import (AMERICAN_CALL, AMERICAN_PUT, Axis, contour_price,
                         put_boundary, reduce_to_put)
from .mellin_core import BasketSpec, check_finite_spot


@dataclass(frozen=True)
class DwConfig:
    """Series-inversion configuration.

    n_terms : number of oscillatory terms (plus the half-weight real term)
    log_range : L, half-range of the log-price variable x = -ln S
    strip_a : contour abscissa a > 0
    m_steps : premium time steps
    """

    n_terms: int = 250
    log_range: float = 10.0
    strip_a: float = 1.0
    m_steps: int = 250

    def __post_init__(self):
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        if not self.log_range > 0:
            raise ValueError("log_range must be positive")
        if not self.strip_a > 0:
            raise ValueError("strip_a must be positive")
        if self.m_steps < 1:
            raise ValueError("m_steps must be >= 1")

    @property
    def axes(self):
        """The contour w_j = a + i j pi / L, j = 0..n, folded at b = 0."""
        return (Axis(self.strip_a, math.pi / self.log_range, 0,
                     self.n_terms + 1),)


def dw_price(spot, tau, spec: BasketSpec, cfg: DwConfig | None = None,
             style=AMERICAN_PUT, boundary_mode="corrected"):
    """Series-inversion put price at ``spot``.

    The series is the pricer's one single-spot price
    (:func:`~mellin_pricer.fft_pricer.contour_price`, premium node 0 in
    S space) on a contour folded at b = 0: the real point w_0 = a carries
    weight h / 2 pi and each w_j = a + i j h, h = pi / L, weight
    2 h / 2 pi for itself and its conjugate.  The boundary is
    :func:`~mellin_pricer.fft_pricer.put_boundary`'s on ``cfg.m_steps``
    nodes.
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
    weights = np.full(cfg.n_terms + 1, 1.0 / cfg.log_range)  # 2 h / 2 pi
    weights[0] /= 2.0
    return contour_price(spec, spot, tau, style, put_boundary(
        style, spec, tau, cfg.m_steps, boundary_mode), cfg.axes, (weights,))


def dw_price_american_call(spot, strike, rate, dividend, vol, tau,
                           cfg: DwConfig | None = None,
                           boundary_mode="corrected"):
    """American call through :func:`~mellin_pricer.fft_pricer.reduce_to_put`."""
    put, spots, style, _ = reduce_to_put(AMERICAN_CALL, BasketSpec.single(
        strike, max(tau, 1e-12), rate, dividend, vol), [spot])
    return dw_price(spots[0], tau, put, cfg, style, boundary_mode)
