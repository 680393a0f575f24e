"""FFT evaluation of the Mellin inversion integrals on a centered lattice.

The inversion contour Re(w) = a is discretized with frequency spacing
``delta`` per dimension; coupling ``delta * lam = 2 pi / N`` makes the dual
log-price lattice an FFT output.  Centering is carried entirely by the
(-1)^(sum j) / (-1)^(sum k) sign factors (kernel exp(-2 pi i j'k / N),
which is the forward transform numpy computes); arrays are never rotated.

Quadrature weights
------------------
The frequency axes use the plain trapezoid rule, which is spectrally
accurate for these analytic, rapidly decaying integrands (composite
Simpson is only O(delta^4), about 1e-4 of European price accuracy at
delta = 0.25).  The premium time axis (``time_weights``) has nodes
t_l = l tau / (M-1) with "simpson" (default), "trapezoid", or "flat"
(uniform tau / M) weights; the Simpson default is what reproduces the
reference benchmark table.

Discounting enters once, inside the transform factors.

Hermitian half lattice
----------------------
Every payoff here is real, so its transform satisfies
T(conj w) = conj T(w), and the lattice pairs b_j with -b_j at index
-j mod N, the DFT's Hermitian pairing.  Transforms are therefore sampled
on the half lattice j_n <= N/2 plus the few points of the unpaired edge
hyperplanes j_i = 0 (frequency -N delta/2, which has no mirror) that the
half misses: none for n = 1, N/2 - 1 for n = 2
(:func:`sample_transform`).  :func:`invert_transform_lattice` takes the
real surface from one real-output inverse FFT of the Hermitian part.  The
imaginary part of the inverse is exactly the anti-Hermitian remainder,
which lives on those edge hyperplanes only; ``imag_residual`` is that
truncation at the unpaired edges, over the central half of the lattice,
computed from one (n-1)-dimensional FFT per hyperplane.  Rounding noise of
the interior does not enter it, and for n = 1, whose only unpaired point
is the real-ified corner, it is 0.

Basket payoff transform
-----------------------
On the n-asset lattice coordinate i varies along axis i only, so every
factor of the European basket transform except Gamma(sum w)^-1, the
cross terms of Psi and 1/(sum w (sum w + 1)) depends on one axis.
:func:`discounted_payoff_transform` evaluates those once per axis and
only the three others on the full N^n lattice.

Premium transform
-----------------
The American price is the European price minus the early-exercise
premium, whose transform is a time integral of the early-exercise Mellin
transform f(w, s*_l) = s*_l^w [q s*_l/(w+1) - rK/w] weighted by
exp(-t_l (Psi(wi) + r)).  The rational factors do not depend on the time
node, so :func:`premium_transform` only accumulates the moments
sum_l c_l (s*_l)^e s*_l^w exp(-t_l (Psi + r)), e = 0, 1, in one streamed
pass over the M nodes into length-N arrays (no M x N array): the factor
exp(-t_l (Psi + r)) is a running product over the uniform nodes,
s*^(i b_j) comes from a two-level table over the uniformly spaced
frequencies, and only b >= 0 is evaluated, the rest filled in by
conjugate symmetry.  The pass is band-limited per node: a node's terms
decay like exp(-t_l sigma^2 b^2 / 2) along the contour, so node l only
touches |b| <= sqrt(2 TAIL / (sigma^2 t_l)) with the tail constant
TAIL = 60.  Each dropped term is below e^-60 of its node's b = 0 term, and
those terms are positive and add up to the moment's peak, so everything
dropped is below M e^-60 of the peak.  The cutoffs shrink with the node
time, and nodes with similar cutoffs are evaluated as one bounded
(nodes x frequencies) block.  The result matches the per-node sum to
about 1e-14 of the transform's peak.  American greeks reuse the same pass
with t-weighted moments, since every premium multiplier is affine in the
node time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (GridTooCoarse, ImagResidualTooLarge, NoAdmissibleK,
                     OutOfRange, SurfaceQualityError)
from .mellin_core import (BasketSpec, CovStruct, char_exponent_wi,
                          check_finite_spot, early_exercise_mellin,
                          lgamma_complex, payoff_mellin)

EUROPEAN_PUT = "european_put"
AMERICAN_PUT = "american_put"
EARLY_EXERCISE_PREMIUM = "early_exercise_premium"

TIME_WEIGHT_MODES = ("simpson", "trapezoid", "flat")

IMAG_RESIDUAL_TOL = 1e-6  # times strike
NEGATIVE_CLAMP_TOL = 1e-6  # times strike; any value below this hard-fails
NEGATIVE_MATERIAL_TOL = 1e-8  # times strike; sign noise below this is benign
MAX_CLAMPED_FRACTION = 0.01  # material negatives allowed in the central half

# Premium pass: a time node drops the frequencies where its terms are below
# e^-TAIL of its b = 0 term, and nodes are evaluated in blocks of at most
# BLOCK_POINTS (node, frequency) entries.
TAIL = 60.0
BLOCK_POINTS = 2**15


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MellinFftGrid:
    """Coupled frequency / log-price lattice for the n-dimensional FFT.

    Per dimension i: frequencies b_j = (j - N/2) delta_i for j = 0..N-1 and
    log prices s_k = (k - N/2) lam_i, with delta_i lam_i = 2 pi / N.
    ``landing_index`` is the lattice index whose log price equals
    ``target_logS`` exactly.
    """

    n: int
    size: int                     # N, points per dimension (power of two)
    strip_a: np.ndarray           # contour abscissa per dimension, > 0
    deltas: np.ndarray            # frequency spacing per dimension
    lams: np.ndarray              # log-price spacing per dimension
    m_steps: int                  # premium time steps M
    target_logS: np.ndarray | None = None
    landing_index: tuple | None = None

    def __post_init__(self):
        N = self.size
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError("size must be a power of two >= 4")
        if self.m_steps < 1:
            raise ValueError("m_steps must be >= 1")
        for name in ("strip_a", "deltas", "lams"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.n,):
                raise ValueError(f"{name} must have length n={self.n}")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if np.any(self.strip_a <= 0):
            raise ValueError("strip abscissa must be positive")
        coupling = self.deltas * self.lams
        if not np.allclose(coupling, 2.0 * math.pi / N, rtol=1e-13, atol=0):
            raise ValueError("delta * lam must equal 2 pi / N per dimension")
        if self.target_logS is not None:
            t = np.asarray(self.target_logS, dtype=float).copy()
            t.setflags(write=False)
            object.__setattr__(self, "target_logS", t)
            k = tuple(int(v) for v in np.atleast_1d(self.landing_index))
            object.__setattr__(self, "landing_index", k)
            for i in range(self.n):
                s_at_k = (k[i] - N / 2) * self.lams[i]
                if abs(s_at_k - t[i]) > 1e-9:
                    raise ValueError("landing index misses target_logS")

    def frequencies(self, dim):
        return (np.arange(self.size) - self.size / 2) * self.deltas[dim]

    def log_prices(self, dim):
        return (np.arange(self.size) - self.size / 2) * self.lams[dim]

    @property
    def delta_b(self):
        """Product of the frequency spacings (quadrature cell volume)."""
        return float(np.prod(self.deltas))


def build_grid(n, size, strip_a, target_S, m_steps=250, k_hint=None,
               delta_target=0.25):
    """Build a lattice whose log-price axis lands on ``target_S``.

    Per dimension the integer offset m = k - N/2 is chosen so the frequency
    spacing comes closest to ``delta_target`` (root of
    ln(S) - (k - N/2) lam with lam = ln(S)/m), then lam = ln(S)/m and
    delta = 2 pi/(N lam).  ``k_hint`` (per-dimension index) bypasses the
    search.  Spot prices below 1 land left of center (negative offset).
    """
    target_S = np.atleast_1d(np.asarray(target_S, dtype=float))
    if target_S.shape != (n,):
        raise ValueError(f"target_S must have length n={n}")
    check_finite_spot(target_S)
    if np.any(target_S <= 0):
        raise ValueError("target prices must be positive")
    strip_a = np.broadcast_to(np.asarray(strip_a, dtype=float), (n,)).copy()
    N = int(size)
    lam_target = 2.0 * math.pi / (N * float(delta_target))

    lams = np.empty(n)
    deltas = np.empty(n)
    landing = []
    for i in range(n):
        x = math.log(target_S[i])
        if k_hint is not None:
            k_i = int(np.atleast_1d(k_hint)[i])
            m = k_i - N // 2
        elif x == 0.0:
            m = 0
        else:
            m = int(round(x / lam_target))
            if m == 0:
                m = 1 if x > 0 else -1
        if m == 0:
            lam = lam_target  # log price 0 lands at center for any spacing
        else:
            lam = x / m
        k_i = N // 2 + m
        if not 0 <= k_i <= N - 1:
            raise NoAdmissibleK(
                f"dimension {i}: offset {m} outside the lattice (N={N})")
        if lam <= 0:
            raise NoAdmissibleK(
                f"dimension {i}: spacing must be positive (got {lam})")
        if lam > 1.0:
            raise GridTooCoarse(
                f"dimension {i}: landing needs lam={lam} > 1; increase N")
        lams[i] = lam
        deltas[i] = 2.0 * math.pi / (N * lam)
        landing.append(k_i)
    return MellinFftGrid(n=n, size=N, strip_a=strip_a, deltas=deltas,
                         lams=lams, m_steps=int(m_steps),
                         target_logS=np.log(target_S),
                         landing_index=tuple(landing))


# ---------------------------------------------------------------------------
# quadrature weights
# ---------------------------------------------------------------------------


def simpson_weight(j_sum):
    """Composite-Simpson weight alpha = (3 + (-1)^(1+sum j) - delta_0)/3."""
    j_sum = np.asarray(j_sum)
    alpha = (3.0 + -((-1.0) ** j_sum) - (j_sum == 0)) / 3.0
    return alpha if alpha.shape else float(alpha)


def premium_time_grid(m_steps, tau, mode="simpson"):
    """Nodes and quadrature weights for the early-exercise time integral.

    Nodes are t_l = l tau/(M-1); weights already include the step size.
    """
    if mode not in TIME_WEIGHT_MODES:
        raise ValueError(f"unknown time weight mode {mode!r}")
    if m_steps == 1:
        return np.array([0.0]), np.array([tau])
    t = np.arange(m_steps) * (tau / (m_steps - 1))
    if mode == "simpson":
        w = simpson_weight(np.arange(m_steps)) * (tau / (m_steps - 1))
    elif mode == "trapezoid":
        w = np.full(m_steps, tau / (m_steps - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
    else:  # flat
        w = np.full(m_steps, tau / m_steps)
    return t, w


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _along(v, axis, n):
    """One-dimensional ``v`` laid along ``axis`` of an n-dimensional lattice."""
    shape = [1] * n
    shape[axis] = -1
    return v.reshape(shape)


def _lattice_axes(w, n):
    """Axis vectors z_i of an outer-product lattice w[j_1..j_n, i] = z_i[j_i].

    ``w`` has shape (N_1, ..., N_n, n); a single point of shape (n,) is the
    1 x ... x 1 lattice.  Anything else raises ``ValueError``.
    """
    if w.shape == (n,):
        w = w.reshape((1,) * n + (n,))
    if w.ndim != n + 1 or w.shape[-1] != n:
        raise ValueError(
            f"w must be a lattice of shape (N_1, ..., N_{n}, {n}), "
            f"got {w.shape}")
    axes = []
    for i in range(n):
        z = w[(0,) * i + (slice(None),) + (0,) * (n - 1 - i) + (i,)]
        if not np.all(w[..., i] == _along(z, i, n)):
            raise ValueError(
                f"w is not an outer-product lattice: coordinate {i} varies "
                f"off axis {i}")
        axes.append(z)
    return axes


def discounted_payoff_transform(w, spec: BasketSpec, tau):
    """exp(-r tau) * payoff transform * characteristic function at w.

    The transform is beta_n(w) K^(1 + sum w) / (sum w (sum w + 1)) *
    exp(-tau (Psi(wi) + r)) with beta_n(w) = prod Gamma(w_i) / Gamma(sum w)
    and Psi(wi) = sum_i (mu_i w_i - Sigma_ii w_i^2 / 2)
    - sum_{i<j} Sigma_ij w_i w_j.

    For n = 1 the gamma ratio is exactly 1 and is never evaluated; ``w``
    has shape (..., 1) and any layout is accepted.

    For n >= 2, ``w`` must be an outer-product lattice of shape
    (N_1, ..., N_n, n), coordinate i varying along axis i only, as
    :func:`_lattice_w` builds it (else ``ValueError``); a single point of
    shape (n,) counts as the 1 x ... x 1 lattice.  On such a lattice
    log Gamma(w_i), w_i ln K and the diagonal and linear parts of
    -tau Psi are one-dimensional, so they are evaluated once per axis as
    N_i-point arrays.  Only log Gamma(sum w), the cross terms
    tau Sigma_ij w_i w_j (i < j) and K e^(-r tau) / (sum w (sum w + 1))
    are evaluated on the full lattice.  The per-axis logs are broadcast
    into the lattice log before the one exp: a per-axis factor alone
    can underflow to 0 where the cross terms alone overflow, so
    multiplying exponentiated factors would give 0 * inf = NaN on some
    lattice points.  The result matches the pointwise
    ``payoff_mellin(w, K) exp(-tau Psi(wi) - r tau)`` to about 1e-15 of
    its peak.
    """
    w = np.asarray(w, dtype=complex)
    cov = CovStruct.from_spec(spec)
    if spec.n == 1:
        psi = char_exponent_wi(w, cov)
        return (payoff_mellin(w, spec.strike)
                * np.exp(-tau * psi - spec.rate * tau))

    n = spec.n
    axes = _lattice_axes(w, n)
    log_k = math.log(spec.strike)
    per_axis = [lgamma_complex(z) + z * log_k
                + tau * (0.5 * cov.cov[i, i] * z - cov.drift[i]) * z
                for i, z in enumerate(axes)]
    sw = sum(_along(z, i, n) for i, z in enumerate(axes))
    log_t = sum(_along(f, i, n) for i, f in enumerate(per_axis))
    log_t -= lgamma_complex(sw)
    for i in range(n):
        for j in range(i + 1, n):
            log_t += ((tau * cov.cov[i, j]) * _along(axes[i], i, n)
                      * _along(axes[j], j, n))
    out = np.exp(log_t, out=log_t)
    out *= spec.strike * math.exp(-spec.rate * tau)
    out /= sw * (sw + 1.0)
    return out.reshape(w.shape[:-1])


def _uniform_contour(w):
    """Check that ``w`` is a uniformly spaced vertical segment a + i(b0 + j db).

    Returns (a, b, db): the shared real part, the imaginary parts and the
    spacing (0 for a single point).
    """
    z = np.asarray(w, dtype=complex).ravel()
    count = z.shape[0]
    a, b = z.real, z.imag
    if count == 0:
        raise ValueError("contour has no points")
    if np.any(a != a[0]):
        raise ValueError("contour points must share one real part")
    if count == 1:
        return float(a[0]), b, 0.0
    db = (b[-1] - b[0]) / (count - 1)
    gap = np.abs(b - (b[0] + np.arange(count) * db)).max()
    if db == 0.0 or not gap <= 1e-9 * abs(db):
        raise ValueError("contour points must be uniformly spaced in Im(w)")
    return float(a[0]), b, float(db)


def _half_axis(b, db):
    """Frequencies c + k h (k < size) that cover the contour, and the gather.

    A contour with a sample at exactly b = 0 is evaluated on b >= 0 only:
    point j reads entry |j - j0| (j0 the index of b = 0) and takes the
    conjugate where b_j < 0.  Any other contour, including one that misses
    b = 0 by a fraction of its spacing, is evaluated as given.  Returns
    (c, h, size, index, conjugate mask).
    """
    count = b.shape[0]
    j = np.arange(count)
    if count > 1:
        j0 = round(-b[0] / db)
        if 0 <= j0 < count and b[j0] == 0.0:
            offset = j - j0
            return (0.0, abs(db), max(j0, count - 1 - j0) + 1,
                    np.abs(offset), offset * db < 0)
    return float(b[0]), db, count, j, np.zeros(count, dtype=bool)


def _node_cutoffs(c, h, size, sigma, t_nodes):
    """How many of the frequencies c + k h, k < size, each time node keeps.

    |X_l(b)| = |X_l(0)| exp(-t_l sigma^2 b^2 / 2), so beyond
    b_l = sqrt(2 TAIL / (sigma^2 t_l)) a node's terms are below e^-TAIL of
    its b = 0 term.  Only a folded half axis (c = 0, h > 0, so |b| = k h
    grows with k) is cut; t_0 = 0 keeps everything.  The counts never
    increase with l.
    """
    keep = np.full(t_nodes.shape[0], size)
    if c == 0.0 and h > 0.0:
        with np.errstate(divide="ignore"):
            b_cut = np.sqrt(2.0 * TAIL / (sigma**2 * t_nodes))
        keep = (np.minimum(b_cut / h, size - 1)).astype(int) + 1
    return keep


def _running_rows(first, step, rows):
    """Rows first * step^j, j < rows, by doubling: log2(rows) products."""
    x = np.empty((rows, first.shape[0]), dtype=complex)
    x[0] = first
    power, done = step, 1  # power = step^done
    while done < rows:
        more = min(done, rows - done)
        np.multiply(x[:more], power, out=x[done:done + more])
        done += more
        if done < rows:
            power = power * power
    return x


def premium_moments(w, spec: BasketSpec, tau, boundary, time_mode="simpson",
                    t_powers=(0,)):
    """Weighted time moments of the early-exercise integrand at w.

    With X_l(w) = s*_l^w exp(-t_l (Psi(wi) + r)) and the time-quadrature
    weights c_l, returns an array of shape (len(t_powers), 2) + w.shape[:-1]
    whose entry [p, e] is sum_l c_l t_l^p (s*_l)^e X_l(w), over the nodes
    with s*_l > 0.  Single-asset only; ``w`` must be a uniformly spaced
    vertical segment (see :func:`premium_transform`).

    The pass is band-limited: |X_l(a + ib)| = |X_l(a)| exp(-t_l sigma^2
    b^2 / 2), so on a contour through b = 0 node l only updates
    |b| <= b_l = sqrt(2 TAIL / (sigma^2 t_l)), and every dropped term is
    below e^-TAIL of that node's b = 0 term.  Those terms are positive
    reals that add up to the moment at b = 0, its peak magnitude, so all
    dropped terms together stay below M e^-TAIL (about 2e-24 at M = 250)
    of the peak.  The cutoffs shrink with l, so consecutive nodes whose
    cutoffs lie within a factor of two are evaluated together as one
    (nodes x frequencies) block of at most BLOCK_POINTS entries: the
    running products fill the block's rows by repeated doubling and the
    weights c_l t_l^p (s*_l)^e s*_l^a reduce it by one matrix product.
    """
    if spec.n != 1 or np.shape(w)[-1:] != (1,):
        raise NotImplementedError("the premium transform is single-asset only")
    a, b, db = _uniform_contour(w)
    c, h, size, index, conj = _half_axis(b, db)

    t_nodes, t_wgts = premium_time_grid(boundary.m, tau, time_mode)
    s_star = boundary.at_tte(tau - t_nodes)
    live = s_star > 0.0
    log_s = np.log(np.where(live, s_star, 1.0))
    base = np.where(live, t_wgts * np.exp(a * log_s), 0.0)
    weights = np.array([base * t_nodes**p * s_star**e
                        for p in t_powers for e in (0, 1)], dtype=complex)

    w_half = a + 1j * (c + h * np.arange(size))
    cov = CovStruct.from_spec(spec)
    psi_r = char_exponent_wi(w_half[:, None], cov) + spec.rate
    step = np.exp(-(t_nodes[1] if boundary.m > 1 else 0.0) * psi_r)
    keep = _node_cutoffs(c, h, size, float(spec.vols[0]), t_nodes)

    moments = np.zeros((weights.shape[0], size), dtype=complex)
    running = np.ones(size, dtype=complex)  # exp(-t_l (Psi(wi) + r)), l = lo
    lo = 0
    while lo < boundary.m:
        # the following nodes that keep over half of this node's band
        band = int(keep[lo])
        hi = lo + max(1, min(np.count_nonzero(2 * keep[lo:] > band),
                             BLOCK_POINTS // band))
        nodes = slice(lo, hi)
        x = _running_rows(running[:band], step[:band], hi - lo)
        if hi < boundary.m:
            nxt = int(keep[hi])
            running[:nxt] = x[-1, :nxt] * step[:nxt]
        # s*^(i b_j) = s*^(i c) (s*^(i h))^j with j = block * width + r:
        # one exp per block start and per in-block power, not per point
        width = max(1, math.isqrt(band))
        blocks = -(-band // width)
        phase = 1j * log_s[nodes, None]
        starts = np.exp(phase * (c + h * width * np.arange(blocks)))
        inner = np.exp(phase * (h * np.arange(width)))
        table = (starts[:, :, None] * inner[:, None, :]).reshape(hi - lo, -1)
        x *= table[:, :band]
        moments[:, :band] += weights[:, nodes] @ x
        lo = hi

    out = np.take(moments.reshape(len(t_powers), 2, size), index, axis=-1)
    np.negative(out.imag, out=out.imag, where=conj)
    return out.reshape(out.shape[:2] + np.shape(w)[:-1])


def exercise_factors(w, spec: BasketSpec):
    """(q/(w+1), -rK/w), the rational factors of the early-exercise transform.

    For one asset early_exercise_mellin(w, s*) = s*^w [q s*/(w+1) - rK/w];
    ``w`` carries the asset index on the last axis.
    """
    w = np.asarray(w, dtype=complex)[..., 0]
    return (float(spec.dividends[0]) / (w + 1.0),
            -spec.rate * spec.strike / w)


def premium_transform(w, spec: BasketSpec, tau, boundary, time_mode="simpson"):
    """Time-quadrature of the early-exercise transform at w.

    H(w) = sum_l c_l f(w, s*_l) exp(-t_l (Psi(wi) + r)), with f the
    early-exercise transform at the boundary value s*_l for time-to-expiry
    tau - t_l and c_l the ``time_mode`` weights; nodes with s*_l = 0 (empty
    exercise region) contribute nothing.

    For one asset f(w, s*) = s*^w [q s*/(w+1) - rK/w], whose rational
    factors do not depend on l, so H = q/(w+1) A1 - rK/w A0 with the
    moments A_e = sum_l c_l (s*_l)^e X_l, X_l = s*_l^w exp(-t_l (Psi + r)).
    They are accumulated in one pass over the M time nodes into a few
    length-N arrays (:func:`premium_moments`): the nodes are uniform, so
    exp(-t_l (Psi + r)) is the running product P^l with
    P = exp(-dt (Psi + r)); the contour is a uniformly spaced vertical
    segment, so s*^(i b_j) is geometric in j and comes from a two-level
    (block start x in-block power) table of about 2 sqrt(N) exps per node.
    The early-exercise function is real, so H(a - ib) = conj H(a + ib): a
    contour with a sample at exactly b = 0 is evaluated for b >= 0 only
    (the lattice's unpaired corner -N delta/2 adds one frequency there) and
    the rest is filled in by conjugation.  On such a contour node l only
    updates |b| <= sqrt(2 TAIL / (sigma^2 t_l)), which drops less than
    M e^-TAIL of the moments' peak (see :func:`premium_moments`).  Against
    the per-node sum of ``early_exercise_mellin`` terms the result agrees
    to about 1e-14 of its peak magnitude (the tests require 1e-13).

    ``w`` has shape (..., 1) and must be a uniformly spaced vertical
    segment in its flattened order, else ``ValueError``.
    """
    (a0, a1), = premium_moments(w, spec, tau, boundary, time_mode)
    f_q, f_r = exercise_factors(w, spec)
    return f_q * a1 + f_r * a0


# ---------------------------------------------------------------------------
# lattice assembly and inversion
# ---------------------------------------------------------------------------


def _lattice_picks(grid: MellinFftGrid):
    """Per-axis lattice indices of the half lattice and of its edge pieces.

    The half lattice keeps j_n <= N/2 on the last axis.  Edge piece i
    (i < n - 1) is the part of the unpaired hyperplane j_i = 0 that the half
    misses: j_i = 0 and j_n > N/2, N^(n-2) (N/2 - 1) points.
    """
    N, n = grid.size, grid.n
    every = np.arange(N)
    half = [every] * (n - 1) + [every[:N // 2 + 1]]
    edges = []
    for i in range(n - 1):
        picks = [every] * (n - 1) + [every[N // 2 + 1:]]
        picks[i] = every[:1]
        edges.append(picks)
    return half, edges


def _lattice_w(grid: MellinFftGrid, picks=None):
    """Contour points a + i b on the lattice indices ``picks`` (one index
    array per axis, default all), shape (len(picks_1), ..., len(picks_n), n)."""
    if picks is None:
        picks = [np.arange(grid.size)] * grid.n
    w = np.empty(tuple(len(p) for p in picks) + (grid.n,), dtype=complex)
    for i, p in enumerate(picks):
        w[..., i] = _along(grid.strip_a[i] + 1j * grid.frequencies(i)[p],
                           i, grid.n)
    return w


def _sign(j):
    """(-1)^j for integer indices j."""
    return 1.0 - 2.0 * (j & 1)


def _parity(picks):
    """(-1)^(sum of indices) over the lattice indices ``picks``."""
    n = len(picks)
    out = 1.0
    for i, p in enumerate(picks):
        out = out * _along(_sign(p), i, n)
    return out


def _mirror(x):
    """x[-j mod N] along every axis."""
    return x[np.ix_(*(-np.arange(m) % m for m in x.shape))]


def sample_transform(grid: MellinFftGrid, fn):
    """``fn(w)`` on the half lattice and on each edge piece.

    ``fn`` maps a contour lattice of shape (N_1, ..., N_n, n) to the
    transform there; the result is the (half, edges) input of
    :func:`invert_transform_lattice`.
    """
    half, edges = _lattice_picks(grid)
    return (fn(_lattice_w(grid, half)),
            [fn(_lattice_w(grid, picks)) for picks in edges])


def invert_transform_lattice(grid: MellinFftGrid, half, edges):
    """Invert a Mellin transform of a real payoff sampled on the lattice.

    ``half`` holds the transform values at a + i b_j (no sign factors) on
    the half lattice j_n <= N/2, and ``edges[i]`` those on edge piece i
    (j_i = 0, j_n > N/2) for i < n - 1; :func:`sample_transform` makes
    both.  Returns (values, imag_residual): the real inverse on the full
    log-price lattice and the largest imaginary part over its central half.

    The transform of a real payoff satisfies T(conj w) = conj T(w), and
    the lattice pairs b_j with -b_j at index -j mod N, so the FFT input
    X_j = (-1)^(sum j) T(a + i b_j) is Hermitian except on the hyperplanes
    j_i = 0, whose frequency -N delta/2 has no mirror.  Its Hermitian part
    H gives the real surface, N^n irfftn(conj H) over the half.  Its
    anti-Hermitian part E lives only on those hyperplanes; E's inverse is
    the imaginary part, so the residual is the exact truncation at the
    unpaired edges, one (n-1)-dimensional FFT per hyperplane (each keeping
    the points not on an earlier one).  The corner is real-ified, the
    trapezoid average of its conjugate pair, so for n = 1, where it is the
    only unpaired point, the residual is 0.
    """
    n, N = grid.n, grid.size
    half_picks, edge_picks = _lattice_picks(grid)
    shapes = [tuple(len(p) for p in picks)
              for picks in [half_picks] + edge_picks]
    if (len(edges) != n - 1
            or [np.shape(x) for x in [half] + list(edges)] != shapes):
        raise ValueError(f"transform samples must have shapes {shapes}")
    arr = _parity(half_picks) * np.asarray(half, dtype=complex)
    arr[(0,) * n] = arr[(0,) * n].real
    spectra = []
    for i in range(n):
        # hyperplane j_i = 0, whole along the other axes; for i < n - 1 its
        # j_n > N/2 part comes from the edge piece
        on_plane = (slice(None),) * i + (0,)
        if i < n - 1:
            missed = (_parity(edge_picks[i]) * edges[i])[on_plane]
            plane = np.concatenate([arr[on_plane], missed], axis=-1)
        else:
            plane = arr[on_plane]
        anti = 0.5 * (plane - np.conj(_mirror(plane)))
        for l in range(i):
            anti[(slice(None),) * l + (0,)] = 0.0
        # leave the Hermitian part in the half lattice
        arr[on_plane] -= anti[..., :N // 2 + 1] if i < n - 1 else anti
        spectra.append(np.fft.fftn(anti, axes=tuple(range(n - 1))))

    readout = [_sign(np.arange(N)) * np.exp(-grid.strip_a[i]
                                            * grid.log_prices(i))
               for i in range(n)]
    readout[0] = readout[0] * (grid.delta_b / (2.0 * math.pi) ** n)
    values = np.fft.irfftn(np.conj(arr), s=(N,) * n, axes=tuple(range(n)),
                           norm="forward")
    for i in range(n):
        values *= _along(readout[i], i, n)

    central = _central_half_slices(grid)
    imag = sum(np.expand_dims(spectrum[central[1:]], i)
               for i, spectrum in enumerate(spectra)).imag
    for i in range(n):
        imag = imag * _along(np.abs(readout[i][central[i]]), i, n)
    return values, float(np.abs(imag).max())


@dataclass(frozen=True)
class PriceSurface:
    """Option values on the full log-price lattice.

    ``imag_residual`` is the largest imaginary part of the inverse over the
    central half of the lattice: the exact truncation left by the unpaired
    edge frequencies -N delta/2 (see :func:`invert_transform_lattice`),
    0 for one asset.
    """

    grid: MellinFftGrid
    values: np.ndarray
    style: str
    tau: float
    imag_residual: float = 0.0
    clamped_points: int = 0

    def landing_value(self):
        if self.grid.landing_index is None:
            raise ValueError("grid has no landing index")
        return float(self.values[self.grid.landing_index])


@dataclass(frozen=True)
class PriceQuote:
    value: float
    interpolated: bool


def _central_half_slices(grid):
    lo, hi = grid.size // 4, 3 * grid.size // 4
    return (slice(lo, hi),) * grid.n


def price_surface(spec: BasketSpec, grid: MellinFftGrid, tau, style,
                  boundary=None, time_weights="simpson", quality_checks=True):
    """Full put-price surface for the requested style.

    American pricing (and the premium style) is single-asset only and
    requires ``boundary`` sampled with the grid's M steps.

    ``quality_checks=False`` skips the imaginary-residual and negative-value
    gates (still recording the diagnostics); payoff reconstruction at
    degenerate maturities rings at the kink beyond the strict thresholds
    and needs this.
    """
    if grid.n != spec.n:
        raise ValueError("grid and spec dimensions disagree")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if style == EUROPEAN_PUT:
        def transform(w):
            return discounted_payoff_transform(w, spec, tau)
    elif style in (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM):
        if spec.n != 1:
            raise NotImplementedError(
                "American basket pricing (n >= 2) is not supported")
        if boundary is None:
            raise ValueError(f"{style} requires a boundary curve")
        if boundary.m != grid.m_steps:
            raise ValueError("boundary curve and grid disagree on M")

        def transform(w):
            prem = premium_transform(w, spec, tau, boundary, time_weights)
            if style == AMERICAN_PUT:
                return discounted_payoff_transform(w, spec, tau) - prem
            return -prem
    else:
        raise ValueError(f"unknown style {style!r}")

    # Quality gates are scoped to the central half of the lattice: toward
    # the edges the exp(-a's) read-out factor amplifies the (negligible
    # there) integrand truncation exponentially, so edge values carry no
    # quality signal.
    values, imag_resid = invert_transform_lattice(
        grid, *sample_transform(grid, transform))
    central = _central_half_slices(grid)
    if quality_checks and imag_resid >= IMAG_RESIDUAL_TOL * spec.strike:
        raise ImagResidualTooLarge(
            f"imaginary residual {imag_resid:g} >= "
            f"{IMAG_RESIDUAL_TOL * spec.strike:g}")

    eps_neg = NEGATIVE_CLAMP_TOL * spec.strike
    central_vals = values[central]
    if quality_checks and central_vals.min() < -eps_neg:
        raise SurfaceQualityError(
            f"surface value {central_vals.min():g} below -{eps_neg:g}")
    negative = values < 0.0
    clamped = int(negative.sum())
    if clamped:
        # Truncation leaves +-1e-8-scale sign noise where the true value is
        # 0; only material negatives count against the quality budget.
        material = central_vals < -NEGATIVE_MATERIAL_TOL * spec.strike
        if quality_checks and material.mean() > MAX_CLAMPED_FRACTION:
            raise SurfaceQualityError(
                f"{material.mean():.1%} of central lattice points below "
                f"-{NEGATIVE_MATERIAL_TOL * spec.strike:g}")
        values = np.where(negative, 0.0, values)
    values.setflags(write=False)
    return PriceSurface(grid=grid, values=values, style=style, tau=float(tau),
                        imag_residual=imag_resid, clamped_points=clamped)


# ---------------------------------------------------------------------------
# per-index integrands (single-point views of the assembly above)
# ---------------------------------------------------------------------------


def _w_at_index(grid, j):
    j = np.atleast_1d(np.asarray(j, dtype=int))
    if j.shape != (grid.n,):
        raise ValueError(f"multi-index must have length n={grid.n}")
    if np.any(j < 0) or np.any(j >= grid.size):
        raise ValueError("multi-index out of range")
    return grid.strip_a + 1j * np.array(
        [grid.frequencies(i)[j[i]] for i in range(grid.n)]), int(j.sum())


def integrand_european(j, grid: MellinFftGrid, spec: BasketSpec, tau):
    """FFT input value (-1)^(sum j) * discounted payoff transform at index j."""
    w, j_sum = _w_at_index(grid, j)
    return (-1.0) ** j_sum * complex(discounted_payoff_transform(w, spec, tau))


def integrand_premium(j, l, grid: MellinFftGrid, spec: BasketSpec, tau,
                      boundary):
    """Premium FFT input at frequency index j and time index l (unweighted).

    (-1)^(sum j) * f(w, tau - t_l) * Phi(wi, t_l) * exp(-r t_l) with the
    boundary read at time-to-expiry tau - t_l.
    """
    w, j_sum = _w_at_index(grid, j)
    t_nodes, _ = premium_time_grid(boundary.m, tau, "flat")
    if not 0 <= l < boundary.m:
        raise ValueError("time index out of range")
    t_l = t_nodes[l]
    s_star = boundary.at_tte(tau - t_l)
    if s_star <= 0.0:
        return 0j
    cov = CovStruct.from_spec(spec)
    psi = char_exponent_wi(w, cov)
    val = (early_exercise_mellin(w, s_star, spec)
           * np.exp(-t_l * psi - spec.rate * t_l))
    return (-1.0) ** j_sum * complex(val)


# ---------------------------------------------------------------------------
# point queries and call drivers
# ---------------------------------------------------------------------------


def price_at(surface: PriceSurface, s):
    """Read the surface at spot vector ``s``.

    Exact lattice landings (within 1e-9 in log price) return the stored
    entry; anything else is multilinear interpolation in log price across
    the 2^n surrounding lattice points, flagged in the result.
    """
    grid = surface.grid
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (grid.n,):
        raise ValueError(f"spot must have length n={grid.n}")
    check_finite_spot(s)
    if np.any(s <= 0):
        raise OutOfRange("spot prices must be positive")
    x = np.log(s)
    N = grid.size
    lo_idx = np.empty(grid.n, dtype=int)
    frac = np.empty(grid.n)
    exact = True
    for i in range(grid.n):
        f = x[i] / grid.lams[i] + N / 2
        if f < 0 or f > N - 1:
            raise OutOfRange(
                f"log price {x[i]:g} outside lattice in dimension {i}")
        nearest = round(f)
        if 0 <= nearest <= N - 1 and abs((nearest - N / 2) * grid.lams[i] - x[i]) <= 1e-9:
            lo_idx[i], frac[i] = int(nearest), 0.0
            continue
        exact = False
        lo_idx[i] = min(int(math.floor(f)), N - 2)
        frac[i] = f - lo_idx[i]
    if exact:
        return PriceQuote(float(surface.values[tuple(lo_idx)]), False)
    acc = 0.0
    for corner in range(2**grid.n):
        widx, weight = [], 1.0
        for i in range(grid.n):
            hi = (corner >> i) & 1
            widx.append(lo_idx[i] + hi)
            weight *= frac[i] if hi else (1.0 - frac[i])
        acc += weight * float(surface.values[tuple(widx)])
    return PriceQuote(acc, True)


def price_put(spot, strike, rate, dividend, vol, tau, style=AMERICAN_PUT,
              size=2**14, m_steps=250, strip_a=1.0, delta_target=0.25,
              time_weights="simpson", boundary_mode="corrected"):
    """Single-asset put price at ``spot`` with the grid landing on it.

    Returns (value, surface).
    """
    from .boundary import boundary_curve

    spec = BasketSpec.single(strike, max(tau, 1e-12), rate, dividend, vol)
    grid = build_grid(1, size, strip_a, [spot], m_steps=m_steps,
                      delta_target=delta_target)
    bnd = None
    if style in (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM):
        bnd = boundary_curve(spec, m_steps, tau, mode=boundary_mode)
    surf = price_surface(spec, grid, tau, style, boundary=bnd,
                         time_weights=time_weights)
    return surf.landing_value(), surf


def price_american_call(spot, strike, rate, dividend, vol, tau, **grid_kw):
    """American call via put-call symmetry: C(S,K,r,q) = P(K,S,q,r).

    The transformed put has spot K and strike S, so the lattice lands on
    ln(strike-of-the-call); grid keywords are forwarded to
    :func:`price_put`.
    """
    value, _ = price_put(strike, spot, dividend, rate, vol, tau,
                         style=AMERICAN_PUT, **grid_kw)
    return value


def price_european_call(spot, strike, rate, dividend, vol, tau, **grid_kw):
    """European call from the put via parity: C = P + S e^(-q tau) - K e^(-r tau)."""
    put, _ = price_put(spot, strike, rate, dividend, vol, tau,
                       style=EUROPEAN_PUT, **grid_kw)
    return (put + spot * math.exp(-dividend * tau)
            - strike * math.exp(-rate * tau))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


CSV_CHUNK_ROWS = 2**14


def surface_to_csv(surface: PriceSurface, fp):
    """index_1..n, logS_1..n, S_1..n, value rows over the full lattice.

    Rows are in C order of the lattice index and every real is written
    as ``%.12g``; each chunk of CSV_CHUNK_ROWS rows is formatted as one
    block.
    """
    g = surface.grid
    head = ([f"index_{i+1}" for i in range(g.n)]
            + [f"logS_{i+1}" for i in range(g.n)]
            + [f"S_{i+1}" for i in range(g.n)] + ["value"])
    fp.write(",".join(head) + "\n")
    row_fmt = ",".join(["%d"] * g.n + ["%.12g"] * (2 * g.n + 1)) + "\n"
    logs = [g.log_prices(i) for i in range(g.n)]
    # math.exp per axis: the text must not depend on numpy's exp rounding
    spots = [np.array([math.exp(v) for v in x]) for x in logs]
    values = surface.values.ravel()
    for lo in range(0, values.shape[0], CSV_CHUNK_ROWS):
        rows = np.arange(lo, min(lo + CSV_CHUNK_ROWS, values.shape[0]))
        idx = np.unravel_index(rows, surface.values.shape)
        cols = (list(idx) + [x[j] for x, j in zip(logs, idx)]
                + [s[j] for s, j in zip(spots, idx)] + [values[rows]])
        # indices ride along as exact floats; %d prints them as integers
        block = np.column_stack(cols).ravel().tolist()
        fp.write(row_fmt * rows.shape[0] % tuple(block))


def surface_to_json(surface: PriceSurface):
    g = surface.grid
    return {
        "grid": {
            "N": g.size,
            "a": list(map(float, g.strip_a)),
            "delta": list(map(float, g.deltas)),
            "lambda": list(map(float, g.lams)),
            "M": g.m_steps,
        },
        "tau": surface.tau,
        "style": surface.style,
        "values": [float(v) for v in surface.values.ravel(order="C")],
    }
