"""FFT evaluation of the Mellin inversion integrals on a centered lattice.

The inversion contour Re(w) = a is discretized with frequency spacing
``delta`` per dimension; coupling ``delta * lam = 2 pi / N`` makes the dual
log-price lattice an FFT output.  Centering is carried entirely by the
(-1)^(sum j) / (-1)^(sum k) sign factors (kernel exp(-2 pi i j'k / N),
which is the forward transform numpy computes); arrays are never rotated.
Every lattice is shifted by a sub-cell origin, so its frequencies do not
depend on the spot; the shift is a phase folded into those factors (the
input's signs ride on its phase table, :func:`_phased`).

Quadrature weights
------------------
The frequency axes use the plain trapezoid rule, which is spectrally
accurate for these analytic, rapidly decaying integrands (composite
Simpson is only O(delta^4), about 1e-4 of European price accuracy at
delta = 0.25).  The premium time axis is one
:class:`~mellin_pricer.boundary.TimeGrid`: nodes t_l = l tau / (M-1) with
composite Simpson weights, which reproduce the reference benchmark table.

Discounting enters once, inside the transform factors.

Hermitian half lattice
----------------------
Every payoff here is real, so its transform satisfies
T(conj w) = conj T(w), and the lattice pairs b_j with -b_j at index
-j mod N, the DFT's Hermitian pairing.  Transforms are therefore sampled
on the half lattice j_n <= N/2 plus the few points of the unpaired edge
hyperplanes j_i = 0 (frequency -N delta/2, which has no mirror) that the
half misses: none for n = 1, N/2 - 1 for n = 2
(:func:`sample_transform`).  Each piece is a tuple of :class:`Axis`, one
index range of the lattice per dimension, and every transform takes such
a tuple.  :func:`invert_transform_lattice` takes the
real surface from one real-output inverse FFT of the Hermitian part.  The
imaginary part of the inverse is exactly the anti-Hermitian remainder,
which lives on those edge hyperplanes only; ``imag_residual`` is that
truncation at the unpaired edges, over the central half of the lattice,
computed from one (n-1)-dimensional FFT per hyperplane.  Rounding noise of
the interior does not enter it.  For n = 1, whose only unpaired point is
the real-ified corner, it is identically 0, so one asset does no
residual work at all: no edge loop, no spectrum.

A greek is read at one point, so it skips the FFT.  The inverter's real
output there is the trapezoid sum over the full lattice, in which a
Hermitian pair counts twice the real part of either point; so
:func:`lattice_pieces` weighs the same half and edge samples: the half,
2 on j_n for its mirror (1 at j_n = 0 and N/2) and 0 on the hyperplanes
j_i = 0, i < n - 1; and each of those whole, 0 on the earlier ones.
:func:`contour_sum` sums each piece at the spot in O(N^n), with no
imaginary residual and so no quality gate.

Basket payoff transform
-----------------------
On the n-asset lattice coordinate i varies along axis i only, so every
factor of the European basket transform except Gamma(sum w)^-1, the
cross terms of Psi and 1/(sum w (sum w + 1)) depends on one axis.
:func:`discounted_payoff_transform` evaluates those once per axis, and
the three others only at the lattice points where a cheap upper bound
on |T| (one-axis parts, real cross terms and a table of log Gamma along
|Im sum w|) reaches e^-TAIL of the transform at b = 0; every other
point is exactly 0.  Every basket axis has the spacing delta, so
log Gamma(sum w) is one table over the index sums j_1 + ... + j_n (about
3N/2 on the half lattice).  The frequencies do not depend on the spot, so
one transform, memoised on its exact market and axes next to the premium
moments and under the same bound, serves every quote and greek of a
market, which differ only in the origin phase and their polynomial
multipliers (w_i / S_i, w_i (w_i + 1) / S_i^2, ...).

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
conjugate symmetry (an axis through b = 0 is folded there by its integer
index).  The pass is band-limited per node: a node's terms
decay like exp(-t_l sigma^2 b^2 / 2) along the contour, so node l only
touches |b| <= sqrt(2 TAIL / (sigma^2 t_l)) with the tail constant
TAIL = 60.  Each dropped term is below e^-60 of its node's b = 0 term, and
those terms are positive and add up to the moment's peak, so everything
dropped is below M e^-60 of the peak.  The cutoffs shrink with the node
time, and nodes with similar cutoffs are evaluated as one bounded
(nodes x frequencies) block.  Node 0 (t = 0) has no diffusion: its term
c_0 s*_0^w [q s*_0/(w+1) - rK/w] is the transform of the step
c_0 (qS - rK) 1{S < s*_0}, whose 1/|b| tail left the FFT 1e-4 to 3e-3
off the closed-form node sum, by an amount that moved with delta.  The
pass leaves it out, and every American reader (the surface, the
single-spot sums, the series, the greeks) adds the step in S space
(:func:`node0_step`).  The result matches the per-node sum to
about 1e-14 of the transform's peak.  American greeks reuse the same pass
with t-weighted moments, since every premium multiplier is affine in the
node time.

Strike
------
Every put transform is homogeneous in the strike:
T_K(w) = K^(1 + sum w) T_1(w), for a basket as for one asset, and the
American boundary included (S* is homogeneous of degree 1 in (S, K)), so
P_K(S) = K P_1(S/K), and the strike is a shift by ln K on every axis.
:func:`put_transform` returns T_1, and every reader reads it at
ln(S/K) and multiplies by K: the lattice inverter moves the log prices
by -ln K, whole cells as exact integer roots in the input phase and the
rest in the origin phase, so the values and the imaginary residual move
together; the single-spot sums sum at S/K.  The transforms are memoised,
read-only, on the exact bytes they read, with no strike or spot in a
key, in ``boundary._moment_cache`` (MOMENT_CACHE_SIZE = 4 entries): the
payoff (:func:`unit_payoff_transform`, :func:`discounted_payoff_transform`),
and per market and boundary the premium moments, the premium transform,
its t-weighted sum and the American transform (:func:`premium_sums`).
The rest of what does not depend on the spot is one :class:`Lattice`
per (n, N, a, delta, lambda): axes, read-out vector, contour-sum
weights, central half and prices at origin 0 (:func:`build_grid`), and
an American put's strike-1 curve (:func:`put_boundary`).  A warm quote
looks up the curve, the lattice and the transforms, each in its own memo,
and computes only what its spot and strike move: the landing, the input
phase (about 2 sqrt(N) exps, signs included, and one multiply), one
inverse FFT and its read-out, node 0's step (affine in the lattice
prices) and the gates; a warm greek, a contour sum in place of the FFT.

Calls
-----
Every contract is priced as a put.  :func:`reduce_to_put` is the one home
of that reduction: an American call uses put-call symmetry
C(S, K, r, q) = P(K, S, q, r) (single asset), and a European call uses
parity in its basket form, C = P + sum_i S_i e^(-q_i T) - K e^(-r T).
:func:`put_boundary` is the one curve maker and memo, :func:`put_transform`
the one choice between the European, American and premium transforms,
and :func:`contour_sum` the one trapezoid sum on Re w = a at one spot,
which a greek reads on the lattice's pieces.  :func:`contour_price`, that
sum of the put transform plus node 0's step, is the one single-spot price,
read by the Dishon-Weiss series (on a contour folded at b = 0) and the
direct trapezoid oracle (on the full lattice).  The FFT inverter
evaluates the same sum on the whole log-price lattice.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .boundary import (_curve_cache, _moment_cache, boundary_curve,
                       check_m_steps, premium_time_grid)
from .errors import (GridTooCoarse, ImagResidualTooLarge, NoAdmissibleK,
                     SurfaceQualityError)
from .mellin_core import (BasketSpec, CovStruct, _as_readonly, _check_strip,
                          char_exponent_wi, check_finite_spot, check_tau,
                          lgamma_complex)

EUROPEAN_PUT = "european_put"
AMERICAN_PUT = "american_put"
EARLY_EXERCISE_PREMIUM = "early_exercise_premium"
EUROPEAN_CALL = "european_call"
AMERICAN_CALL = "american_call"

IMAG_RESIDUAL_TOL = 1e-6  # times strike
NEGATIVE_CLAMP_TOL = 1e-6  # times strike; any value below this hard-fails
NEGATIVE_MATERIAL_TOL = 1e-8  # times strike; sign noise below this is benign
MAX_CLAMPED_FRACTION = 0.01  # material negatives allowed in the central half

# Premium pass: a time node drops the frequencies where its terms are below
# e^-TAIL of its b = 0 term, and nodes are evaluated in blocks of at most
# BLOCK_POINTS (node, frequency) entries.  Basket transform: a lattice drops
# the points that are below e^-TAIL of its b = 0 value, bounded through a
# table of GAMMA_TABLE + 1 log-gamma values, and keeps the rest in blocks of
# at most BLOCK_POINTS lattice points.
TAIL = 60.0
BLOCK_POINTS = 2**15
GAMMA_TABLE = 1024

# largest half lattice N^(n-1) (N/2 + 1) that build_grid accepts: 256 MB
# per complex array
MAX_HALF_POINTS = 2**24


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """The contour points a + i (first + k) h, k = 0..count-1, of one
    dimension.

    ``first`` is an integer index, so the lattice frequencies
    b_j = (j - N/2) delta are the axis first = -N/2, h = delta, and each
    piece of the lattice is an index range of it (:meth:`part`).  The
    transforms take one axis per dimension and memoise on the axes.
    """

    a: float
    h: float
    first: int
    count: int

    def __post_init__(self):
        operator.index(self.first)  # an integer index, not a float
        if operator.index(self.count) < 1:
            raise ValueError("an axis needs at least one point")

    @functools.cached_property
    def points(self):
        """The points a + i (first + k) h, computed once; read-only."""
        out = self.a + 1j * ((self.first + np.arange(self.count)) * self.h)
        out.setflags(write=False)
        return out

    def part(self, start, stop):
        """Points start..stop-1 of this axis."""
        return Axis(self.a, self.h, self.first + start, stop - start)


@dataclass(frozen=True, eq=False)
class Lattice:
    """The spot-free part of a lattice, one per (n, N, a, delta, lambda)
    (:func:`_lattice`) and shared by every grid on it: each part below is
    computed once, and every array is read-only.  :meth:`land` makes the
    grid at a spot."""

    n: int
    size: int
    strip_a: np.ndarray
    deltas: np.ndarray
    lams: np.ndarray

    def __post_init__(self):
        N = self.size
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError("size must be a power of two >= 4")
        if not np.all(self.strip_a > 0):
            raise ValueError("strip abscissa must be positive")
        cell = 2.0 * math.pi / N
        if not all(abs(d * lam - cell) <= 1e-13 * cell
                   for d, lam in zip(self.deltas, self.lams)):
            raise ValueError("delta * lam must equal 2 pi / N per dimension")

    # the central half of the lattice, which the quality gates read
    central = property(lambda self: (slice(self.size // 4,
                                           3 * self.size // 4),) * self.n)

    @functools.cached_property
    def axes(self):
        """The frequency axis of each dimension: first = -N/2, h = delta_i."""
        return tuple(Axis(a, d, -(self.size // 2), self.size)
                     for a, d in zip(self.strip_a, self.deltas))

    @functools.cached_property
    def parts(self):
        """The axes of the half lattice, j_n <= N/2, and of edge piece i
        < n - 1, the part of the unpaired hyperplane j_i = 0 that the half
        misses: j_i = 0 and j_n > N/2, N^(n-2) (N/2 - 1) points."""
        N, full = self.size, self.axes
        half = full[:-1] + (full[-1].part(0, N // 2 + 1),)
        edges = []
        for i in range(self.n - 1):
            axes = list(full[:-1]) + [full[-1].part(N // 2 + 1, N)]
            axes[i] = full[i].part(0, 1)
            edges.append(tuple(axes))
        return half, edges

    @functools.cached_property
    def sum_weights(self):
        """The :func:`contour_sum` weights of each of :func:`lattice_pieces`,
        one per axis: the cell delta_i / 2 pi, times 2 on the half's
        paired j_n (1 at j_n = 0 and N/2) and 0 on the rows j_i = 0 counted
        on an earlier piece."""
        N, cells = self.size, self.deltas / (2.0 * math.pi)
        mirror = np.full(N // 2 + 1, 2.0)
        mirror[[0, -1]] = 1.0
        off_plane = np.ones(N)
        off_plane[0] = 0.0
        half = [c * off_plane for c in cells[:-1]] + [cells[-1] * mirror]
        planes = [[c * off_plane for c in cells[:i]] + list(cells[i:])
                  for i in range(self.n - 1)]
        return tuple(tuple(map(_as_readonly, w)) for w in [half] + planes)

    @functools.cached_property
    def readout(self):
        """(-1)^k exp(-a_i (k - N/2) lam_i), k < N, per axis: the read-out
        (-1)^k exp(-a_i s_k) is this times exp(-a_i origin_i)."""
        k = np.arange(self.size)
        x = k - self.size / 2
        return tuple(_as_readonly(_sign(k) * np.exp(-a * (x * lam)))
                     for a, lam in zip(self.strip_a, self.lams))

    @functools.cached_property
    def unit_prices(self):
        """exp((k - N/2) lam_1), k < N: the prices on axis 1 at origin 0;
        a grid's are these times exp(origin_1)."""
        with np.errstate(over="ignore"):  # past e^709: never below s*_0
            return _as_readonly(np.exp((np.arange(self.size) - self.size / 2)
                                       * self.lams[0]))

    def land(self, target_S, m_steps):
        """The :class:`MellinFftGrid` here that lands on ``target_S``: with
        m = round(ln S / lam), landing index N/2 + m and origin
        ln S - m lam, |origin| <= lam / 2, per dimension."""
        target_S = _as_readonly(np.atleast_1d(target_S))
        if target_S.shape != (self.n,):
            raise ValueError(f"target_S must have length n={self.n}")
        spots = target_S.tolist()  # checked as floats: this runs per quote
        if not all(map(math.isfinite, spots)):
            check_finite_spot(target_S)
        if not min(spots) > 0:
            raise ValueError("target prices must be positive")
        check_m_steps(m_steps)
        N = self.size
        origin, landing = [], []
        for i, (x, lam) in enumerate(zip(map(math.log, spots),
                                         self.lams.tolist())):
            m = round(x / lam)
            if not 0 <= N // 2 + m <= N - 1:
                raise NoAdmissibleK(
                    f"dimension {i}: offset {m} outside the lattice (N={N})")
            origin.append(x - m * lam)
            landing.append(N // 2 + m)
        return MellinFftGrid(self, int(m_steps), _as_readonly(origin),
                             target_S, tuple(landing))


@functools.lru_cache(maxsize=8)
def _lattice(n, size, *params):
    """The one :class:`Lattice` of n, N and the tuples a, delta, lambda."""
    return Lattice(n, size, *map(_as_readonly, params))


@dataclass(frozen=True, eq=False)
class MellinFftGrid:
    """Coupled frequency / log-price lattice for the n-dimensional FFT.

    Per dimension i: frequencies b_j = (j - N/2) delta_i for j = 0..N-1 and
    log prices s_k = origin_i + (k - N/2) lam_i, with
    delta_i lam_i = 2 pi / N.  The frequencies, and so every transform on
    the lattice, do not depend on ``origin``; they and every other
    spot-free part are the shared :class:`Lattice` ``lattice``, and the
    inverters apply the origin as the phase e^(-i b_j origin_i).
    ``landing_index`` is the lattice index whose price is ``target_S``:
    its log price is ``target_logS`` to rounding, and a landing value that
    reads a step there (:func:`price_surface`) reads it at ``target_S``
    itself (:meth:`Lattice.land`).
    """

    lattice: Lattice
    m_steps: int                  # premium time steps M
    origin: np.ndarray            # log price of index N/2 per dimension
    target_S: np.ndarray | None = None
    landing_index: tuple | None = None

    n = property(lambda self: self.lattice.n)
    size = property(lambda self: self.lattice.size)  # N, a power of two
    strip_a = property(lambda self: self.lattice.strip_a)  # a > 0 per axis
    deltas = property(lambda self: self.lattice.deltas)  # frequency spacing
    lams = property(lambda self: self.lattice.lams)  # log-price spacing

    @property
    def target_logS(self):
        return None if self.target_S is None else np.log(self.target_S)

    @property
    def axes(self):
        """The lattice's axes, shared by every grid on it."""
        return self.lattice.axes

    def log_prices(self, dim):
        return (self.origin[dim]
                + (np.arange(self.size) - self.size / 2) * self.lams[dim])

    @property
    def delta_b(self):
        """Product of the frequency spacings (quadrature cell volume)."""
        return math.prod(self.deltas.tolist())


def build_grid(n, size, strip_a, target_S, m_steps=250, delta_target=0.25):
    """The grid that lands on ``target_S`` (:meth:`Lattice.land`) on the
    one :class:`Lattice` of its n, N, a and delta: every axis has
    delta = ``delta_target`` exactly and lam = 2 pi / (N delta), so its
    transforms are the same for every spot.  ``GridTooCoarse`` for a half
    lattice above MAX_HALF_POINTS or a lam above 1."""
    N = int(size)
    half_points = N ** (n - 1) * (N // 2 + 1)
    if half_points > MAX_HALF_POINTS:
        raise GridTooCoarse(f"N={N} gives a half lattice of {half_points} "
                            f"points for n={n}, above {MAX_HALF_POINTS}; "
                            f"lower N")
    lam = 2.0 * math.pi / (N * float(delta_target))
    if lam > 1.0:
        raise GridTooCoarse(f"landing needs lam={lam} > 1; increase N")
    lattice = _lattice(n, N, tuple(np.full(n, strip_a, dtype=float).tolist()),
                       (float(delta_target),) * n, (lam,) * n)
    return lattice.land(target_S, m_steps)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _axis_logs(zs, cov: CovStruct, tau):
    """The one-axis part of the log basket transform on each axis's points:
    log Gamma(z_i) + tau (Sigma_ii z_i / 2 - mu_i) z_i."""
    return [lgamma_complex(z)
            + tau * (0.5 * cov.cov[i, i] * z - cov.drift[i]) * z
            for i, z in enumerate(zs)]


def _transform_from_logs(zs, logs, cov: CovStruct, tau, scale,
                         lgamma_sw=None):
    """The basket transform at points given by their coordinates ``zs[i]``
    and one-axis logs ``logs[i]``, which broadcast to one shape: one-axis
    logs, - log Gamma(sum w) (``lgamma_sw`` if given), + cross terms, exp,
    * ``scale`` (e^(-r tau)), / (sum w (sum w + 1)), in that order."""
    sw = sum(zs)
    log_t = sum(logs)
    log_t -= lgamma_complex(sw) if lgamma_sw is None else lgamma_sw
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            log_t += (tau * cov.cov[i, j]) * zs[i] * zs[j]
    out = np.exp(log_t, out=log_t)
    out *= scale
    out /= sw * (sw + 1.0)
    return out


def _payoff_log_bound(axes, logs, cov: CovStruct, tau):
    """Upper bound on log(|T(w)| e^(r tau)) over the lattice of ``axes``,
    and the same at b = 0.

    ``logs`` are the one-axis logs (:func:`_axis_logs`).  Returns
    (bound, log_peak): ``bound(rows)`` is the bound at the lattice points
    whose axis-0 index is in the slice ``rows``, and ``log_peak`` is
    log(T(a) e^(r tau)) in closed form.  The proof is in
    :func:`discounted_payoff_transform`.
    """
    n = len(axes)
    a = [ax.a for ax in axes]
    b = [ax.points.imag for ax in axes]
    big_a = sum(a)
    cross = [(i, j, tau * cov.cov[i, j])
             for i in range(n) for j in range(i + 1, n)]
    cross_a = sum(c * a[i] * a[j] for i, j, c in cross)
    log_peak = (sum(math.lgamma(ai)
                    + tau * (0.5 * cov.cov[i, i] * ai - cov.drift[i]) * ai
                    for i, ai in enumerate(a))
                + cross_a - math.lgamma(big_a)
                - math.log(big_a) - math.log(big_a + 1.0))
    re_logs = [f.real for f in logs]
    re_logs[0] = re_logs[0] + cross_a  # the a_i a_j part is one constant
    # g(y) = -Re log Gamma(A + iy) - ln|A + iy| - ln|A + 1 + iy| on
    # [k h, (k + 1) h]: the growing term at the upper end, the shrinking
    # ones at the lower end; GAMMA_TABLE + 1 intervals cover every |B|
    y_max = sum(float(np.abs(v).max()) for v in b)
    h = y_max / GAMMA_TABLE if y_max > 0.0 else 1.0
    y = h * np.arange(GAMMA_TABLE + 2)
    table = (-lgamma_complex(big_a + 1j * y[1:]).real
             - np.log(np.hypot(big_a, y[:-1]))
             - np.log(np.hypot(big_a + 1.0, y[:-1])))

    def bound(rows):
        pick = [rows] + [slice(None)] * (n - 1)
        b_at = np.ix_(*(v[p] for v, p in zip(b, pick)))
        out = sum(np.ix_(*(f[p] for f, p in zip(re_logs, pick))))
        for i, j, c in cross:
            out -= (c * b_at[i]) * b_at[j]
        out += table[(np.abs(sum(b_at)) / h).astype(np.intp)]
        return out

    return bound, log_peak


def discounted_payoff_transform(axes, spec: BasketSpec, tau):
    """exp(-r tau) * payoff transform * characteristic function at strike
    1 on the lattice of ``axes``, one :class:`Axis` per asset.

    The transform is beta_n(w) / (sum w (sum w + 1)) *
    exp(-tau (Psi(wi) + r)) with beta_n(w) = prod Gamma(w_i) / Gamma(sum w)
    and Psi(wi) = sum_i (mu_i w_i - Sigma_ii w_i^2 / 2)
    - sum_{i<j} Sigma_ij w_i w_j; the basket put struck at K has
    K^(1 + sum w) times it (module docstring, "Strike").  The result has
    shape (count_1, ..., count_n).  Baskets only, n >= 2 (``ValueError``
    for one asset, whose transform is :func:`unit_payoff_transform`).

    log Gamma(w_i) and the diagonal and linear parts
    of -tau Psi are evaluated once per axis and broadcast into the lattice
    log before the one exp: a per-axis factor alone can underflow to 0
    where the cross terms alone overflow, so multiplying exponentiated
    factors would give 0 * inf = NaN on some lattice points.  The result
    matches the pointwise ``payoff_mellin(w, 1) exp(-tau Psi(wi) - r tau)``
    to about 1e-15 of its peak.  Where every axis has the same spacing h,
    log Gamma(sum w) comes from one table over the integer index sums,
    sum a_i + i h (sum of indices); at a dyadic h such as the default 0.25
    every b is exact and the table is the pointwise value bit for bit.

    A lattice with more than one point on every axis is band-limited:
    log Gamma(sum w), the cross terms, the exp and the division are
    evaluated only at the points whose transform can reach e^-TAIL T(a),
    with T(a) > 0 the transform at b = 0; every other point is exactly 0.
    Write A = sum a_i and B = sum b_i.  Then log |T| + r tau is
    the sum of the real parts of the one-axis logs, plus the real cross
    terms tau Sigma_ij (a_i a_j - b_i b_j), plus
    g(|B|) = -Re log Gamma(A + iB) - ln|A + iB| - ln|A + 1 + iB|
    (Gamma(conj z) = conj Gamma(z), so g is even in B).  The first term of
    g grows with |B| for every A > 0, since
    |Gamma(A) / Gamma(A + iy)|^2 = prod_k (1 + y^2 / (A + k)^2); the other
    two shrink.  So on [k h, (k + 1) h] g is at most its first term at
    (k + 1) h plus the other two at k h, and a table of GAMMA_TABLE + 1
    such values (one ``lgamma_complex`` call) bounds g at every point.
    The one-axis parts are already known, so the bound on log |T| costs a
    few real operations per point (:func:`_payoff_log_bound`); T(a) is
    real and in closed form (``math.lgamma``).  A point whose bound is
    below ln T(a) - TAIL is dropped, so every dropped term is below
    e^-TAIL of T(a) (rounding moves the bound by about 1e-13, so that
    factor by 1 + 1e-13 at most).  On the benchmark's two-asset markets
    (N = 2^9, a = 1) this drops a median 70% of the half lattice, 43-87%
    from the 10th to the 90th percentile.  The kept points are gathered
    in blocks of at most BLOCK_POINTS lattice points along axis 0 and
    evaluated in the same order of operations as an unbanded lattice
    (:func:`_transform_from_logs`), so a kept point is the same float.

    Such a lattice is also memoised in the bounded LRU cache that holds
    the premium moments (``boundary._moment_cache``, emptied by
    :func:`~mellin_pricer.boundary.clear_boundary_cache`), keyed on the
    exact bytes of r, tau, each q_i, each sigma_i and the correlation
    matrix, and on the axes.  A hit is the array a recompute would give,
    bit for bit, and is read-only; the quotes and greeks of one market,
    whose lattices have the same frequencies at every spot and strike,
    share one transform.  Edge pieces and single points, which have one
    point on some axis and so cost about 1/N of a lattice, are always
    computed in full, log Gamma pointwise.
    """
    if len(axes) != spec.n:
        raise ValueError(f"expected {spec.n} axes, got {len(axes)}")
    if spec.n == 1:
        raise ValueError("one asset: use unit_payoff_transform")

    cov = CovStruct.from_spec(spec)
    lattice = all(ax.count > 1 for ax in axes)
    if lattice:
        # the tag keeps these keys apart from the premium-moment keys
        key = ("basket_payoff",
               np.concatenate([[spec.rate, tau], spec.dividends,
                               spec.vols, spec.corr.ravel()]).tobytes(),
               tuple(axes))
        hit = _moment_cache.get(key)
        if hit is not None:
            return hit
    zs = [ax.points for ax in axes]
    logs = _axis_logs(zs, cov, tau)
    scale = math.exp(-spec.rate * tau)
    if not lattice:
        return _transform_from_logs(np.ix_(*zs), np.ix_(*logs), cov, tau,
                                    scale)
    bound, log_peak = _payoff_log_bound(axes, logs, cov, tau)
    table = None
    if len({ax.h for ax in axes}) == 1:
        # sum w = sum a_i + i h (sum of indices): one log Gamma per index sum
        sums = sum(ax.first for ax in axes) + np.arange(
            sum(ax.count - 1 for ax in axes) + 1)
        table = lgamma_complex(sum(ax.a for ax in axes)
                               + 1j * (axes[0].h * sums))
    out = np.zeros(tuple(ax.count for ax in axes), dtype=complex)
    rows = max(1, BLOCK_POINTS * axes[0].count // out.size)
    for lo in range(0, axes[0].count, rows):
        kept = np.nonzero(bound(slice(lo, lo + rows)) >= log_peak - TAIL)
        if kept[0].size == 0:
            continue
        # gathered, not masked: scipy 1.17.1's loggamma(z, out=, where=)
        # wrote to the wrong elements and then crashed
        at = (kept[0] + lo,) + kept[1:]
        out[at] = _transform_from_logs(
            [z[j] for z, j in zip(zs, at)],
            [f[j] for f, j in zip(logs, at)], cov, tau, scale,
            None if table is None else table[sum(at)])
    out.setflags(write=False)
    return _moment_cache.add(key, out)


def _market_bytes(spec: BasketSpec, tau):
    """r, q, sigma, the 1 x 1 correlation and tau, as exact bytes."""
    return struct.pack("5d", spec.rate, spec.dividends.item(),
                       spec.vols.item(), spec.corr.item(), tau)


def unit_payoff_transform(axes, spec: BasketSpec, tau):
    """exp(-tau (Psi(wi) + r)) / (w (w+1)): the one-asset discounted payoff
    transform at strike 1, on a contour with Re w > 0; memoised, read-only,
    in ``boundary._moment_cache`` on the exact bytes of r, q, sigma, the
    1 x 1 correlation, tau and the axis (module docstring, "Strike")."""
    axis, = axes
    # the tag keeps these keys apart from the premium and basket keys
    key = ("payoff", _market_bytes(spec, tau), axis)
    hit = _moment_cache.get(key)
    if hit is not None:
        return hit
    w = axis.points[:, None]
    _check_strip(w)
    z = w[..., 0]
    psi = char_exponent_wi(w, CovStruct.from_spec(spec))
    out = np.exp(-tau * psi - spec.rate * tau) / (z * (z + 1.0))
    out.setflags(write=False)
    return _moment_cache.add(key, out)


def _fold(axis):
    """The axis the premium pass evaluates, and the gather back to ``axis``.

    An axis through b = 0 (first <= 0 < first + count) is evaluated on
    b >= 0 only: point k reads entry |first + k| of the folded axis and
    takes the conjugate where b < 0.  Any other axis is evaluated as
    given.  Returns (evaluated axis, index, conjugate mask).
    """
    j = axis.first + np.arange(axis.count)
    if axis.first <= 0 < axis.first + axis.count:
        size = max(-axis.first, axis.first + axis.count - 1) + 1
        return Axis(axis.a, abs(axis.h), 0, size), np.abs(j), j * axis.h < 0
    return axis, np.arange(axis.count), np.zeros(axis.count, dtype=bool)


def _node_cutoffs(axis, sigma, t_nodes):
    """How many of the frequencies on ``axis`` each time node keeps.

    |X_l(b)| = |X_l(0)| exp(-t_l sigma^2 b^2 / 2), so beyond
    b_l = sqrt(2 TAIL / (sigma^2 t_l)) a node's terms are below e^-TAIL of
    its b = 0 term.  Only a folded axis (first = 0, h > 0, so |b| = k h
    grows with k) is cut; a node at t = 0 keeps everything.  The counts
    never increase with l.
    """
    keep = np.full(t_nodes.shape[0], axis.count)
    if axis.first == 0 and axis.h > 0.0:
        with np.errstate(divide="ignore"):
            b_cut = np.sqrt(2.0 * TAIL / (sigma**2 * t_nodes))
        keep = (np.minimum(b_cut / axis.h, axis.count - 1)).astype(int) + 1
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


def _exp_table(start_phase, inner_phase, count, parity=None):
    """exp(i phase(j)) for j = 0..count-1, along a new last axis, for a
    phase additive in j: j = start + r with start a multiple of a block
    width about sqrt(count), and phase(j) = ``start_phase(start)`` +
    ``inner_phase(r)``.  One exp per block start and per in-block offset
    (about 2 sqrt(count)), not one per point; both callables take an
    integer index array and may broadcast leading axes in front of it.
    With an integer ``parity`` p entry j also carries (-1)^(p + j): the
    starts and offsets are negated, exactly, so no lattice-sized pass."""
    width = max(1, math.isqrt(count))
    starts = np.exp(1j * start_phase(width * np.arange(-(-count // width))))
    inner = np.exp(1j * inner_phase(np.arange(width)))
    if parity is not None:  # negations, which are exact
        flip = ((slice((parity + 1) % 2, None, 2),) if width % 2
                else (slice(None),) if parity % 2 else None)
        if flip:
            np.negative(starts[(..., *flip)], out=starts[(..., *flip)])
        np.negative(inner[..., 1::2], out=inner[..., 1::2])
    table = starts[..., :, None] * inner[..., None, :]
    return table.reshape(table.shape[:-2] + (-1,))[..., :count]


def premium_moments(axes, spec: BasketSpec, boundary):
    """Weighted time moments of the early-exercise integrand at strike 1,
    on the one-asset contour ``axes`` and the time grid of ``boundary``.

    With u_l = ``boundary.u[l]`` the market's strike-1 critical price at
    node l, X_l(w) = u_l^w exp(-t_l (Psi(wi) + r)) and the grid's nodes t_l
    and weights c_l, returns a read-only array of shape (2, count) whose
    entry e is A_e = sum_l c_l u_l^e X_l(w), over the nodes with t_l > 0
    and u_l > 0; node 0 is the S-space step :func:`node0_step`.  The
    curve's own strike is never read, so every strike of one market reads
    the same bytes.  Single-asset only.

    The pass is the band-limited stream of the module docstring
    ("Premium transform"); the terms it drops, all positive reals at
    b = 0, stay below M e^-TAIL (about 2e-24 at M = 250) of the peak.  It
    also sums the t-weighted moments T_e = sum_l c_l t_l u_l^e X_l(w), so
    a market's quotes, calls and American greeks share one pass
    (:func:`premium_sums`).
    """
    return premium_sums(axes, spec, boundary)[0]


def premium_sums(axes, spec: BasketSpec, boundary):
    """(A, H_1, H_t): the moments A of :func:`premium_moments`, the premium
    transform H_1 = q/(w+1) A1 - r/w A0 (:func:`premium_transform`) and
    H_t = q/(w+1) T1 - r/w T0 on the t-weighted moments, which an American
    greek reads.  One pass makes all three; they are kept, read-only, in a
    dict that is one entry of ``boundary._moment_cache``, with the American
    transform (:func:`put_transform`), keyed on the exact bytes of all the
    pass reads (r, q, sigma, the 1 x 1 correlation, the grid's tau, nodes
    and weights, u and the axis; no strike, no spot), so a hit is what a
    recompute gives, bit for bit.  One cache lookup per call.
    """
    memo = _premium_memo(axes, spec, boundary)
    if "t_premium" not in memo:  # written last, so the rest is there
        (a0, a1), (t0, t1) = _moment_pass(axes[0], spec, boundary)
        w = axes[0].points
        f_q, f_r = float(spec.dividends[0]) / (w + 1.0), -spec.rate / w
        for name, got in (("moments", np.array([a0, a1])),
                          ("premium", f_q * a1 + f_r * a0),
                          ("t_premium", f_q * t1 + f_r * t0)):
            got.setflags(write=False)
            memo.setdefault(name, got)
    return memo["moments"], memo["premium"], memo["t_premium"]


def _premium_memo(axes, spec: BasketSpec, boundary):
    """The dict of :func:`premium_sums`, from one cache lookup."""
    if spec.n != 1 or len(axes) != 1:
        raise NotImplementedError("the premium transform is single-asset only")
    times = boundary.grid
    key = (_market_bytes(spec, times.tau), times.key, boundary.u.tobytes(),
           axes[0])
    memo = _moment_cache.get(key)
    if memo is None:
        memo = _moment_cache.add(key, {})
    return memo


def _moment_pass(axis, spec: BasketSpec, boundary):
    """The pass: [p, e] = sum_l c_l t_l^p u_l^e X_l(w), p, e in {0, 1}."""
    times, u = boundary.grid, boundary.u
    t_nodes, t_wgts = times.t, times.c
    live = u > 0.0
    log_s = np.log(np.where(live, u, 1.0))
    base = np.where(live, t_wgts * np.exp(axis.a * log_s), 0.0)
    weights = np.array([base * t_nodes**p * u**e
                        for p in (0, 1) for e in (0, 1)], dtype=complex)

    half, index, conj = _fold(axis)
    size, c, h = half.count, half.first * half.h, half.h
    cov = CovStruct.from_spec(spec)
    psi_r = char_exponent_wi(half.points[:, None], cov) + spec.rate
    step = np.exp(-(t_nodes[1] if times.m > 1 else 0.0) * psi_r)
    keep = _node_cutoffs(half, float(spec.vols[0]), t_nodes)

    moments = np.zeros((weights.shape[0], size), dtype=complex)
    # exp(-t_l (Psi(wi) + r)) at l = lo, from node 1 (t_1 = dt) on
    running = step.copy()
    lo = 1
    while lo < times.m:
        # the following nodes that keep over half of this node's band
        band = int(keep[lo])
        hi = lo + max(1, min(np.count_nonzero(2 * keep[lo:] > band),
                             BLOCK_POINTS // band))
        nodes = slice(lo, hi)
        x = _running_rows(running[:band], step[:band], hi - lo)
        if hi < times.m:
            nxt = int(keep[hi])
            running[:nxt] = x[-1, :nxt] * step[:nxt]
        # s*^(i b_j) = s*^(i (c + h j)), one row per node
        x_l = log_s[nodes, None]
        x *= _exp_table(lambda j: x_l * (c + h * j), lambda j: x_l * (h * j),
                        band)
        moments[:, :band] += weights[:, nodes] @ x
        lo = hi

    out = np.take(moments.reshape(2, 2, size), index, axis=-1)
    np.negative(out.imag, out=out.imag, where=conj)
    return out


def premium_transform(axes, spec: BasketSpec, boundary):
    """Time-quadrature of the early-exercise transform at strike 1, on the
    one-asset contour ``axes`` and the time grid of ``boundary``.

    H(w) = sum_(l >= 1) c_l f(w, s*_l) exp(-t_l (Psi(wi) + r)), with f the
    early-exercise transform at the boundary value s*_l for time-to-expiry
    tau - t_l and c_l the grid's weights; nodes with s*_l = 0 (empty
    exercise region) contribute nothing, and node 0 (t = 0) is the S-space
    step :func:`node0_step`.  For one asset f(w, s*) = s*^w [q s*/(w+1) -
    rK/w], which at s* = K u is K^(w+1) u^w [q u/(w+1) - r/w], so this is
    H_1 = q/(w+1) A1 - r/w A0 on the moments A of :func:`premium_moments`,
    memoised with them (:func:`premium_sums`).  It agrees with the per-node
    sum of ``early_exercise_mellin`` terms to about 1e-14 of its peak
    magnitude (the tests require 1e-13).
    """
    return premium_sums(axes, spec, boundary)[1]


# ---------------------------------------------------------------------------
# the put every contract reduces to
# ---------------------------------------------------------------------------


def _single_asset_only(spec):
    if spec.n != 1:
        raise NotImplementedError(
            "American basket pricing (n >= 2) is not supported")


def reduce_to_put(style, spec: BasketSpec, spots):
    """The put that prices a ``style`` contract on ``spec`` at ``spots``.

    Returns (put spec, put spots, put style, term): the contract's value
    is the put's value at the put spots plus ``term``.  Puts and the
    premium pass through unchanged with term 0.  An American call uses
    put-call symmetry C(S, K, r, q) = P(K, S, q, r); it is single-asset
    only.  A European call uses parity with the basket forward,
    term = sum_i S_i e^(-q_i T) - K e^(-r T) at the contract maturity T.
    """
    spots = np.atleast_1d(np.asarray(spots, dtype=float))
    if style == AMERICAN_CALL:
        _single_asset_only(spec)
        check_finite_spot(spots)  # the spot becomes the put's strike
        put = BasketSpec.single(spots[0], spec.maturity, spec.dividends[0],
                                spec.rate, spec.vols[0])
        return put, np.array([spec.strike]), AMERICAN_PUT, 0.0
    if style == EUROPEAN_CALL:
        tau = spec.maturity
        term = (float(spots @ np.exp(-spec.dividends * tau))
                - spec.strike * math.exp(-spec.rate * tau))
        return spec, spots, EUROPEAN_PUT, term
    if style not in (EUROPEAN_PUT, AMERICAN_PUT, EARLY_EXERCISE_PREMIUM):
        raise ValueError(f"unknown style {style!r}")
    return spec, spots, style, 0.0


def put_boundary(style, spec: BasketSpec, tau, m_steps, mode="corrected"):
    """The exercise boundary :func:`put_transform` needs for ``style``,
    the one place a put's curve is made: None for the European put, else
    the critical-price curve on ``premium_time_grid(m_steps, tau)`` at
    ``spec``'s strike, single-asset only.  The strike-1 curve is memoised
    in ``boundary._curve_cache`` on M, ``mode``, the maturity and the exact
    bytes of r, q, sigma and tau: every route and strike reads one solve."""
    if style == EUROPEAN_PUT:
        return None
    _single_asset_only(spec)
    key = (m_steps, mode, spec.maturity, _market_bytes(spec, tau))
    curve = _curve_cache.get(key)
    if curve is None:
        curve = _curve_cache.add(key, boundary_curve(
            spec, premium_time_grid(m_steps, tau), mode=mode))
    return curve.at(spec.strike)


def put_transform(axes, spec: BasketSpec, tau, style, boundary):
    """Mellin transform of the ``style`` put value on the contour ``axes``.

    The European put's is the discounted payoff transform; the American
    put's subtracts the premium transform from it, and the premium style
    is minus the premium transform alone (that transform integrates the
    negative-valued early-exercise function, so subtracting it adds a
    nonnegative premium).  The American styles are single-asset only and
    need ``boundary`` on a time grid over ``tau`` (``ValueError``
    otherwise).

    This is the transform at strike 1, for a basket as for one asset,
    which every pricer reads at S/K and scales by K (module docstring,
    "Strike"); the European and American ones are memoised read-only
    arrays, the latter next to the premium (:func:`premium_sums`).
    """
    if style == EUROPEAN_PUT:
        return (discounted_payoff_transform(axes, spec, tau) if spec.n > 1
                else unit_payoff_transform(axes, spec, tau))
    if style not in (AMERICAN_PUT, EARLY_EXERCISE_PREMIUM):
        raise ValueError(f"unknown style {style!r}")
    _single_asset_only(spec)
    if boundary is None:
        raise ValueError(f"{style} needs a boundary")
    if boundary.grid.tau != tau:
        raise ValueError(f"boundary curve is not on the time grid over "
                         f"tau = {tau} (tau = {boundary.grid.tau})")
    premium = premium_transform(axes, spec, boundary)
    if style == EARLY_EXERCISE_PREMIUM:
        return -premium
    memo = _premium_memo(axes, spec, boundary)
    if "american" not in memo:
        # the European transform plus the premium style's, bit for bit
        american = unit_payoff_transform(axes, spec, tau) - premium
        american.setflags(write=False)
        memo.setdefault("american", american)
    return memo["american"]


def node0_region(spots, boundary):
    """1{S < s*_0} at ``spots``, counted half at S = s*_0: premium node 0's
    exercise region, where every inversion meets the mean of both sides.
    Empty (0 at every positive spot) where s*_0 = 0."""
    s0 = boundary.strike * boundary.u[0]  # s_star[0], without the rest
    return 0.5 * (1.0 + np.sign(s0 - np.asarray(spots)))


def node0_step(spots, spec: BasketSpec, boundary):
    """Premium node 0 (t = 0, no diffusion) in S space, at ``spots``.

    Its transform c_0 s*_0^w [q s*_0/(w+1) - rK/w] is that of
    c_0 (qS - rK) 1{S < s*_0}, and the put carries minus the premium, so
    this is c_0 (rK - qS) :func:`node0_region`.  :func:`premium_moments`
    leaves the node out; every American reader adds this instead: the
    surface, :func:`contour_price`, and the greeks through their
    multipliers' images.
    """
    r, q = spec.rate, float(spec.dividends[0])
    spots = np.asarray(spots, dtype=float)
    return (boundary.grid.c[0] * (r * spec.strike - q * spots)
            * node0_region(spots, boundary))


def contour_price(spec: BasketSpec, spots, tau, style, boundary, axes,
                  weights):
    """The ``style`` put at ``spots``: K times the :func:`contour_sum` of
    the strike-1 :func:`put_transform` on ``axes`` with ``weights`` at S/K.

    For the American and premium styles premium node 0 (t = 0, no
    diffusion) is not in the transform: it is the step
    c_0 (rK - qS) 1{S < s*_0} in the put, whose 1/|b| tail a truncated sum
    would ring on, so it is added in S space, counted half at S = s*_0
    (:func:`node0_step`), as on the lattice.
    """
    spots = np.atleast_1d(np.asarray(spots, dtype=float))
    values = put_transform(axes, spec, tau, style, boundary)
    out = spec.strike * contour_sum(values, axes, weights, spots / spec.strike)
    if style != EUROPEAN_PUT:
        out += float(node0_step(spots[0], spec, boundary))
    return out


def contour_sum(values, axes, weights, spots):
    """Re sum_k values_k prod_i weights_i[k_i] x_i^(-w_(k_i)) at the point
    x = ``spots`` (S/K for a strike-1 transform): the trapezoid rule on
    Re w = a over the lattice of ``axes``, which ``values`` must fill
    (``ValueError``).

    ``weights`` holds one weight per axis, or one per point of it: the
    cell delta_i / 2 pi on a full lattice; on a contour folded at b = 0,
    h / 2 pi at b = 0 and 2 h / 2 pi at each b > 0 for it and -b;
    :func:`lattice_pieces` gives an FFT lattice's.  Each axis's kernel
    weights_i x_i^(-w) is one :func:`_exp_table`, about 2 sqrt(count)
    exps, and ``values`` is contracted with the kernels one axis at a
    time.  A sum that is not finite raises ``SurfaceQualityError``.
    """
    shape = tuple(ax.count for ax in axes)
    if np.shape(values) != shape:
        raise ValueError(f"values of shape {np.shape(values)} are not on "
                         f"the lattice of shape {shape}")
    log_x = np.log(np.atleast_1d(np.asarray(spots, dtype=float)))
    out = values
    for ax, weight, x in reversed(list(zip(axes, weights, log_x))):
        kernel = _exp_table(lambda j: -x * ax.h * (ax.first + j),
                            lambda j: -x * ax.h * j, ax.count)
        kernel *= np.multiply(weight, math.exp(-ax.a * x))
        out = out @ kernel
    out = float(out.real)
    if not math.isfinite(out):
        raise SurfaceQualityError(f"contour sum {out} is not finite")
    return out


def lattice_pieces(grid: MellinFftGrid, half, edges):
    """The (values, axes, weights) pieces whose :func:`contour_sum` s add
    up to the real output of :func:`invert_transform_lattice` at one point,
    from its samples ``half`` and ``edges`` (``ValueError`` for other
    shapes): the half lattice, and each hyperplane j_i = 0, i < n - 1, its
    half row joined to edge piece i (module docstring, "Hermitian half
    lattice"), with :attr:`Lattice.sum_weights`.
    """
    half_axes, edge_axes = _check_samples(grid, half, edges)
    weights = grid.lattice.sum_weights
    pieces = [(half, half_axes, weights[0])]
    for i, edge in enumerate(edges):
        row = np.asarray(half)[(slice(None),) * i + (slice(0, 1),)]
        pieces.append((np.concatenate([row, edge], axis=-1),
                       edge_axes[i][:-1] + grid.axes[-1:], weights[i + 1]))
    return pieces


# ---------------------------------------------------------------------------
# lattice assembly and inversion
# ---------------------------------------------------------------------------


def _sign(j):
    """(-1)^j for integer indices j."""
    return 1.0 - 2.0 * (j & 1)


def _along(factors):
    """``np.ix_`` of 1-d factors, without its checks."""
    n = len(factors)
    return [f.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, f in enumerate(factors)]


def _phased(x, axes, origin, cells, size):
    """``x`` times (-1)^(sum j) e^(-i sum_i b_i origin_i)
    e^(2 pi i sum_i j_i m_i / N) over the lattice indices j of ``axes``,
    m = ``cells``, N = ``size``, as a new complex array, one factor per
    axis: one :func:`_exp_table`, whose roots of unity are exactly reduced
    integers (j m_i) mod N and which carries the axis's centring signs
    (index j = first + k + N/2 has the parity of first + k, as N/2 is
    even).  So the samples see one multiply per axis."""
    root = 2.0 * math.pi / size
    first, *rest = _along([_exp_table(
        lambda j: -o * ax.h * (ax.first + j)
        + root * ((ax.first + size // 2 + j) * m % size),
        lambda j: -o * ax.h * j + root * (j * m % size), ax.count,
        parity=ax.first)
        for ax, o, m in zip(axes, origin, cells)])
    out = np.multiply(x, first, dtype=complex)
    for factor in rest:
        out *= factor
    return out


def _mirror(x):
    """x[-j mod N] along every axis."""
    return x[np.ix_(*(-np.arange(m) % m for m in x.shape))]


def sample_transform(grid: MellinFftGrid, fn):
    """``fn(axes)`` on the half lattice and on each edge piece.

    ``fn`` maps a tuple of :class:`Axis` to the transform on their
    lattice; the result is the (half, edges) input of
    :func:`invert_transform_lattice` and :func:`lattice_pieces`.
    """
    half, edges = grid.lattice.parts
    return fn(half), [fn(axes) for axes in edges]


def _check_samples(grid: MellinFftGrid, half, edges):
    """Raise ``ValueError`` unless ``half`` and ``edges`` have the shapes of
    the half lattice and the edge pieces; returns the axes of those."""
    half_axes, edge_axes = grid.lattice.parts
    shapes = [tuple(ax.count for ax in axes)
              for axes in [half_axes] + edge_axes]
    if (len(edges) != grid.n - 1
            or [np.shape(x) for x in [half] + list(edges)] != shapes):
        raise ValueError(f"transform samples must have shapes {shapes}")
    return half_axes, edge_axes


def _strike_shift(grid: MellinFftGrid, strike):
    """(origin, m): log price s - ln K is index k - m on the lattice with
    this origin, m whole cells of ln K per axis.  An index shift is an
    exact integer phase, so |b origin| stays at most pi, as for K = 1."""
    shift, lams = math.log(strike), grid.lams.tolist()
    cells = [round(shift / lam) for lam in lams]  # half to even, as rint
    return [o - (shift - m * lam) for o, m, lam in zip(
        grid.origin.tolist(), cells, lams)], cells


def invert_transform_lattice(grid: MellinFftGrid, half, edges, strike=1.0):
    """Invert a Mellin transform of a real payoff sampled on the lattice.

    ``half`` holds the transform values at a + i b_j (no sign factors) on
    the half lattice j_n <= N/2, and ``edges[i]`` those on edge piece i
    (j_i = 0, j_n > N/2) for i < n - 1; :func:`sample_transform` makes
    both.  Returns (values, imag_residual): the real inverse on the full
    log-price lattice and the largest imaginary part over its central half.
    With ``strike`` K the samples are the transform of P_1 and the values
    and the residual are K P_1(S/K): whole cells m of -ln K move the
    output by the exact roots e^(2 pi i j m / N) of the input, the rest
    is in the origin phase (:func:`_strike_shift`, :func:`_phased`).

    The transform of a real payoff satisfies T(conj w) = conj T(w), and
    the lattice pairs b_j with -b_j at index -j mod N, so the FFT input
    X_j = (-1)^(sum j) e^(-i b_j . origin) T(a + i b_j) is Hermitian except
    on the hyperplanes j_i = 0, whose frequency -N delta/2 has no mirror.
    Its Hermitian part H gives the real surface, N^n irfftn(conj H) over
    the half.  Its anti-Hermitian part E lives only on those hyperplanes;
    E's inverse is the imaginary part, so the residual is the exact
    truncation at the unpaired edges, one (n-1)-dimensional FFT per
    hyperplane (each keeping the points not on an earlier one).  The corner
    is real-ified, the trapezoid average of its conjugate pair, so for
    n = 1, where it is the only unpaired point, the residual is 0 and is
    not computed.
    """
    n, N, lat = grid.n, grid.size, grid.lattice
    half_axes, edge_axes = _check_samples(grid, half, edges)
    origin, cells = _strike_shift(grid, strike)
    arr = _phased(half, half_axes, origin, cells, N)
    arr[(0,) * n] = arr[(0,) * n].real
    spectra = []
    for i in range(n if n > 1 else 0):
        # hyperplane j_i = 0, whole along the other axes; for i < n - 1 its
        # j_n > N/2 part comes from the edge piece
        on_plane = (slice(None),) * i + (0,)
        if i < n - 1:
            missed = _phased(edges[i], edge_axes[i], origin, cells,
                             N)[on_plane]
            plane = np.concatenate([arr[on_plane], missed], axis=-1)
        else:
            plane = arr[on_plane]
        anti = 0.5 * (plane - np.conj(_mirror(plane)))
        for l in range(i):
            anti[(slice(None),) * l + (0,)] = 0.0
        # leave the Hermitian part in the half lattice
        arr[on_plane] -= anti[..., :N // 2 + 1] if i < n - 1 else anti
        spectra.append(np.fft.fftn(anti, axes=tuple(range(n - 1))))

    # (-1)^(k - m) exp(-a s_k), s_k = origin + (k - m - N/2) lam, per
    # axis; the cell volume and K ride on the first
    scale = _sign(np.array(cells)) * np.exp([
        -a * (o - m * lam) for a, o, m, lam in zip(
            grid.strip_a.tolist(), origin, cells, grid.lams.tolist())])
    scale[0] *= strike * grid.delta_b / (2.0 * math.pi) ** n
    readout = [r * s for r, s in zip(lat.readout, scale)]
    # irfftn's passes in place: fresh lattice-sized temporaries page-fault
    np.conjugate(arr, out=arr)
    for i in range(n - 1):
        np.fft.ifft(arr, axis=i, norm="forward", out=arr)
    values = np.fft.irfft(arr, N, axis=-1, norm="forward")
    for factor in _along(readout):
        values *= factor

    if not spectra:
        return values, 0.0
    central = lat.central
    # the imaginary part of the sum, from the spectra's own, bit for bit
    imag = sum(np.expand_dims(spectrum[central[1:]].imag, i)
               for i, spectrum in enumerate(spectra))
    for factor in np.ix_(*(np.abs(r[c]) for r, c in zip(readout, central))):
        imag = imag * factor
    return values, float(np.abs(imag).max())


@dataclass(frozen=True)
class PriceSurface:
    """Option values on the full log-price lattice.

    ``imag_residual`` is the largest imaginary part of the inverse over the
    central half of the lattice: the exact truncation left by the unpaired
    edge frequencies -N delta/2 (see :func:`invert_transform_lattice`),
    0 for one asset.  ``clamped_points`` counts the material negatives the
    quality gate reads: central-half values below -NEGATIVE_MATERIAL_TOL K.
    Every negative value, rounding and edges included, is clamped to 0.
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


def price_surface(spec: BasketSpec, grid: MellinFftGrid, tau, style,
                  boundary=None):
    """Full put-price surface for the requested style.

    American pricing (and the premium style) is single-asset only and
    requires ``boundary`` on a time grid of the lattice's M steps over
    ``tau`` (``ValueError`` otherwise); the premium uses that grid's
    weights.  Its node 0 is added in S space (:func:`node0_step`) at the
    lattice prices exp(s_k) below s*_0, and at the landing index at the
    grid's ``target_S`` itself, so a landing value sits on the side of the
    step its spot lies on, half at S = s*_0.

    The quality gates on the central half of the lattice raise
    ``SurfaceQualityError`` or ``ImagResidualTooLarge``.
    """
    if grid.n != spec.n:
        raise ValueError("grid and spec dimensions disagree")
    check_tau(tau)
    if (boundary is not None and spec.n == 1
            and boundary.grid.m != grid.m_steps):
        raise ValueError(f"boundary curve of {boundary.grid.m} nodes is not "
                         f"on the time grid (M = {grid.m_steps})")

    # Quality gates are scoped to the central half of the lattice: toward
    # the edges the exp(-a's) read-out factor amplifies the (negligible
    # there) integrand truncation exponentially, so edge values carry no
    # quality signal.
    values, imag_resid = invert_transform_lattice(grid, *sample_transform(
        grid, lambda axes: put_transform(axes, spec, tau, style, boundary)),
        strike=spec.strike)
    s0 = 0.0 if style == EUROPEAN_PUT else boundary.s_star[0]
    if s0:
        # node 0's step c_0 (rK - qS) at the lattice prices below s*_0,
        # e^origin e^((k - N/2) lam), which ascend: affine in them, but
        # node0_step itself on the two points next to s*_0, which round to
        # either side of it, and at the landing index on its spot
        at_origin, prices = math.exp(grid.origin[0]), grid.lattice.unit_prices
        edge = int(np.searchsorted(prices, s0 / at_origin))
        c0, q = boundary.grid.c[0], float(spec.dividends[0])
        step = prices[:edge + 1] * -(c0 * q * at_origin)
        step += c0 * spec.rate * spec.strike
        exact = {k: at_origin * prices[k] for k in (edge - 1, edge)
                 if 0 <= k < step.size}
        landing = grid.landing_index
        if landing is not None and landing[0] < step.size:
            exact[landing[0]] = grid.target_S[0]
        step[list(exact)] = node0_step(np.array(list(exact.values())), spec,
                                       boundary)
        values[:step.size] += step
    central_vals = values[grid.lattice.central]
    low = central_vals.min()  # NaN if any is
    if not (math.isfinite(low) and math.isfinite(central_vals.max())):
        raise SurfaceQualityError("surface value not finite in the central "
                                  "half of the lattice")
    if imag_resid >= IMAG_RESIDUAL_TOL * spec.strike:
        raise ImagResidualTooLarge(
            f"imaginary residual {imag_resid:g} >= "
            f"{IMAG_RESIDUAL_TOL * spec.strike:g}")

    eps_neg = NEGATIVE_CLAMP_TOL * spec.strike
    if low < -eps_neg:
        raise SurfaceQualityError(f"surface value {low:g} below -{eps_neg:g}")
    # Truncation leaves +-1e-8-scale sign noise where the true value is 0;
    # only material negatives count against the quality budget.
    eps_material = NEGATIVE_MATERIAL_TOL * spec.strike
    clamped = (int(np.count_nonzero(central_vals < -eps_material))
               if low < -eps_material else 0)
    share = clamped / central_vals.size
    if share > MAX_CLAMPED_FRACTION:
        raise SurfaceQualityError(f"{share:.1%} of central lattice points "
                                  f"below -{eps_material:g}")
    np.maximum(values, 0.0, out=values)  # NaN and -0.0 stay, as for a mask
    values.setflags(write=False)
    return PriceSurface(grid=grid, values=values, style=style, tau=float(tau),
                        imag_residual=imag_resid, clamped_points=clamped)


# ---------------------------------------------------------------------------
# call drivers
# ---------------------------------------------------------------------------


def landing_surface(spec: BasketSpec, spots, tau, style, size, m_steps=250,
                    strip_a=1.0, delta_target=0.25,
                    boundary_mode="corrected"):
    """The ``style`` put's :class:`PriceSurface` on a lattice that lands
    on ``spots``; its ``landing_value()`` is the price at ``spots``.  The
    one chain of the quotes, :func:`greek_fd` and the CLI: the market's
    curve (:func:`put_boundary`), the grid (:func:`build_grid`) and one
    :func:`price_surface`.
    """
    curve = put_boundary(style, spec, tau, m_steps, boundary_mode)
    grid = build_grid(spec.n, size, strip_a, spots, m_steps, delta_target)
    return price_surface(spec, grid, tau, style, boundary=curve)


def price_put(spot, strike, rate, dividend, vol, tau, style=AMERICAN_PUT,
              size=2**14, m_steps=250, strip_a=1.0, delta_target=0.25,
              boundary_mode="corrected"):
    """Single-asset put price at ``spot`` with the grid landing on it.

    Returns (value, surface), :func:`landing_surface`'s: a warm quote
    computes only what its spot and strike move (module docstring,
    "Strike").
    """
    spec = BasketSpec.single(strike, max(tau, 1e-12), rate, dividend, vol)
    surf = landing_surface(spec, [spot], tau, style, size, m_steps, strip_a,
                           delta_target, boundary_mode)
    return surf.landing_value(), surf


def price_american_call(spot, strike, rate, dividend, vol, tau, **grid_kw):
    """American call through :func:`reduce_to_put` and :func:`price_put`.

    The symmetric put has spot K and strike S, so the lattice lands on
    ln(strike-of-the-call); grid keywords are forwarded to
    :func:`price_put`.
    """
    put, spots, style, _ = reduce_to_put(AMERICAN_CALL, BasketSpec.single(
        strike, max(tau, 1e-12), rate, dividend, vol), [spot])
    return price_put(spots[0], put.strike, put.rate, put.dividends[0],
                     put.vols[0], tau, style, **grid_kw)[0]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


CSV_CHUNK_ROWS = 2**14


def surface_to_csv(surface: PriceSurface, fp):
    """index_1..n, logS_1..n, S_1..n, value, trusted rows over the full
    lattice.

    ``trusted`` is 1 on the central half of the lattice, the part the
    quality gates of :func:`price_surface` check, and 0 toward the edges,
    where the exp(-a s) read-out amplifies rounding and the values are no
    prices.  Rows are in C order of the lattice index and every real is
    written as ``%.12g``; each chunk of CSV_CHUNK_ROWS rows is formatted as
    one block.
    """
    g = surface.grid
    head = ([f"index_{i+1}" for i in range(g.n)]
            + [f"logS_{i+1}" for i in range(g.n)]
            + [f"S_{i+1}" for i in range(g.n)] + ["value", "trusted"])
    fp.write(",".join(head) + "\n")
    row_fmt = ",".join(["%d"] * g.n + ["%.12g"] * (2 * g.n + 1)
                       + ["%d"]) + "\n"
    logs = [g.log_prices(i) for i in range(g.n)]
    # math.exp per axis: the text must not depend on numpy's exp rounding
    spots = [np.array([math.exp(v) for v in x]) for x in logs]
    central = g.lattice.central
    values = surface.values.ravel()
    for lo in range(0, values.shape[0], CSV_CHUNK_ROWS):
        rows = np.arange(lo, min(lo + CSV_CHUNK_ROWS, values.shape[0]))
        idx = np.unravel_index(rows, surface.values.shape)
        trusted = np.logical_and.reduce(
            [(c.start <= j) & (j < c.stop) for c, j in zip(central, idx)])
        cols = (list(idx) + [x[j] for x, j in zip(logs, idx)]
                + [s[j] for s, j in zip(spots, idx)] + [values[rows],
                                                        trusted])
        # indices ride along as exact floats; %d prints them as integers
        block = np.column_stack(cols).ravel().tolist()
        fp.write(row_fmt * rows.shape[0] % tuple(block))


def surface_to_json(surface: PriceSurface):
    """The grid, the style and the values in C order of the lattice index.

    ``trusted`` holds one half-open index range [start, stop) per
    dimension: the central half of the lattice that the quality gates of
    :func:`price_surface` check.  Values outside it are kept but are
    amplified rounding, not prices.
    """
    g = surface.grid
    return {
        "grid": {
            "N": g.size,
            "a": list(map(float, g.strip_a)),
            "delta": list(map(float, g.deltas)),
            "lambda": list(map(float, g.lams)),
            "origin": list(map(float, g.origin)),
            "M": g.m_steps,
        },
        "tau": surface.tau,
        "style": surface.style,
        "values": [float(v) for v in surface.values.ravel(order="C")],
        "trusted": [[c.start, c.stop] for c in g.lattice.central],
    }
