"""Rate-invariant comparison of covariance trajectories.

A trajectory is represented by its start point together with its transported
square-root vector field (TSRVF): the velocity field, scaled by the inverse
square root of its speed and parallel-transported along the trajectory back
to the start point.  The unaligned distance ``dist_dc`` combines the geodesic
distance between start points with the L2 gap between TSRVFs (the first one
carried across the baseline geodesic).  The aligned distance ``align_dq``
minimizes that gap over endpoint-preserving time warps.

Every trajectory lies on the uniform grid of [0, 1]: sample k of T sits at
``linspace(0, 1, T)[k]`` (`estimation.grid_times`), so a time is a point of
[0, 1] and a one-sample trajectory is constant on it.  Both distances work
on stacked samples.  One walk over a trajectory's input samples (`_walk`)
gives its values at times in [0, 1], a block at a time: it decomposes each
input interval once and builds the block's points on it together.
Resampling (``resample_trajectory``, and ``apply_warp``, which reads the
input at the warped grid ``gamma(t_k)``) gathers the blocks into a stack.
The TSRVF features take them as they come, in one pass: each consecutive
pair of points is decomposed once, which gives the forward velocity and
the transport rotation (transport backwards along a geodesic is the
transpose), both from one SVD (`geometry.log_map_and_rotation`).  The backward difference at the last
sample, carried back to the start, equals the row before it, since a
geodesic's velocity is parallel along it.

The warp search follows the fast approximation: dynamic programming over
monotone lattice paths with local moves {(1,1), (1,2), (2,1)}, followed by a
local refinement of the warp that removes the staircase artifacts of the
lattice path.  The refinement is a monotone spectral projected gradient in
increment space: the warp increments stay in the slope window ``[1/3, 3]``
with unit sum, a step is taken only when it lowers the cost, so the last
iterate is the result.  It stops once a projected step predicts, or an
accepted step achieved, a relative change of d_q below 5e-8: the cost is
only piecewise smooth in the knots (q2 is linearly interpolated), and at a
kink the predicted decrease stays large while the steps gain nothing.
The refinement is needed to reach near-zero residuals on self-warped
pairs; the lattice path alone leaves a systematic positive residual from
its quantized slopes.

Aligning a to b and b to a is one problem seen from two sides, so an
unordered pair gets one warp search: it puts the pair in a canonical order,
builds one transport and one Gram table, and scores every refined warp
and its inverse in both directions.  Swapping the pair swaps the results
bit for bit.  The searches of a list of pairs share one pool of refinement
lanes, one array row per lane: each round scores the trial warps of every
live lane with one stacked cost evaluation and projects the steps of the
lanes that moved in one batch.  A pair holds a slot of one Gram stack while
its lanes run; pairs that enter together run their lattice DPs row by row
together, and new pairs enter as slots free up.  Every row of a stacked
computation is computed exactly as it would be alone, so a pair's results
do not depend on the other pairs.

Trajectories are determinant-normalized before comparison, and before they
are resampled: in exact arithmetic that is the same as after, since the
quotient geodesic keeps the determinant at one and the log-det track
interpolates linearly.  The walk runs on the unit-determinant parts, so
neither the features nor ``resample_trajectory``, which keeps the split,
decompose a resampled sample again.  The scalar log-det track can
optionally be carried along as an extra flat channel with weight ``w_det``.

Memory: the stages that would build temporaries the size of a whole
``(T, n, n)`` stack (the walk, the TSRVF features, their transport, the
Gram tables' row sums and the unaligned integrand) go in blocks of one
fixed byte budget, `geometry._BLOCK_BYTES`, and write each block's rows
straight into their result.  A stage then holds its inputs, its output and
a few blocks, not several stacks: at n=100 a 100-sample stack is 8 MB and a
block is 16 matrices.  So the features hold no resampled stack.  Only the
warp search's Gram product takes a pair's transported rows whole, in one
GEMM, since a GEMM over blocks of rows gives other bits.  Every per-matrix
LAPACK call, GEMM and row sum is the one the whole stack would make, so the
results do not depend on the budget.  A small-n trajectory fits in one
block.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .estimation import (
    CovarianceTrajectory,
    _built,
    _require_pd_samples,
    grid_times,
    normalize_trajectory,
)
from .geometry import (
    DimensionMismatchError,
    _blocks,
    _eigh_pd,
    _geodesic_block,
    dist_unitdet,
    log_map,  # unused here; perfbench/tracer.py wraps alignment.log_map
    log_map_and_rotation,
    pair_matrix,
    transport_rotation,
)

log = logging.getLogger(__name__)

# Velocities with norm below this are treated as zero in the TSRVF scaling.
_ZERO_SPEED = 1e-14
# Lattice moves of the dynamic program: (steps in t, steps in warped time).
_DP_MOVES = ((1, 1), (1, 2), (2, 1))
# Warp slopes are confined to this window; without it the discrete cost is
# ill-posed (pinching warps) and loses its symmetry between directions.  The
# refinement optimizes inside the window: no iterate ever leaves it.
_SLOPE_MIN = 1.0 / 3.0
_SLOPE_MAX = 3.0
# The refinement stops once a projected step predicts a cost decrease below
# this fraction of the cost, or an accepted step lowered the cost by less
# than this fraction of its new value (the relative-reduction stop of
# L-BFGS-B); as d_q^2 >= cost, d_q moves by less than half of it, relatively.
_REFINE_RTOL = 1e-7
# Gaussian width, in grid steps, of the smoothing applied to a lattice path
# before it seeds the refinement.
_PRESMOOTH_WIDTH = 2.0
# A refinement that has not stopped after this many steps is not converged.
_REFINE_MAXITER = 400


@dataclass(frozen=True)
class WarpingFunction:
    """Piecewise-linear, endpoint-preserving, strictly increasing warp of [0, 1]."""

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.knots_x, dtype=float)
        y = np.asarray(self.knots_y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("warp knots must be two equal-length 1-D arrays")
        if abs(x[0]) > 1e-12 or abs(x[-1] - 1.0) > 1e-12:
            raise ValueError("warp domain knots must start at 0 and end at 1")
        if abs(y[0]) > 1e-12 or abs(y[-1] - 1.0) > 1e-12:
            raise ValueError("warp must preserve endpoints: gamma(0)=0, gamma(1)=1")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("warp must be strictly increasing")
        x = x.copy()
        y = y.copy()
        x[0], x[-1] = 0.0, 1.0
        y[0], y[-1] = 0.0, 1.0
        object.__setattr__(self, "knots_x", x)
        object.__setattr__(self, "knots_y", y)

    def __call__(self, t):
        return np.interp(t, self.knots_x, self.knots_y)

    def invert(self) -> "WarpingFunction":
        return WarpingFunction(knots_x=self.knots_y, knots_y=self.knots_x)

    @classmethod
    def identity(cls, T: int = 2) -> "WarpingFunction":
        g = np.linspace(0.0, 1.0, T)
        return cls(knots_x=g, knots_y=g.copy())


@dataclass(frozen=True)
class TrajectoryPair:
    """Two trajectories of equal matrix dimension (lengths may differ)."""

    first: CovarianceTrajectory
    second: CovarianceTrajectory

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise DimensionMismatchError(
                f"trajectory dimensions differ: {self.first.dim} vs {self.second.dim}"
            )


def _walk(traj: CovarianceTrajectory, s: np.ndarray):
    """Trajectory values at times ``s`` in [0, 1], one block of `geometry._blocks` at a time.

    Yields ``(block, values, smallest)``: a slice of ``s``, the values at
    those times and the smallest eigenvalue of each interpolated value, inf
    for a stored sample.  Points within 1e-12 (relative to their interval)
    of a stored sample take that sample; the others lie on the geodesic of
    their input interval (`geometry._geodesic_block`).  An interval's pair
    matrix is decomposed in the first block with a point on it, and the
    decomposition of a block's last interval carries into the next block, so
    for increasing ``s`` each interval is decomposed once.
    """
    times, mats = traj.times, traj.matrices
    bad = (s < -1e-12) | (s > 1.0 + 1e-12)
    if bad.any():
        raise ValueError(f"time {s[bad][0]} outside trajectory range [0, 1]")
    n = traj.dim
    # a one-sample trajectory has no interval: it reads its sample at every time
    k, u = np.zeros(s.size, dtype=np.intp), np.zeros(s.size)
    if traj.length > 1:
        s = np.clip(s, 0.0, 1.0)
        k = np.clip(np.searchsorted(times, s, side="right") - 1, 0, traj.length - 2)
        u = (s - times[k]) / (times[k + 1] - times[k])
    inner = (u > 1e-12) & (u < 1 - 1e-12)
    stored = np.where(u >= 1 - 1e-12, k + 1, k)
    carried = -1, np.empty(n), np.empty((n, n))  # the last decomposed interval

    def block(b: slice) -> tuple[np.ndarray, np.ndarray]:
        nonlocal carried
        values = mats[stored[b]]
        smallest = np.full(values.shape[0], np.inf)
        i = inner[b]
        if i.any():
            ks, j = np.unique(k[b][i], return_inverse=True)
            w, U = np.empty((ks.size, n)), np.empty((ks.size, n, n))
            new = ks != carried[0]
            w[~new], U[~new] = carried[1:]
            if new.any():
                w[new], U[new] = _eigh_pd(pair_matrix(mats[ks[new]], mats[ks[new] + 1]))
            carried = ks[-1], w[-1].copy(), U[-1].copy()
            values[i], smallest[i] = _geodesic_block(mats[ks], w, U, j, u[b][i])
        return values, smallest

    # no name here holds a yielded block, so a caller that drops it frees it
    for b in _blocks(mats, s.size):
        yield b, *block(b)


def _evaluate(traj: CovarianceTrajectory, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory values at times ``s`` by geodesic interpolation of stored samples (`_walk`).

    Also returns the smallest eigenvalue of each interpolated value, and inf
    for a stored sample.
    """
    values = np.empty((s.size, traj.dim, traj.dim))
    smallest = np.empty(s.size)
    for b, block, least in _walk(traj, s):
        values[b], smallest[b] = block, least
    return values, smallest


def resample_trajectory(traj: CovarianceTrajectory, T_out: int) -> CovarianceTrajectory:
    """Geodesic resampling onto the uniform grid of ``T_out`` points of [0, 1].

    A trajectory of ``T_out`` samples already lies on that grid and is
    returned as it is.  Otherwise the input samples are
    determinant-normalized first: their unit-determinant parts are
    resampled on the quotient geodesic and the log-det track linearly,
    which in exact arithmetic is the geodesic of the samples themselves
    (`geometry._geodesic_block`).  The result carries that split, so
    `normalize_trajectory` decomposes none of its samples again, and its
    arrays are read-only.
    """
    if T_out < 1:
        raise ValueError("T_out must be positive")
    if T_out == traj.length:
        return traj
    s = grid_times(T_out)
    unit, track = normalize_trajectory(traj)
    units, smallest = _evaluate(unit, s)
    track = np.interp(s, traj.times, track)
    scale = np.exp(track)
    _require_pd_samples(smallest * scale)  # the stored samples were checked
    mats = units * scale[:, None, None]
    for a in (mats, units, track):
        a.flags.writeable = False
    return _built(mats, split=(_built(units), track))


@dataclass(frozen=True)
class _Features:
    """Flattened TSRVF features of a normalized trajectory."""

    start: np.ndarray  # unit-determinant start matrix
    start_inv: np.ndarray  # its inverse, computed once for all of the item's pairs
    start_logdet: float
    q: np.ndarray  # (T, n*n [+1]) flattened feature rows
    n: int
    with_logdet: bool
    w_det: float


def _chain_rotations(O: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Overwrite O with the rotations that carry identity-chart coords back to sample 0.

    ``O[k]`` is the transport rotation from sample k to k+1 of a block, and
    ``R`` the rotation that carries the block's first sample back; transport
    from k+1 back to k is the transpose, so ``R[k+1] = R[k] O[k]^T``.
    Returns the rotation of the sample after the block.
    """
    for k in range(O.shape[0]):
        O[k], R = R, R @ O[k].T
    return R


def _trajectory_features(
    traj: CovarianceTrajectory, grid: int, include_logdet: bool, w_det: float | None
) -> _Features:
    """TSRVF of ``traj`` resampled onto ``grid`` points and determinant-normalized.

    The rows are those of the features of ``resample_trajectory(traj,
    grid)``, bit for bit, but no resampled stack is built: the walk over the
    input samples (`_walk`) gives one block of unit-determinant points at a
    time, and the block's consecutive pairs, with the previous block's last
    point in front, go straight to `geometry.log_map_and_rotation`.  Row k
    is the velocity at sample k (the forward geodesic difference, and the
    backward one at the last sample), carried back to the start point by a
    running rotation and scaled by the inverse square root of its speed;
    zero-speed rows are zero.  Each block's rows are scaled as they are
    written into the result, so the log-det channel's column costs no copy.
    """
    if grid < 2:
        raise ValueError("TSRVF needs at least 2 samples")
    unit, track = normalize_trajectory(traj)
    s = grid_times(grid)
    track = np.interp(s, traj.times, track)  # the track itself when ``grid`` is its length
    n = unit.dim
    if w_det is None:
        w_det = 1.0 / n
    dts = np.diff(s)
    sdot = np.gradient(track, s) if include_logdet else None

    def scale(rows: slice, speed: np.ndarray) -> np.ndarray:
        if include_logdet:
            speed = np.sqrt(speed**2 + w_det * sdot[rows] ** 2)
        return np.where(speed > _ZERO_SPEED, 1.0 / np.sqrt(np.maximum(speed, _ZERO_SPEED)), 0.0)

    q = np.empty((grid, n * n + include_logdet))
    scales, smallest = np.empty(grid), np.empty(grid)
    R = np.eye(n)
    P = np.empty((0, n, n))  # the previous block's last point
    for b, points, least in _walk(unit, s):
        smallest[b] = least
        P = np.concatenate([P, points])
        del points
        if P.shape[0] < 2:  # a first block of one point has no pair
            continue
        V, O = log_map_and_rotation(P[:-1], P[1:])
        P = P[-1:].copy()
        r = slice(b.stop - 1 - V.shape[0], b.stop - 1)  # the rows of the block's pairs
        V /= dts[r, None, None]
        speed = np.linalg.norm(V, axis=(1, 2))
        scales[r] = scale(r, speed)
        R = _chain_rotations(O, R)
        RV = O @ V
        del V
        rows = np.matmul(RV, O.transpose(0, 2, 1))
        del O, RV
        np.multiply(rows, scales[r, None, None], out=q[r, : n * n].reshape(-1, n, n))
        last = rows[-1].copy()  # unscaled: the last sample's row repeats it
        del rows  # before the next block is built
    scales[-1:] = scale(slice(grid - 1, grid), speed[-1:])  # and so does its speed
    np.multiply(last, scales[-1], out=q[-1, : n * n].reshape(n, n))
    _require_pd_samples(smallest * np.exp(track))  # as `resample_trajectory` checks
    if include_logdet:
        q[:, n * n] = np.sqrt(w_det) * sdot * scales
    start = unit.matrices[0].copy()  # the first point; a view would keep the stack alive
    return _Features(
        start=start,
        start_inv=np.linalg.inv(start),
        start_logdet=float(track[0]),
        q=q,
        n=n,
        with_logdet=include_logdet,
        w_det=float(w_det),
    )


def _transport(f1: _Features, f2: _Features, out: np.ndarray | None = None) -> float:
    """Carry f1's TSRVF across the baseline geodesic to f2's start point; the identity cost.

    The rows are transported a block at a time, and the cost is the
    unaligned integral of ``||q1p - q2||^2`` by the trapezoid rule on the
    grid.  The rows go into ``out`` when it is given: the warp search's Gram
    product takes them whole, as one GEMM, since a GEMM over blocks of rows
    does not give the same bits.  Otherwise each block is dropped once its
    gaps are summed.
    """
    O = transport_rotation(f1.start, f2.start)
    T, n = f1.q.shape[0], f1.n
    qm = f1.q[:, : n * n].reshape(T, n, n)
    gaps = np.empty(T)
    for b in _blocks(qm):
        rows = np.empty_like(f1.q[b]) if out is None else out[b]
        np.matmul(O @ qm[b], O.T, out=rows[:, : n * n].reshape(-1, n, n))
        rows[:, n * n :] = f1.q[b, n * n :]
        gaps[b] = ((rows - f2.q[b]) ** 2).sum(axis=1)
        del rows
    return float(np.trapezoid(gaps, dx=1.0 / (T - 1)))


def _row_sums(f, *arrays: np.ndarray) -> np.ndarray:
    """``f(*arrays).sum(axis=1)``, one block of rows at a time; each row is summed whole."""
    out = np.empty(arrays[0].shape[0])
    for b in _blocks(arrays[0]):
        out[b] = f(*(a[b] for a in arrays)).sum(axis=1)
    return out


def _start_gap_sq(f1: _Features, f2: _Features) -> float:
    lx = dist_unitdet(f1.start, f2.start, (f1.start_inv, f2.start_inv))
    out = lx * lx
    if f1.with_logdet:
        n = f1.n
        dld = n * (f2.start_logdet - f1.start_logdet)
        out += f1.w_det * dld * dld
    return out


def _swap_to_canonical(f1: _Features, f2: _Features) -> bool:
    """True when ``(f2, f1)`` is the canonical order of the pair.

    The order is that of ``(start.tobytes(), q.tobytes())``, as in
    `geometry.dist_unitdet`.  The rows are compared one at a time, which
    gives the same order without copying whole feature arrays.
    """
    for a, b in zip((f1.start, *f1.q), (f2.start, *f2.q)):
        ka, kb = a.tobytes(), b.tobytes()
        if ka != kb:
            return kb < ka
    return False


def _dc_from_features(f1: _Features, f2: _Features) -> float:
    T = f1.q.shape[0]
    if T == 1:  # the start gap is exactly symmetric on its own
        return float(np.sqrt(_start_gap_sq(f1, f2)))
    if _swap_to_canonical(f1, f2):
        f1, f2 = f2, f1
    return float(np.sqrt(_start_gap_sq(f1, f2) + _transport(f1, f2)))


def dist_dc(
    pair: TrajectoryPair,
    *,
    include_logdet: bool = False,
    w_det: float | None = None,
) -> float:
    """Unaligned trajectory distance.

    ``sqrt(l_x^2 + integral ||q1||(t) - q2(t)||^2 dt)`` where ``l_x`` is the
    geodesic distance between start points and ``q1`` is transported along
    the baseline geodesic; the integral uses the trapezoid rule on the common
    grid (the longer of the two lengths).
    """
    T = max(pair.first.length, pair.second.length)
    if T == 1:
        f1, f2 = (_point_features(tr, include_logdet, w_det) for tr in (pair.first, pair.second))
    else:
        f1, f2 = (
            _trajectory_features(tr, T, include_logdet, w_det) for tr in (pair.first, pair.second)
        )
    return _dc_from_features(f1, f2)


def _point_features(
    traj: CovarianceTrajectory, include_logdet: bool, w_det: float | None
) -> _Features:
    unit, track = normalize_trajectory(traj)
    n = unit.dim
    start = unit.matrices[0]
    return _Features(
        start=start,
        start_inv=np.linalg.inv(start),
        start_logdet=float(track[0]),
        q=np.zeros((1, n * n)),
        n=n,
        with_logdet=include_logdet,
        w_det=float(1.0 / n if w_det is None else w_det),
    )


# ---------------------------------------------------------------------------
# dynamic programming over the warp lattice


@dataclass(frozen=True)
class _PairGrams:
    """Inner-product tables between the TSRVF sample sets of pairs, one slot per pair.

    Every alignment cost is bilinear in linearly interpolated q2 samples, so
    the DP and the refinement only ever need these tables, never the feature
    vectors themselves.  Pair ``p`` gives two directed tables: table ``p``
    aligns q2 to q1, and table ``P + p`` is the mirrored problem (roles of
    the trajectories swapped), which reads ``G[p]`` transposed: transport is
    isometric, so ``<q2 moved to base1, q1> == <q2, q1 moved to base2>``
    exactly.
    """

    N1: np.ndarray  # (P, T)    ||q1||(t_i)||^2
    N2: np.ndarray  # (P, T)    ||q2(s_j)||^2
    G: np.ndarray  # (P, T, T) <q1||(t_i), q2(s_j)>
    C1: np.ndarray  # (P, T-1)  <q1||_k, q1||_{k+1}>
    C2: np.ndarray  # (P, T-1)  <q2_k, q2_{k+1}>

    @classmethod
    def empty(cls, P: int, T: int) -> "_PairGrams":
        return cls(*(np.empty(s) for s in ((P, T), (P, T), (P, T, T), (P, T - 1), (P, T - 1))))

    def fill(self, p: int, f1: _Features, f2: _Features) -> float:
        """Tables of pair ``p`` from f1's TSRVF carried to f2's start point, and f2's.

        Returns the pair's identity cost (`_transport`).
        """
        q1p, q2 = np.empty_like(f1.q), f2.q
        identity = _transport(f1, f2, q1p)
        self.N1[p] = _row_sums(np.square, q1p)
        self.N2[p] = _row_sums(np.square, q2)
        np.matmul(q1p, q2.T, out=self.G[p])
        self.C1[p] = _row_sums(np.multiply, q1p[:-1], q1p[1:])
        self.C2[p] = _row_sums(np.multiply, q2[:-1], q2[1:])
        return identity

    def directed(self, slots=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``N1``, ``N2`` and ``C2`` of the directed tables of ``slots``: forward, then mirrored."""
        return (
            np.concatenate([self.N1[slots], self.N2[slots]]),
            np.concatenate([self.N2[slots], self.N1[slots]]),
            np.concatenate([self.C2[slots], self.C1[slots]]),
        )

    def rows(self, i: int, slots=slice(None)) -> np.ndarray:
        """Row ``i`` of the directed tables of ``slots``: ``G[p, i, :]``, then ``G[p, :, i]``."""
        return np.concatenate([self.G[slots, i], self.G[slots, :, i]])


def _dp_lattice(
    gr: _PairGrams, dt: float, slots=slice(None)
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Minimize the warp cost over monotone lattice paths; knot indices per directed table.

    Edge costs integrate ``||q1(t) - sqrt(m) q2(gamma(t))||^2`` with the
    segment's constant slope m, by the trapezoid rule on the native grid
    (the (2,1) move needs the midpoint of adjacent q2 samples).  The
    directed tables of ``slots`` (forward, then mirrored) advance one row at
    a time together; a row's edge costs are formed from the rows of G it
    reads, and the DP keeps its last two rows.
    """
    N1, N2, C2 = gr.directed(slots)
    K, T = N1.shape
    inf = np.inf
    s2 = np.sqrt(2.0)
    N2mid = np.zeros((K, T))
    N2mid[:, 1:] = 0.25 * (N2[:, :-1] + 2.0 * C2 + N2[:, 1:])

    def terms(i):
        # row i of g1, g2, gh and ghmid: the squared gaps of moves ending there
        Gi = gr.rows(i, slots)
        Gmid = np.zeros((K, T))
        Gmid[:, 1:] = 0.5 * (Gi[:, :-1] + Gi[:, 1:])
        a = N1[:, i, None]
        return (
            a - 2.0 * Gi + N2,
            a - 2.0 * s2 * Gi + 2.0 * N2,
            a - s2 * Gi + 0.5 * N2,
            a - s2 * Gmid + 0.5 * N2mid,
        )

    D1 = np.full((K, T), inf)  # row i-1 of the DP
    D1[:, 0] = 0.0
    D2 = D1  # row i-2
    move = np.zeros((K, T, T), dtype=np.int8)
    prev2 = prev = terms(0)
    for i in range(1, T):
        cur = terms(i)
        cand = np.full((3, K, T), inf)
        cand[0, :, 1:] = D1[:, :-1] + dt / 2.0 * (prev[0][:, :-1] + cur[0][:, 1:])
        cand[1, :, 2:] = D1[:, :-2] + dt / 2.0 * (prev[1][:, :-2] + cur[1][:, 2:])
        if i >= 2:
            cand[2, :, 1:] = D2[:, :-1] + dt * (
                0.5 * prev2[2][:, :-1] + prev[3][:, 1:] + 0.5 * cur[2][:, 1:]
            )
        move[:, i] = np.argmin(cand, axis=0)
        D2, D1 = D1, np.minimum.reduce(cand, axis=0)  # the costs of the moves taken
        prev2, prev = prev, cur

    paths = []
    for mv in move:
        i = j = T - 1
        pi, pj = [i], [j]
        while (i, j) != (0, 0):
            di, dj = _DP_MOVES[mv[i, j]]
            i -= di
            j -= dj
            pi.append(i)
            pj.append(j)
        paths.append((np.array(pi[::-1]), np.array(pj[::-1])))
    return paths


def _cost_evaluator(gr: _PairGrams):
    """Canonical discrete warp cost and its gradient, for a stack of increment vectors.

    Returns ``fg(U, tables) -> (costs, d cost / d U)``: row ``l`` of ``U``
    holds the increments ``u = diff(gamma)`` of a strictly increasing warp,
    scored on directed table ``tables[l]``.  Each interval contributes
    ``dt/2 * sum_ends ||q1|| - sqrt(m) q2(gamma)||^2`` with its constant slope
    ``m``; ``<q1||(t_i), q2(gamma_i)>`` and ``||q2(gamma_i)||^2`` expand
    exactly in the interpolation weight of linearly interpolated q2, so an
    evaluation is O(T) table lookups per row, gathered straight from the
    Gram stack (a mirrored table reads ``G[p, k, i]``).  Every row is
    computed exactly as it would be alone.
    """
    P, T = gr.N1.shape
    h = 0.5 / (T - 1)
    N1, N2, C2 = gr.directed()
    Gf = gr.G.ravel()
    rows = np.arange(T)
    N2l, N2r = N2[:, :-1], N2[:, 1:]
    # ||q2||^2 on cell k at weight w is B0 + w B1 + w^2 B2
    Bf = np.stack([N2l, 2.0 * (C2 - N2l), N2l - 2.0 * C2 + N2r], axis=1).ravel()
    const = h * (N1[:, :-1] + N1[:, 1:]).sum(axis=1)
    # the lookups that depend only on the tables, for the last table array
    # scored: the lane pool passes the same array until its lanes change
    last = [None, None]

    def fg(U: np.ndarray, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if last[0] is not tables:
            # G[p, i, k] of a table, or G[p, k, i] of its mirror, at k = 0
            mirror = (tables >= P)[:, None]
            first = (tables % P * T * T)[:, None] + np.where(mirror, rows, rows * T)
            last[:] = tables, (first, np.where(mirror, T, 1), const[tables],
                               (tables * 3 * (T - 1))[:, None])
        first, step, c0, cell = last[1]
        # temporaries are dropped as soon as they are used: the pool scores
        # many rows at once
        pos = np.zeros((U.shape[0], T))
        np.cumsum(U, axis=1, out=pos[:, 1:])
        pos *= T - 1
        k = np.minimum(pos.astype(np.intp), T - 2)
        w = pos - k
        del pos
        # the cell's entry and the next one
        at = first + k * step
        f = Gf.take(at)
        df = Gf.take(at + step) - f
        f += w * df
        fp = (T - 1) * df
        del df
        at = cell + k
        del k
        B1, B2 = Bf.take(at + (T - 1)), Bf.take(at + 2 * (T - 1))
        b = Bf.take(at) + w * (B1 + w * B2)
        bp = (T - 1) * (B1 + 2.0 * w * B2)
        del at, B1, B2, w
        m = U * (T - 1)
        sm = np.sqrt(m)
        fs = f[:, :-1] + f[:, 1:]
        bs = b[:, :-1] + b[:, 1:]
        del f, b
        cost = c0 + h * (np.vecdot(m, bs) - 2.0 * np.vecdot(sm, fs))
        # d cost / d gamma_j at knots 1..T-1, then through gamma = cumsum(u)
        dg = h * (m * bp[:, 1:] - 2.0 * sm * fp[:, 1:])
        dg[:, :-1] += h * (m[:, 1:] * bp[:, 1:-1] - 2.0 * sm[:, 1:] * fp[:, 1:-1])
        return cost, 0.5 * (bs - fs / sm) + np.cumsum(dg[:, ::-1], axis=1)[:, ::-1]

    return fg


@functools.lru_cache(maxsize=8)
def _presmooth_kernel(T: int) -> tuple[np.ndarray, np.ndarray]:
    """The T x T Gaussian presmoothing kernel and its row sums, read-only (cached per T)."""
    ts = np.linspace(0.0, 1.0, T)
    sig = _PRESMOOTH_WIDTH / (T - 1)
    W = np.exp(-0.5 * ((ts[:, None] - ts[None, :]) / sig) ** 2)
    rows = W.sum(axis=1)
    W.flags.writeable = rows.flags.writeable = False
    return W, rows


def _presmooth_warp(g: np.ndarray) -> np.ndarray:
    W, rows = _presmooth_kernel(g.shape[0])
    gs = (W @ g) / rows
    gs = gs - gs[0]
    return gs / gs[-1]


def _project_slopes(Y: np.ndarray, dt: float) -> np.ndarray:
    """Euclidean projection of each row of increments onto the slope window with unit sum.

    Row ``r`` projects to ``clip(Y[r] - lam_r, dt/3, 3 dt)`` for the shift
    ``lam_r`` that restores the unit sum; ``lam_r`` is found by Newton's
    method on that piecewise-linear sum, safeguarded by bisection, in at most
    64 iterations.  A sum counts as restored once it is within its roundoff,
    ``eps (m + f_r |lam_r|)`` for ``m`` entries of which ``f_r`` are free:
    ``m eps`` from summing to one, and one spacing of the shift per free
    entry.  The second term is far above 1e-15 when a long Barzilai-Borwein
    step makes the shift large.  The rows iterate together, each exactly as
    it would alone, until every sum is restored.
    """
    lo, hi = _SLOPE_MIN * dt, _SLOPE_MAX * dt
    eps = np.finfo(float).eps
    # rounding is monotone, so the bracket min(y) - hi equals min(y - hi)
    a = np.minimum.reduce(Y, axis=1) - hi
    b = np.maximum.reduce(Y, axis=1) - lo
    lam = (np.add.reduce(Y, axis=1) - 1.0) / Y.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            z = Y - lam[:, None]
            u = np.minimum(np.maximum(z, lo), hi)
            excess = np.add.reduce(u, axis=1) - 1.0
            free = np.add.reduce((z > lo) & (z < hi), axis=1, dtype=float)
            going = np.abs(excess) > eps * (Y.shape[1] + free * np.abs(lam))
            if not going.any():
                break
            up = excess > 0
            a = np.where(up, lam, a)
            b = np.where(up, b, lam)
            # with no free entry the Newton step is infinite: bisection takes over
            nxt = lam + excess / free
            # a finished row keeps its shift, so it recomputes the same u
            lam = np.where(going, np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b)), lam)
    return u


class _Lanes:
    """Warp refinements in flight, one array row per lane.

    A lane minimizes the canonical cost of one directed table over warps in
    the slope window, from a seed warp, by a spectral projected gradient
    (Birgin, Martinez & Raydan, SIAM J. Optim. 10(4), 2000) in increment
    space: every iterate ``u = diff(gamma)`` lies in ``{dt/3 <= u_k <= 3 dt,
    sum(u) = 1}``, so it is an endpoint-preserving warp with slopes in
    ``[_SLOPE_MIN, _SLOPE_MAX]``.  A lane starts from the projected seed,
    takes Barzilai-Borwein steps and backtracks until the Armijo test against
    its current cost holds (a monotone line search).  Every accepted step
    lowers the cost, so the last iterate is the lane's result, and it never
    costs more than the projected seed.  It stops as converged when the
    projected step predicts a decrease below ``_REFINE_RTOL`` times the
    cost, when an accepted step lowered the cost by less than
    ``_REFINE_RTOL`` times its new value, or when backtracking finds no
    decrease.  Otherwise it stops after ``maxiter`` steps, logged once, at
    DEBUG, as not converged; a step that reaches the cap and is also that
    flat converges the lane.

    `advance` scores the pending trial of every lane with one stacked cost
    evaluation, accepts or backtracks each lane, and projects the steps of
    the lanes that moved in one batch.  Each lane takes exactly the iterates
    it would take alone, and its row leaves the arrays when it stops.
    """

    # per-lane vectors: the pending trial, the iterate and its gradient, and
    # the projected direction; they live in buffers of ``capacity`` rows
    # made once, so that the rounds allocate only temporaries and the heap
    # does not fragment
    _VECTORS = ("trial", "u", "grad", "d")
    # per-lane scalars and their values in a new lane: caller's id, directed
    # table, steps taken (the start counts as none), the iterate's cost and
    # next step size, directional derivative, backtracking factor.  A new
    # lane has no iterate yet: its cost is +inf, so its start is taken
    _SCALARS = {"owner": 0, "table": 0, "steps": -1, "c": np.inf, "alpha": 0.0,
                "deriv": 0.0, "lam": 0.0}

    def __init__(self, T: int, maxiter: int, capacity: int):
        self.dt = 1.0 / (T - 1)
        self.maxiter = maxiter
        self.rounds = self.evaluations = self.nonconverged = 0
        self.fresh = False  # some lane has not been scored yet
        self.buffers = {name: np.empty((capacity, T - 1)) for name in self._VECTORS}
        self._resize(0)
        for name, value in self._SCALARS.items():
            setattr(self, name, np.empty(0, dtype=np.asarray(value).dtype))

    def __len__(self) -> int:
        return self.owner.shape[0]

    def _resize(self, n: int) -> None:
        """Point the per-lane vectors at the first ``n`` rows of their buffers."""
        for name in self._VECTORS:
            setattr(self, name, self.buffers[name][:n])

    def add(self, owners, tables, seeds: np.ndarray) -> None:
        """New lanes: ``seeds[l]`` refined on directed table ``tables[l]``, reported as ``owners[l]``."""
        n, k = len(self), len(seeds)
        self._resize(n + k)
        self.trial[n:] = _project_slopes(np.diff(seeds, axis=1), self.dt)
        for name in ("u", "grad", "d"):
            getattr(self, name)[n:] = 0.0
        given = {"owner": owners, "table": tables}
        for name, value in self._SCALARS.items():
            old = getattr(self, name)
            new = np.broadcast_to(given.get(name, value), k).astype(old.dtype)
            setattr(self, name, np.concatenate([old, new]))
        self.fresh = True

    def advance(self, fg):
        """One round; returns the owners and refined warps of the lanes that stopped."""
        dt = self.dt
        c_new, g_new = fg(self.trial, self.table)
        self.rounds += 1
        self.evaluations += c_new.shape[0]
        # Armijo test against the iterate's cost
        acc = c_new <= self.c + 1e-4 * self.lam * self.deriv
        # backtrack: safeguarded minimizer of the quadratic through c, deriv, c_new
        back = (~acc).nonzero()[0]
        lam, deriv = self.lam[back], self.deriv[back]
        q = -0.5 * lam * lam * deriv / (c_new[back] - self.c[back] - lam * deriv)
        lam = np.where((0.1 * lam <= q) & (q <= 0.9 * lam), q, 0.5 * lam)
        self.lam[back] = lam
        stop = np.zeros(acc.shape, dtype=bool)
        stop[back] = lam < 1e-10  # no decrease along the projected direction

        # Barzilai-Borwein step size, for the lanes that moved
        s = self.trial - self.u
        sy = np.vecdot(s, g_new - self.grad)
        pos = sy > 0
        alpha = np.where(
            pos, np.minimum(np.maximum(np.vecdot(s, s) / np.where(pos, sy, 1.0), 1e-12), 1e3), 1e3 * dt
        )
        del s
        if self.fresh:
            # the first step moves no increment by much more than a tenth of dt
            first = (self.steps < 0).nonzero()[0]
            g0 = g_new[first]
            spread = np.abs(g0 - g0.mean(axis=1, keepdims=True)).max(axis=1)
            alpha[first] = 0.1 * dt / np.maximum(spread, 1e-300)
            self.fresh = False
        # an accepted step that gained less than the tolerance converges its
        # lane, also the step that reaches the cap (a new lane's gain is inf)
        flat = acc & (self.c - c_new < _REFINE_RTOL * c_new)
        self.c = np.where(acc, c_new, self.c)
        self.alpha = np.where(acc, alpha, self.alpha)
        np.copyto(self.u, self.trial, where=acc[:, None])
        np.copyto(self.grad, g_new, where=acc[:, None])
        del g_new
        self.steps += acc
        # steps grow only when a lane moves, so these reached the cap just now
        failed = (self.steps >= self.maxiter) & ~flat
        stop |= flat | failed

        rows = (acc & ~stop).nonzero()[0]
        u, grad = self.u[rows], self.grad[rows]
        d = _project_slopes(u - self.alpha[rows, None] * grad, dt)
        d -= u
        deriv = np.vecdot(grad, d)  # directional derivative along d
        stop[rows] = -deriv <= _REFINE_RTOL * self.c[rows]
        self.d[rows], self.deriv[rows], self.lam[rows] = d, deriv, 1.0
        del d

        owners, warps = (), ()
        if np.count_nonzero(stop):
            out = stop.nonzero()[0]
            warps = np.zeros((out.size, self.u.shape[1] + 1))
            np.cumsum(self.u[out], axis=1, out=warps[:, 1:])
            warps[:, -1] = 1.0
            owners = self.owner[out]
            for c in self.c[failed]:
                log.debug(
                    "warp refinement not converged after %d iterations (cost %.6g)",
                    self.maxiter,
                    c,
                )
            self.nonconverged += int(np.count_nonzero(failed))
            keep = ~stop
            for name in self._VECTORS:
                kept = getattr(self, name)[keep]
                self.buffers[name][: kept.shape[0]] = kept
            for name in self._SCALARS:
                setattr(self, name, getattr(self, name)[keep])
            self._resize(len(self))
        np.add(self.u, self.lam[:, None] * self.d, out=self.trial)
        return owners, warps


def _pairs_per_block(T: int) -> int:
    """How many pairs on a ``T``-point grid hold Gram slots at once.

    As many as one block budget (`geometry._BLOCK_BYTES`) of Gram tables
    holds, 16 on a 100-point grid, and at least one.
    """
    return max(1, geometry._BLOCK_BYTES // (8 * T * T))


@dataclass
class _Search:
    """A pair in the warp-search pool, from entering a Gram slot to its results."""

    slot: int
    swap: bool  # searched as (f2, f1)
    gap_sq: float
    identity_cost: float
    paths: list = field(default_factory=list)  # each direction's lattice path, as warp knots
    lane_dirs: list = field(default_factory=list)  # each lane's direction, in seed order
    warps: list = field(default_factory=list)  # each lane's refined warp, once it stops


def _dq_from_features(
    pairs: list[tuple[_Features, _Features]],
) -> tuple[list[tuple[float, float, WarpingFunction, WarpingFunction, float]], tuple[int, int, int]]:
    """The warp searches of a list of unordered pairs.

    Returns one ``(d_12, d_21, warp_12, warp_21, d_c)`` per pair, and the
    refinement counters ``(nonconverged, rounds, evaluations)``: lanes
    stopped at their cap, stacked evaluations, and trials scored.  ``d_12``
    aligns f2 to f1 and ``warp_12`` reparameterizes f2; ``d_21`` and
    ``warp_21`` are the mirrored problem.  Each pair is searched in
    canonical order, so swapping its features swaps its outputs bit for bit,
    and a pair's outputs do not depend on the other pairs of the list.
    ``d_c`` is the identity warp's cost, computed exactly as
    `_dc_from_features` computes it, so ``d_q <= d_c`` holds in both
    directions.

    One transport and one Gram table serve both directions of a pair: the
    mirrored problem reads the table transposed, which is exact because
    transport is isometric.  Each direction runs its lattice path and refines
    the presmoothed seeds from its own path and from the other direction's
    inverted path.  A direction scores the identity, its own unrefined
    lattice path and every refined warp of the pair, those of the other
    direction inverted, so the refined candidates of the two directions are
    mirror images.

    The pairs share one pool of refinement lanes (`_Lanes`).  A pair holds
    one of `_pairs_per_block` Gram slots while its lanes run.  Whenever at
    least half the slots are free (or no lane is left), the next pairs are
    transported into them and run their lattice DPs together, and their
    lanes join the pool; when a pair's last lane stops, its candidates are
    scored and its slot is freed.
    """
    P, T = len(pairs), pairs[0][0].q.shape[0]
    dt = 1.0 / (T - 1)
    ts = np.linspace(0.0, 1.0, T)
    S = min(P, _pairs_per_block(T))
    gr = _PairGrams.empty(S, T)
    lanes = _Lanes(T, _REFINE_MAXITER, 4 * S)
    free = list(range(S - 1, -1, -1))
    searches: dict[int, _Search] = {}
    results = [None] * P
    entered = 0
    while entered < P or len(lanes):
        if entered < P and (len(free) >= min((S + 1) // 2, P - entered) or not len(lanes)):
            batch = range(entered, min(P, entered + len(free)))
            entered = batch.stop
            slots = [free.pop() for _ in batch]
            # directed table slot aligns f2 to f1, slot + S is its mirror
            for p, slot in zip(batch, slots):
                searches[p] = _enter_search(gr, slot, *pairs[p])
            paths = [(pi * dt, pj * dt) for pi, pj in _dp_lattice(gr, dt, slots)]
            owners, tables, seeds = [], [], []
            for b, p in enumerate(batch):
                st = searches[p]
                st.paths = [paths[b], paths[len(slots) + b]]
                for e, g0 in _seed_warps(st.paths, ts):
                    owners.append(4 * p + len(st.lane_dirs))
                    tables.append(st.slot + e * S)
                    seeds.append(g0)
                    st.lane_dirs.append(e)
                    st.warps.append(None)
            lanes.add(owners, tables, np.stack(seeds))
            fg = _cost_evaluator(gr)
        for owner, g in zip(*lanes.advance(fg)):
            p, k = divmod(int(owner), 4)
            st = searches[p]
            st.warps[k] = g
            if all(w is not None for w in st.warps):
                results[p] = _finish_search(fg, searches.pop(p), S, ts)
                free.append(st.slot)
    return results, (lanes.nonconverged, lanes.rounds, lanes.evaluations)


def _seed_warps(paths: list, ts: np.ndarray):
    """``(direction, seed)`` of a pair's refinements, from its two lattice paths.

    Each direction refines the presmoothed seeds from its own path and from
    the other direction's inverted path, once when the two agree.
    """
    for e in (0, 1):
        (px, py), (ox, oy) = paths[e], paths[1 - e]
        own = _presmooth_warp(np.interp(ts, px, py))
        other = _presmooth_warp(np.interp(ts, oy, ox))
        yield e, own
        if not np.array_equal(own, other):
            yield e, other


def _enter_search(gr: _PairGrams, slot: int, f1: _Features, f2: _Features) -> _Search:
    """Put a pair in canonical order and its Gram tables in ``slot``."""
    swap = _swap_to_canonical(f1, f2)
    if swap:
        f1, f2 = f2, f1
    # identity cost in direct (per-sample nonnegative) form: exactly the
    # unaligned integrand in both directions, so d_q <= d_c holds with no
    # cancellation floor
    identity = gr.fill(slot, f1, f2)
    return _Search(slot, swap, _start_gap_sq(f1, f2), identity)


def _finish_search(fg, st: _Search, S: int, ts: np.ndarray):
    """Score a pair's candidates in both directions; its ``(d_12, d_21, warp_12, warp_21, d_c)``.

    A direction scores its own unrefined lattice path but not the other
    direction's, inverted: that one never scored best, since the lanes
    seeded from it refine it.
    """
    out = []
    for e in (0, 1):
        candidates = [st.paths[e]]
        candidates += [(ts, g) for g, de in zip(st.warps, st.lane_dirs) if de == e]
        candidates += [(g, ts) for g, de in zip(st.warps, st.lane_dirs) if de != e]
        U = np.stack([np.diff(np.interp(ts, gx, gy)) for gx, gy in candidates])
        costs = fg(U, np.full(len(candidates), st.slot + e * S))[0].tolist()
        best, best_cost = (ts, ts), st.identity_cost  # identity first: wins ties
        for (gx, gy), c in zip(candidates, costs):
            # earlier (more canonical) candidates win ties within roundoff
            if c < best_cost - 1e-12 * (1.0 + abs(best_cost)):
                best, best_cost = (gx, gy), c
        # every candidate's knots increase strictly: lattice moves take at
        # least one step, and refined increments are at least dt/3
        out.append((float(np.sqrt(max(st.gap_sq + best_cost, 0.0))), WarpingFunction(*best)))
    (d12, w12), (d21, w21) = out[::-1] if st.swap else out
    dc = float(np.sqrt(st.gap_sq + st.identity_cost))
    return d12, d21, w12, w21, dc


def align_dq(
    pair: TrajectoryPair,
    grid: int = 100,
    *,
    include_logdet: bool = False,
    w_det: float | None = None,
) -> tuple[float, WarpingFunction]:
    """Rate-invariant aligned distance and the warp attaining it.

    The returned warp reparameterizes the SECOND trajectory: it minimizes
    ``sqrt(l_x^2 + integral ||q1||(t) - q2(gamma(t)) sqrt(gamma'(t))||^2)``
    over the discretized warp group.  Both trajectories are resampled to
    ``grid`` points and searched as a list of one pair
    (`_dq_from_features`): the lattice paths of both directions, each
    refined in the slope window.
    ``align_dq(b, a)`` is the other direction of the same search.  The
    identity warp is always a candidate, so the result never exceeds
    ``dist_dc`` on the same grid.
    """
    if grid < 2:
        raise ValueError("alignment grid must be at least 2")
    f1, f2 = (
        _trajectory_features(tr, grid, include_logdet, w_det) for tr in (pair.first, pair.second)
    )
    [(dq, _, warp, _, _)], _ = _dq_from_features([(f1, f2)])
    return dq, warp


def apply_warp(traj: CovarianceTrajectory, warp: WarpingFunction) -> CovarianceTrajectory:
    """Reparameterize a trajectory: output sample k is the input at gamma(t_k)."""
    return CovarianceTrajectory(matrices=_evaluate(traj, warp(traj.times))[0])


def random_warp(T: int, roughness: float, seed: int) -> WarpingFunction:
    """Random warp from normalized cumulative Gamma increments.

    Increment law Gamma(shape=1/roughness, scale=roughness) has unit mean, so
    the warp is unbiased around the identity; small roughness concentrates it
    there, large roughness produces severe warps.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    if roughness <= 0:
        raise ValueError("roughness must be positive")
    rng = np.random.default_rng(seed)
    inc = rng.gamma(shape=1.0 / roughness, scale=roughness, size=T - 1)
    inc = np.maximum(inc, 1e-12)
    y = np.concatenate([[0.0], np.cumsum(inc)])
    y /= y[-1]
    y[-1] = 1.0
    return WarpingFunction(knots_x=np.linspace(0.0, 1.0, T), knots_y=y)
