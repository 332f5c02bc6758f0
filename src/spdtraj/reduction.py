"""Metric-adapted dimension reduction of SPD matrices on the Stiefel manifold.

A column-orthonormal basis B (n x d) maps a unit-determinant SPD matrix P to
``B^T P B``.  The basis is learned by maximizing the pairwise objective

    sum_{i,j} tr( (B^T P_ij B)^2 ),   P_ij = P_i^-1 P_j^2 P_i^-1,

which is the trace reformulation of minimizing the reconstruction residual
``sum ||P_ij - B (B^T P_ij B) B^T||^2``.  Optimization is Riemannian gradient
ascent with the canonical tangent projection, a sign-fixed QR retraction and
a backtracking line search.

The pair matrices are never formed.  The objective and its gradient are
computed from the per-matrix factors P_i^-1 and P_j^2, so memory is
O(N n^2) for N training matrices, while an evaluation over K sampled pairs
costs O(K n^2 d).  The pair cap bounds only that compute.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import CovarianceTrajectory
from .geometry import (
    DimensionMismatchError,
    _eigh_pd,
    _spectral,
    normalize_det,
    require_unit_det,
    symmetrize,
)
from .geometry import pair_matrix as _pair_matrix  # reduction.pair_matrix adds the checks


@dataclass(frozen=True)
class StiefelBasis:
    """Column-orthonormal n x d projection basis."""

    matrix: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float)
        if B.ndim != 2 or B.shape[1] > B.shape[0]:
            raise ValueError(f"basis must be n x d with d <= n, got {B.shape}")
        gram = B.T @ B
        if np.abs(gram - np.eye(B.shape[1])).max() > 1e-8:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "matrix", B)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class PairSet:
    """Sampled index pairs (i, j) with the factors P_i^-1 and P_j^2 of each P_ij.

    ``groups`` lists, for each j that occurs, the distinct i paired with it.
    """

    indices: np.ndarray  # (K, 2) int
    inverses: np.ndarray  # (N, n, n), symmetric
    squares: np.ndarray  # (N, n, n), symmetric
    groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices)
        by_j = idx[np.lexsort((idx[:, 0], idx[:, 1]))]
        if np.any(np.all(by_j[1:] == by_j[:-1], axis=1)):
            raise ValueError("pair indices repeat")
        js, starts = np.unique(by_j[:, 1], return_index=True)
        rows = np.split(by_j[:, 0], starts[1:])
        object.__setattr__(self, "groups", tuple(zip(js.tolist(), rows)))

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def dim(self) -> int:
        return self.inverses.shape[1]


@dataclass(frozen=True)
class ReductionModel:
    basis: StiefelBasis
    objective_trace: np.ndarray
    iterations: int
    stopped_by: str  # "tolerance", "max_iters" or "line_search"
    grad_norm: float
    meta: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.stopped_by == "tolerance"


def pair_matrix(P_i: np.ndarray, P_j: np.ndarray) -> np.ndarray:
    """P_ij = P_i^-1 P_j^2 P_i^-1; its log-norm reproduces the geodesic distance."""
    P_i = np.asarray(P_i, dtype=float)
    P_j = np.asarray(P_j, dtype=float)
    if P_i.shape != P_j.shape:
        raise DimensionMismatchError(f"shape mismatch {P_i.shape} vs {P_j.shape}")
    _eigh_pd(P_i)
    _eigh_pd(P_j)
    return _pair_matrix(P_i, P_j)


def build_pairs(
    training: list[np.ndarray] | np.ndarray,
    cap: int = 2048,
    seed: int = 0,
) -> PairSet:
    """All ordered pairs i != j, uniformly subsampled to ``cap`` when larger."""
    stack = np.asarray(training, dtype=float)
    N = len(stack)
    if N < 2:
        raise ValueError("need at least 2 training matrices")
    # pair k of the row-major list of all i != j, without listing them
    total = N * (N - 1)
    if total > cap:
        k = np.sort(np.random.default_rng(seed).choice(total, size=cap, replace=False))
    else:
        k = np.arange(total)
    i, r = np.divmod(k, N - 1)
    inverses = symmetrize(np.linalg.inv(stack))
    squares = stack @ stack
    del stack  # the stacked copy sets the fit's peak memory unless freed here
    return PairSet(
        indices=np.stack([i, r + (r >= i)], axis=1),
        inverses=inverses,
        squares=symmetrize(squares),
    )


def objective(B: StiefelBasis | np.ndarray, pairs: PairSet) -> float:
    """sum_ij tr( (B^T P_ij B)^2 ); always nonnegative."""
    Bm = B.matrix if isinstance(B, StiefelBasis) else np.asarray(B, dtype=float)
    return _objective_core(Bm, pairs)[1]


def euclidean_gradient(B: StiefelBasis | np.ndarray, pairs: PairSet) -> np.ndarray:
    """Ambient gradient 4 * sum_ij P_ij B (B^T P_ij B)."""
    Bm = B.matrix if isinstance(B, StiefelBasis) else np.asarray(B, dtype=float)
    return _objective_core(Bm, pairs)[0]


def _objective_core(B: np.ndarray, pairs: PairSet) -> tuple[np.ndarray, float]:
    """The ambient gradient and the objective at B, one j-group of pairs at a time.

    With C_i = P_i^-1 B and V_ij = P_j^2 C_i, B^T P_ij B = V_ij^T C_i = M_ij,
    and the gradient 4 sum_ij P_ij B M_ij = 4 sum_i P_i^-1 Z_i with
    Z_i = sum_j V_ij M_ij.  Everything is held transposed (d x n), so a
    group's V_ij^T is one GEMM against P_j^2.  Beside the N x d x n stacks
    C^T and Z^T, every buffer is group-sized.  The i within a group are
    distinct, so Z^T is updated in place through a fancy index.
    """
    inv, sq = pairs.inverses, pairs.squares
    N, n, _ = inv.shape
    d = B.shape[1]
    Ct = np.matmul(B.T, inv)  # C_i^T
    Zt = np.zeros_like(Ct)
    obj = 0.0
    for j, rows in pairs.groups:
        Cg = Ct[rows]
        Vt = (Cg.reshape(-1, n) @ sq[j]).reshape(Cg.shape)
        M = np.matmul(Vt, Cg.transpose(0, 2, 1))
        obj += float(np.sum(M * M.transpose(0, 2, 1)))
        Zt[rows] += np.matmul(M.transpose(0, 2, 1), Vt)
    G = 4.0 * (Zt.transpose(1, 0, 2).reshape(d, N * n) @ inv.reshape(N * n, n)).T
    return G, obj


def tangent_project(B: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient gradient onto the Stiefel tangent space at B."""
    return G - B @ symmetrize(B.T @ G)


def _retract(B: np.ndarray) -> np.ndarray:
    """QR retraction with sign-fixed diagonal (deterministic)."""
    Q, R = np.linalg.qr(B)
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s


def _log_pca_init(L: np.ndarray, d: int) -> np.ndarray:
    """The top-d eigenvector basis of the summed matrix logs ``L``."""
    w, U = np.linalg.eigh(symmetrize(L))
    order = np.argsort(-np.abs(w))
    return _retract(U[:, order[:d]])


def fit(
    training: list[np.ndarray] | np.ndarray,
    d: int,
    *,
    max_iters: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
    pair_cap: int = 2048,
    init: np.ndarray | None = None,
) -> ReductionModel:
    """Learn a reduction basis by Riemannian gradient ascent.

    Training matrices must be unit-determinant.  ``seed`` picks the pairs
    when there are more than ``pair_cap`` of them.  The ascent starts from
    ``init`` or, by default, from the top-d eigenvector basis of the summed
    matrix logs (log-domain PCA).  It stops, converged, when the Riemannian
    gradient norm is at most ``tol`` times the objective, a rule that does
    not depend on the scale of the data.  Otherwise it stops after
    ``max_iters`` iterations or when the line search finds no ascent step,
    and returns the last accepted (and best) iterate.  ``stopped_by`` names
    which of the three ended the fit.
    """
    mats = [np.asarray(P, dtype=float) for P in training]
    if len(mats) < 2:
        raise ValueError("need at least 2 training matrices")
    n = mats[0].shape[0]
    if not 1 <= d < n:
        raise ValueError(f"d must satisfy 1 <= d < n={n}, got {d}")
    # one decomposition per matrix serves the unit-determinant check and the
    # summed logs of the log-PCA start
    L = 0.0
    for P in mats:
        w, U = require_unit_det(P)
        if init is None:
            L = L + _spectral(U, np.log(w))
    pairs = build_pairs(mats, cap=pair_cap, seed=seed)
    B0 = init if init is not None else _log_pca_init(L, d)
    B, trace, stopped_by, gn, iters = _ascend(B0, pairs, max_iters=max_iters, tol=tol)
    return ReductionModel(
        basis=StiefelBasis(matrix=B),
        objective_trace=np.asarray(trace),
        iterations=iters,
        stopped_by=stopped_by,
        grad_norm=gn,
        meta={"pair_count": pairs.count, "seed": seed, "d": d, "n": n},
    )


def _ascend(B0: np.ndarray, pairs: PairSet, max_iters: int, tol: float):
    B = _retract(np.asarray(B0, dtype=float))
    G, obj = _objective_core(B, pairs)
    trace = [obj]
    n, d = B.shape
    step = 1e-3 / max(1.0, np.linalg.norm(G) / np.sqrt(n * d))
    stopped_by = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        xi = tangent_project(B, G)
        gn = float(np.linalg.norm(xi))
        if gn <= tol * obj:
            stopped_by = "tolerance"
            break
        accepted = False
        for _ in range(40):
            B_new = _retract(B + step * xi)
            G_new, obj_new = _objective_core(B_new, pairs)
            if obj_new > obj + 1e-4 * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stopped_by = "line_search"
            break
        B, G, obj = B_new, G_new, obj_new
        trace.append(obj)
        step *= 1.5
    else:  # the gradient norm reported is the returned iterate's
        gn = float(np.linalg.norm(tangent_project(B, G)))
        if gn <= tol * obj:
            stopped_by = "tolerance"
    return B, trace, stopped_by, gn, it


def project(P: np.ndarray, B: StiefelBasis) -> tuple[np.ndarray, float | np.ndarray]:
    """Compress P (or a stack) to d x d: Q = B^T P B, renormalized to unit determinant.

    Returns the unit-determinant reduced matrices and their log-det channels
    (B^T P B of a unit-determinant matrix need not have determinant one).
    """
    P = np.asarray(P, dtype=float)
    if P.shape[-1] != B.n:
        raise DimensionMismatchError(f"matrix dim {P.shape[-1]} != basis n {B.n}")
    Q = symmetrize(B.matrix.T @ P @ B.matrix)
    return normalize_det(Q)


def reconstruct(Q: np.ndarray, B: StiefelBasis) -> np.ndarray:
    """Rank-d lift B Q B^T of a reduced matrix."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] != B.d:
        raise DimensionMismatchError(f"matrix dim {Q.shape[0]} != basis d {B.d}")
    return symmetrize(B.matrix @ Q @ B.matrix.T)


def pseudoinverse(Q: np.ndarray, B: StiefelBasis) -> np.ndarray:
    """Moore-Penrose inverse of the rank-d lift: B Q^-1 B^T."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] != B.d:
        raise DimensionMismatchError(f"matrix dim {Q.shape[0]} != basis d {B.d}")
    w = np.linalg.eigvalsh(symmetrize(Q))
    if np.abs(w).min() < 1e-12:
        raise ValueError("reduced matrix is singular; pseudoinverse undefined")
    return symmetrize(B.matrix @ np.linalg.inv(Q) @ B.matrix.T)


def lemma1_residual(
    P_i: np.ndarray, P_j: np.ndarray, B: StiefelBasis
) -> tuple[float, float]:
    """The two reconstruction residuals that the pair-matrix identity equates.

    Returns ``(||P_ij - Phat_i^- Phat_j^2 Phat_i^-||_F, ||P_ij - B Q_ij B^T||_F)``
    with ``Q_ij = Q_i^-1 Q_j^2 Q_i^-1`` built from the raw projections
    ``Q = B^T P B``; the two values agree identically.
    """
    Pij = pair_matrix(P_i, P_j)
    Qi = symmetrize(B.matrix.T @ P_i @ B.matrix)
    Qj = symmetrize(B.matrix.T @ P_j @ B.matrix)
    Phat_i_pinv = pseudoinverse(Qi, B)
    Phat_j = reconstruct(Qj, B)
    lhs = Pij - Phat_i_pinv @ Phat_j @ Phat_j @ Phat_i_pinv
    Qij = pair_matrix(Qi, Qj)
    rhs = Pij - reconstruct(Qij, B)
    return float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs))


def reduce_trajectory(
    traj: CovarianceTrajectory, model: ReductionModel | StiefelBasis
) -> CovarianceTrajectory:
    """Pointwise projection of a trajectory; same grid, dimension d.

    Each point is projected and then determinant-normalized, so the output
    lives on the unit-determinant manifold in dimension d.  ``B^T (cP) B``
    and ``B^T P B`` have the same unit-determinant part, so the points are
    not normalized in dimension n first: an input is checked only by the
    loader's positive-definiteness test and by the unit-part check of its
    projection, not by its own n-dimensional unit part.
    """
    basis = model.basis if isinstance(model, ReductionModel) else model
    mats, _ = project(traj.matrices, basis)
    return CovarianceTrajectory(matrices=mats)
