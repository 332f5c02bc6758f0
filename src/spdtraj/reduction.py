"""Metric-adapted dimension reduction of SPD matrices on the Stiefel manifold.

A column-orthonormal basis B (n x d) maps a unit-determinant SPD matrix P to
``B^T P B``.  The basis is learned by maximizing the pairwise objective

    sum_{i,j} tr( (B^T P_ij B)^2 ),   P_ij = P_i^-1 P_j^2 P_i^-1,

which is the trace reformulation of minimizing the reconstruction residual
``sum ||P_ij - B (B^T P_ij B) B^T||^2``.  Optimization is Riemannian gradient
ascent with the canonical tangent projection, a sign-fixed QR retraction and
a backtracking line search.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import CovarianceTrajectory
from .geometry import (
    DimensionMismatchError,
    _eigh_pd,
    normalize_det,
    require_unit_det,
    sym_log,
    symmetrize,
)
from .geometry import pair_matrix as _pair_matrix  # reduction.pair_matrix adds the checks

# Orthonormality tolerance for basis matrices.
_ORTHO_TOL = 1e-10


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
class PairTensor:
    """Stacked pair matrices P_ij = P_i^-1 P_j^2 P_i^-1 with their index pairs."""

    indices: np.ndarray  # (K, 2) int
    matrices: np.ndarray  # (K, n, n)

    @property
    def count(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True)
class ReductionModel:
    basis: StiefelBasis
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float
    meta: dict = field(default_factory=dict)


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
) -> PairTensor:
    """All ordered pairs i != j, uniformly subsampled to ``cap`` when larger."""
    mats = [np.asarray(P, dtype=float) for P in training]
    N = len(mats)
    if N < 2:
        raise ValueError("need at least 2 training matrices")
    idx = np.array([(i, j) for i in range(N) for j in range(N) if i != j])
    if len(idx) > cap:
        rng = np.random.default_rng(seed)
        sel = rng.choice(len(idx), size=cap, replace=False)
        sel.sort()
        idx = idx[sel]
    invs = [np.linalg.inv(P) for P in mats]
    sqs = [P @ P for P in mats]
    n = mats[0].shape[0]
    out = np.empty((len(idx), n, n))
    for k, (i, j) in enumerate(idx):
        out[k] = symmetrize(invs[i] @ sqs[j] @ invs[i])
    return PairTensor(indices=idx, matrices=out)


def objective(B: StiefelBasis | np.ndarray, pairs: PairTensor) -> float:
    """sum_ij tr( (B^T P_ij B)^2 ); always nonnegative."""
    Bm = B.matrix if isinstance(B, StiefelBasis) else np.asarray(B, dtype=float)
    return _objective_core(Bm, pairs.matrices)[1]


def euclidean_gradient(B: StiefelBasis | np.ndarray, pairs: PairTensor) -> np.ndarray:
    """Ambient gradient 4 * sum_ij P_ij B (B^T P_ij B)."""
    Bm = B.matrix if isinstance(B, StiefelBasis) else np.asarray(B, dtype=float)
    return _objective_core(Bm, pairs.matrices)[0]


def _objective_core(B: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, float]:
    """The ambient gradient and the objective at B, from one ``P_ij B`` stack."""
    K, n, _ = P.shape
    d = B.shape[1]
    PB = (P.reshape(K * n, n) @ B).reshape(K, n, d)
    M = np.matmul(PB.transpose(0, 2, 1), B)  # B^T P_ij B per pair
    obj = float(np.sum(M * M.transpose(0, 2, 1)))
    G = 4.0 * np.matmul(PB, M).sum(axis=0)
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


def _log_pca_init(mats: list[np.ndarray], d: int) -> np.ndarray:
    L = sum(sym_log(P) for P in mats)
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
    matrix logs (log-domain PCA).  It stops when the Riemannian gradient
    norm falls below ``tol``; otherwise the last accepted (and best) iterate
    is returned with ``converged=False``.
    """
    mats = [np.asarray(P, dtype=float) for P in training]
    if len(mats) < 2:
        raise ValueError("need at least 2 training matrices")
    n = mats[0].shape[0]
    if not 1 <= d < n:
        raise ValueError(f"d must satisfy 1 <= d < n={n}, got {d}")
    for P in mats:
        require_unit_det(P)
    pairs = build_pairs(mats, cap=pair_cap, seed=seed)
    B0 = init if init is not None else _log_pca_init(mats, d)
    B, trace, converged, gn, iters = _ascend(B0, pairs, max_iters=max_iters, tol=tol)
    return ReductionModel(
        basis=StiefelBasis(matrix=B),
        objective_trace=np.asarray(trace),
        iterations=iters,
        converged=converged,
        grad_norm=gn,
        meta={"pair_count": pairs.count, "seed": seed, "d": d, "n": n},
    )


def _ascend(B0: np.ndarray, pairs: PairTensor, max_iters: int, tol: float):
    P = pairs.matrices
    B = _retract(np.asarray(B0, dtype=float))
    G, obj = _objective_core(B, P)
    trace = [obj]
    n, d = B.shape
    step = 1e-3 / max(1.0, np.linalg.norm(G) / np.sqrt(n * d))
    converged = False
    gn = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        xi = tangent_project(B, G)
        gn = float(np.linalg.norm(xi))
        if gn < tol:
            converged = True
            break
        accepted = False
        for _ in range(40):
            B_new = _retract(B + step * xi)
            G_new, obj_new = _objective_core(B_new, P)
            if obj_new > obj + 1e-4 * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        B, G, obj = B_new, G_new, obj_new
        trace.append(obj)
        step *= 1.5
    return B, trace, converged, gn, it


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

    Each point is determinant-normalized, projected, and renormalized, so the
    output lives on the unit-determinant manifold in dimension d.
    """
    basis = model.basis if isinstance(model, ReductionModel) else model
    unit, _ = normalize_det(traj.matrices)
    mats, _ = project(unit, basis)
    return CovarianceTrajectory(matrices=mats, times=traj.times.copy())
