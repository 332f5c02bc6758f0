"""Riemannian geometry of symmetric positive-definite matrices.

The workhorse space is the set of unit-determinant SPD matrices, realized
as the quotient SL(n)/SO(n) through the polar factorization.  A general
SPD matrix splits into its unit-determinant part and a scalar log-det
channel, and the metric splits accordingly.

Geodesic distance between unit-determinant matrices::

    d(P1, P2) = || log sqrt(P1^-1 P2^2 P1^-1) ||_F

A tangent vector is a plain coordinate array in the chart at the identity:
the group action ``g . P = sqrt(g P^2 g^T)`` moves any base point to ``I``,
and a tangent vector at ``P`` is its push-forward coordinates there (a
symmetric, trace-free matrix for unit-determinant bases).  The base point is
always passed separately.  In this chart the metric is the Frobenius inner
product ``sum(V * W)``, ``exp_map(P, V) = sqrt(P expm(2V) P)``, and parallel
transport from ``P1`` to ``P2`` is conjugation by the orthogonal matrix
``O = P2^-1 P1 sqrt(P1^-1 P2^2 P1^-1)``.

The pair quantities come from ``Y = P1^-1 P2``, one LU per pair.  The
distance and the geodesic ``sqrt(P1 M^t P1)`` use the eigendecomposition of
the pair matrix ``M = Y Y^T = P1^-1 P2^2 P1^-1`` (`pair_matrix`), which
costs less than an SVD of Y.  The log map ``log(M)/2`` and the transport
rotation come from one SVD ``Y = U S W^T`` instead: the log map is ``U
log(S) U^T`` and the rotation is ``W U^T``, orthogonal by construction
(Higham, *Functions of Matrices*, 2008, ch. 8), with singular values that
carry Y's condition number, not M's, its square.  The pair kernels and the
matrix functions take stacks ``(..., n, n)`` (the Geomstats convention;
Miolane et al., JMLR 21, 2020), so a trajectory's consecutive pairs are
decomposed in one call, once each.  The distance takes ``Y`` from the first
operand's inverse, which a collection computes once per item, not once per
pair (`dist_unitdet`).

A long stack is walked in blocks of at most `_BLOCK_BYTES` of matrices
(`_blocks`), so that a stage holds one block of temporaries beside its
inputs and output, not several copies of the whole stack; the per-matrix
calls are the same either way.  Geodesic points are built a block at a time
by one builder (`_geodesic_block`) from pair decompositions made once per
pair.  The trajectory walk of `alignment` decomposes each input interval in
the first block that has a point on it and builds that block's points; the
TSRVF features pass their consecutive pairs to `log_map_and_rotation`, so
no resampled stack is held whole on the way to the features.
"""
from __future__ import annotations

import math

import numpy as np

# Eigenvalues below this are treated as a violation of positive-definiteness.
EPS_PD = 1e-12
# |log det| tolerance for unit-determinant inputs.
UNIT_DET_TOL = 1e-8
# |trace| tolerance for tangent coordinates at a unit-determinant base.
TRACE_TOL = 1e-8
# Stages that would build temporaries the size of a whole (T, n, n) stack walk
# it in blocks of at most this many bytes of matrices (16 at n=100), and at
# least one matrix (`_blocks`).
_BLOCK_BYTES = 1_300_000


class NotPositiveDefiniteError(ValueError):
    """Input matrix is not symmetric positive-definite."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _mT(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2 over the last two axes; exactly symmetric in floating point."""
    return 0.5 * (M + _mT(M))


def check_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``M`` as a float array of square matrices ``(..., n, n)``."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {M.shape}")
    return M


def check_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatchError(f"dimension mismatch: {A.shape} vs {B.shape}")


def _require_pd(w: np.ndarray, what: str = "matrix") -> None:
    """Reject ascending eigenvalue rows ``(..., n)`` whose smallest is below EPS_PD."""
    wmin = w[..., 0].min(initial=np.inf)
    if wmin < EPS_PD:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite: smallest eigenvalue {wmin:.6e} "
            f"< {EPS_PD:.0e}"
        )


def _eigh_pd(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of SPD matrices, rejecting eigenvalues below EPS_PD."""
    P = check_square(P)
    w, U = np.linalg.eigh(symmetrize(P))
    _require_pd(w)
    return w, U


def _spectral(U: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``U diag(f) U^T`` for stacked eigenvectors and values, exactly symmetric."""
    return symmetrize((U * f[..., None, :]) @ _mT(U))


def sym_sqrt(P: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square root of SPD matrices."""
    w, U = _eigh_pd(P)
    return _spectral(U, np.sqrt(w))


def sym_log(P: np.ndarray) -> np.ndarray:
    """Matrix logarithm of SPD matrices (symmetric matrices)."""
    w, U = _eigh_pd(P)
    return _spectral(U, np.log(w))


def sym_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of symmetric matrices (SPD matrices)."""
    A = check_square(A)
    w, U = np.linalg.eigh(symmetrize(A))
    return _spectral(U, np.exp(w))


def require_unit_det(P: np.ndarray, tol: float = UNIT_DET_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, U)`` of an SPD matrix that must be unit-determinant."""
    w, U = _eigh_pd(P)
    ld = float(np.sum(np.log(w)))
    if abs(ld) > tol:
        raise ValueError(f"matrix is not unit-determinant: |log det| = {abs(ld):.3e}")
    return w, U


def normalize_det(P: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Split SPD matrices into their unit-determinant parts and log-det channels.

    Returns ``(P / det(P)^(1/n), log det(P) / n)``: a float channel for one
    matrix, an array of them for a stack.  The determinant is taken through
    log-eigenvalues, never a direct product.  A unit-determinant part with
    an eigenvalue below EPS_PD is rejected like a non-SPD input.
    """
    w, U = _eigh_pd(P)
    channel = np.mean(np.log(w), axis=-1)
    w = w * np.exp(-channel)[..., None]
    _require_pd(w, "unit-determinant part")
    unit = _spectral(U, w)
    return unit, float(channel) if channel.ndim == 0 else channel


def _check_coords(base: np.ndarray, V) -> np.ndarray:
    """Tangent coordinates at ``base``: square, of its shape, symmetric to 1e-9.

    Returns them exactly symmetrized.
    """
    V = check_square(V, "coords")
    check_same_dim(base, V)
    if not np.allclose(V, _mT(V), atol=1e-9):
        raise ValueError("tangent coordinates must be symmetric")
    return symmetrize(V)


def _require_tracefree(coords: np.ndarray) -> None:
    tr = abs(float(np.trace(coords)))
    if tr > TRACE_TOL:
        raise ValueError(
            f"tangent coordinates at a unit-determinant base must be trace-free; "
            f"|trace| = {tr:.3e}"
        )


def exp_map(base: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Riemannian exponential: the geodesic from ``base`` with velocity ``V``, at t=1.

    ``V`` holds symmetric, trace-free identity-chart coordinates.
    """
    base = check_square(base, "base")
    V = _check_coords(base, V)
    _require_tracefree(V)
    return sym_sqrt(symmetrize(base @ sym_exp(2.0 * V) @ base))


def _blocks(stack: np.ndarray, count: int | None = None):
    """Consecutive slices of ``count`` items, each block of at most `_BLOCK_BYTES`.

    The items are shaped like those of ``stack``; ``count`` defaults to its
    first axis.  A block holds at least one item, so an item larger than
    the budget is a block of its own.
    """
    step = max(1, _BLOCK_BYTES // (stack.itemsize * math.prod(stack.shape[1:])))
    count = stack.shape[0] if count is None else count
    return (slice(a, min(a + step, count)) for a in range(0, count, step))


def pair_matrix(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """``M = P1^-1 P2^2 P1^-1`` of matrices or stacks ``(..., n, n)``, unchecked.

    M is symmetric by construction and positive definite for nonsingular
    ``P2``; the geodesic points derive from it.  Stacked products are not
    exactly symmetric, so M is symmetrized.
    """
    Y = np.linalg.solve(P1, P2)
    M = Y @ _mT(Y)
    del Y  # hold at most two stacks at a time
    return symmetrize(M)


def log_map_and_rotation(
    P1: np.ndarray, P2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-map coordinates and transport rotations of stacked pairs ``P1 -> P2``.

    One SVD ``Y = P1^-1 P2 = U S W^T`` per pair gives both; this is what a
    trajectory's consecutive samples need.  ``M = Y Y^T = U S^2 U^T``, so
    the log map is ``U log(S) U^T``, and the rotation ``O = P2^-1 P1
    M^(1/2) = W S^-1 U^T U S U^T`` is ``W U^T``, orthogonal by
    construction.  The singular values carry the pair's condition number,
    not its square, as eigenvalues of ``Y Y^T`` would.  A pair whose
    ``S^2``, the eigenvalues of M, falls below EPS_PD raises
    NotPositiveDefiniteError.  Inputs are not checked otherwise.
    """
    U, s, Wt = np.linalg.svd(np.linalg.solve(P1, P2))
    _require_pd(s[..., -1:] ** 2, "pair matrix")
    return _spectral(U, np.log(s)), _mT(Wt) @ _mT(U)


def _geodesic_block(
    P1: np.ndarray, w: np.ndarray, U: np.ndarray, pair: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points ``sqrt(A M^t A)`` and the smallest eigenvalue of each.

    Point ``i`` lies at ``t[i]`` on the geodesic from ``A = P1[pair[i]]``,
    whose pair matrix ``M`` has the eigendecomposition ``(w, U)[pair[i]]``;
    the unit-determinant part follows the quotient geodesic while the
    log-det channel interpolates linearly.  A point is rejected by its own
    eigenvalues, not by those of its square ``A M^t A``; a square's
    eigenvalue that roundoff takes below zero reads as a zero eigenvalue of
    the point.  This is the one geodesic-point builder: the trajectory walk
    of `alignment` calls it a block at a time.
    """
    X = _spectral(U[pair], w[pair] ** t[:, None])
    A = P1[pair]
    X = A @ X
    X = X @ A
    del A  # hold at most a few blocks at a time
    wb, Ub = np.linalg.eigh(symmetrize(X))
    del X
    wb = np.sqrt(np.maximum(wb, 0.0))
    _require_pd(wb, "geodesic point")
    return _spectral(Ub, wb), wb[:, 0]


def log_map(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """Inverse exponential: coordinates of the tangent at ``P1`` pointing to ``P2``."""
    P1 = check_square(P1, "P1")
    P2 = check_square(P2, "P2")
    check_same_dim(P1, P2)
    _eigh_pd(P2)  # the SVD takes any nonsingular P2; the map needs an SPD one
    return log_map_and_rotation(P1, P2)[0]


def dist_unitdet(
    P1: np.ndarray, P2: np.ndarray, inverses: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """Geodesic distance on the unit-determinant SPD manifold.

    Exactly symmetric in its arguments: the operands are put in a canonical
    order before evaluation so that ``d(A, B)`` and ``d(B, A)`` are computed
    bit-for-bit identically.  The distance comes from the eigenvalues of
    ``Y Y^T`` with ``Y = P1^-1 P2``, where ``P1^-1`` is the first operand's
    inverse: ``inverses``, the pair ``(P1^-1, P2^-1)`` as
    ``np.linalg.inv`` gives it, when the caller holds them (a collection
    inverts each item once, not once per pair), else computed here, with
    the same result.
    """
    P1 = check_square(P1, "P1")
    P2 = check_square(P2, "P2")
    check_same_dim(P1, P2)
    if np.array_equal(P1, P2):
        _eigh_pd(P1)
        return 0.0
    A1, A2 = inverses or (None, None)
    if P2.tobytes() < P1.tobytes():
        P1, P2, A1 = P2, P1, A2
    if A1 is None:
        A1 = np.linalg.inv(P1)
    Y = A1 @ P2
    # a 2-D product with its own transpose is exactly symmetric (syrk)
    w = np.linalg.eigvalsh(Y @ Y.T)
    _require_pd(w)
    return float(0.5 * np.sqrt(np.sum(np.log(w) ** 2)))


def log_euclidean_dist(P1: np.ndarray, P2: np.ndarray) -> float:
    """Log-Euclidean distance ||log P1 - log P2||_F (baseline metric)."""
    P1 = check_square(P1, "P1")
    P2 = check_square(P2, "P2")
    check_same_dim(P1, P2)
    return float(np.linalg.norm(sym_log(P1) - sym_log(P2)))


def transport_rotation(P1: np.ndarray, P2: np.ndarray) -> np.ndarray:
    """Orthogonal matrix O realizing parallel transport P1 -> P2 by conjugation.

    In identity-chart coordinates the transported vector is ``O V O^T``.
    ``O = P2^-1 P1 M^(1/2)`` is ``W U^T`` from the SVD ``P1^-1 P2 = U S
    W^T``, orthogonal by construction (`log_map_and_rotation`).
    """
    P1 = check_square(P1, "P1")
    P2 = check_square(P2, "P2")
    check_same_dim(P1, P2)
    return log_map_and_rotation(P1, P2)[1]

