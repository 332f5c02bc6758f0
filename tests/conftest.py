import numpy as np
import pytest

from spdtraj.alignment import _dc_from_features, _evaluate, _point_features
from spdtraj.estimation import CovarianceTrajectory, _built
from spdtraj.geometry import (
    EPS_PD,
    normalize_det,
    pair_matrix,
    sym_exp,
    symmetrize,
    transport_rotation,
)


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.normal(size=(n, n))) * scale


def random_tracefree(rng, n, scale=1.0):
    A = random_sym(rng, n, scale)
    return A - np.trace(A) / n * np.eye(n)


def random_unitdet(rng, n, spread=0.6):
    return sym_exp(random_tracefree(rng, n, spread))


def random_spd(rng, n, spread=0.6, logdet_scale=0.5):
    A = random_sym(rng, n, spread)
    return sym_exp(A + logdet_scale * rng.normal() * np.eye(n))


def smooth_unitdet_curve(rng, n, n_modes=2, amp=0.5):
    """Analytic smooth unit-determinant trajectory t -> exp(A(t))."""
    dirs = []
    for _ in range(n_modes):
        D = random_tracefree(rng, n)
        dirs.append(D / np.linalg.norm(D))
    coef = rng.normal(size=n_modes) * amp
    phase = rng.uniform(0, 2 * np.pi, size=n_modes)
    freq = rng.integers(1, 3, size=n_modes)

    def f(t):
        A = sum(
            c * np.sin(np.pi * fq * t + ph) * D
            for c, ph, fq, D in zip(coef, phase, freq, dirs)
        )
        return sym_exp(A)

    return f


def sample_curve(f, T):
    ts = np.linspace(0.0, 1.0, T)
    return CovarianceTrajectory(matrices=np.array([f(t) for t in ts]))


def smooth_warp_fn(rng, strength=0.35, modes=2):
    """Smooth endpoint-preserving diffeomorphism of [0, 1] (sine perturbation)."""
    a = rng.uniform(-1, 1, size=modes)
    a = a / np.sum(np.abs(a) * np.pi * np.arange(1, modes + 1)) * strength

    def g(t):
        t = np.asarray(t, dtype=float)
        return t + sum(a[j - 1] * np.sin(np.pi * j * t) for j in range(1, modes + 1))

    return g


def raw_rotation(P1, P2):
    """``O = P2^-1 P1 M^(1/2)`` before any re-projection, from its definition."""
    w, U = np.linalg.eigh(pair_matrix(P1, P2))
    root = (U * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.swapaxes(U, -1, -2)
    return np.linalg.solve(P2, P1 @ root)


def ortho_defect(X):
    """Largest entry of ``|X^T X - I|`` over a stack."""
    return float(np.abs(np.swapaxes(X, -1, -2) @ X - np.eye(X.shape[-1])).max())


def spread_unitdet_pair(n, cond, seed, defect_range):
    """A random unit-determinant pair, eigenvalues spread over ``cond``.

    The first one whose pair matrix passes the positive-definiteness check
    and whose raw rotation's defect lies in ``defect_range``.
    """
    rng = np.random.default_rng(seed)
    ev = np.exp(np.linspace(-0.5, 0.5, n) * np.log(cond))
    while True:
        P1, P2 = (
            symmetrize((Q * ev) @ Q.T)
            for Q in (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
        )
        if np.linalg.eigh(pair_matrix(P1, P2))[0][0] < EPS_PD:
            continue
        if defect_range[0] <= ortho_defect(raw_rotation(P1, P2)) < defect_range[1]:
            return P1, P2


# ---------------------------------------------------------------------------
# quantities of the paper that the program computes only inside a larger path


def dist_full(P1, P2, w_det=None):
    """Distance between general SPD matrices: unit-determinant part plus log-det channel.

    The squared distance is ``dist_unitdet(U1, U2)^2 + w_det (log det P2 -
    log det P1)^2`` with ``w_det`` defaulting to ``1/n``: the point-item
    ``d_c`` of ``distance --items matrices --include-logdet``.
    """
    f1, f2 = (_point_features(_built(P[None]), True, w_det) for P in (P1, P2))
    return _dc_from_features(f1, f2)


def log_det(P):
    """``log det P``, as ``n`` times the log-det channel of `normalize_det`."""
    return P.shape[-1] * normalize_det(P)[1]


def evaluate(traj, s):
    """Trajectory value at time ``s`` in [0, 1], from the walk that resampling uses."""
    return _evaluate(traj, np.array([float(s)]))[0][0]


def geodesic(P1, P2, t):
    """Point at ``t`` in [0, 1] on the geodesic from P1 to P2: a two-sample trajectory's value."""
    return evaluate(_built(np.stack([P1, P2])), t)


def parallel_transport(V, P1, P2):
    """Transport of identity-chart coordinates ``V`` at P1 to P2: ``O V O^T``."""
    O = transport_rotation(P1, P2)
    return symmetrize(O @ V @ O.T)


# ---------------------------------------------------------------------------
# oracles for the paper's Lemma 1 and the experiment-1 statistics


def reconstruct(Q, B):
    """Rank-d lift ``B Q B^T`` of a reduced matrix."""
    return symmetrize(B.matrix @ Q @ B.matrix.T)


def pseudoinverse(Q, B):
    """Moore-Penrose inverse ``B Q^-1 B^T`` of the rank-d lift."""
    if np.abs(np.linalg.eigvalsh(symmetrize(Q))).min() < 1e-12:
        raise ValueError("reduced matrix is singular; pseudoinverse undefined")
    return symmetrize(B.matrix @ np.linalg.inv(Q) @ B.matrix.T)


def lemma1_residual(P_i, P_j, B):
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
    rhs = Pij - reconstruct(pair_matrix(Qi, Qj), B)
    return float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs))


def frobenius_gap(D, D_d):
    """``||D - D_d||_F`` between two distance matrices over the same items."""
    if D.ids != D_d.ids:
        raise ValueError("distance matrices cover different items (id mismatch)")
    return float(np.linalg.norm(D.values - D_d.values))


def block_contrast(D, labels):
    """Mean within-class and between-class distances (diagonal excluded) and their ratio."""
    vals = np.asarray(getattr(D, "values", D), dtype=float)
    labels = np.asarray(labels)
    if len(set(labels.tolist())) < 2:
        raise ValueError("block contrast needs at least 2 classes")
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(labels), dtype=bool)
    within = float(vals[same & off].mean())
    between = float(vals[~same].mean())
    return within, between, within / between


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
