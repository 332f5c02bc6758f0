import numpy as np
import pytest

from spdtraj.estimation import CovarianceTrajectory
from spdtraj.geometry import EPS_PD, pair_matrix, sym_exp, symmetrize


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
