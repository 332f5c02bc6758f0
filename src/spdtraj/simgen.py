"""Seeded generators for the two simulation experiments and classification data.

Every generator draws from counter-based Philox streams keyed by a SHA-256
hash of (seed, generator name, item index), so output is bitwise reproducible
for a given config regardless of evaluation order or thread count.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .alignment import WarpingFunction, apply_warp, random_warp
from .analysis import LabeledCollection
from .estimation import (
    CovarianceTrajectory,
    MultivariateTimeSeries,
    WindowConfig,
    estimate_trajectory,
    grid_times,
    smooth_resample,
)
from .geometry import exp_map, normalize_det, sym_exp, symmetrize


def derived_rng(seed: int, *salts) -> np.random.Generator:
    """Philox generator keyed by a hash of the seed and salt labels."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for s in salts:
        h.update(b"|")
        h.update(str(s).encode())
    key = int.from_bytes(h.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Exp1Config:
    """Clustered random SPD matrices: k sets of T matrices sharing a set factor."""

    k: int = 10
    T: int = 20
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.k, self.T, self.n) < 1:
            raise ValueError("k, T and n must be positive")


@dataclass(frozen=True)
class Exp2Config:
    """Sliding-window covariance trajectory plus a random time warp of it."""

    n: int = 100
    length: int = 300
    window: int = 80
    step: int = 10
    out_length: int = 20
    kernel_width: float = 1.5
    roughness: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.window > self.length:
            raise ValueError(
                f"window ({self.window}) must not exceed series length ({self.length})"
            )
        if min(self.n, self.length, self.window, self.step, self.out_length) < 1:
            raise ValueError("all size parameters must be positive")
        if self.kernel_width <= 0 or self.roughness <= 0:
            raise ValueError("kernel_width and roughness must be positive")


def gen_exp1(cfg: Exp1Config) -> list[list[np.ndarray]]:
    """k sets of T SPD matrices: ``K_i K_i^T + n I + eps_ij eps_ij^T``.

    The set factor K_i is shared within a set; the noise factor is fresh per
    matrix.  Every output has smallest eigenvalue at least n.
    """
    sets = []
    for i in range(cfg.k):
        rng_set = derived_rng(cfg.seed, "exp1-set", i)
        K = rng_set.normal(size=(cfg.n, cfg.n))
        base = K @ K.T + cfg.n * np.eye(cfg.n)
        mats = []
        for j in range(cfg.T):
            rng_mat = derived_rng(cfg.seed, "exp1-mat", i, j)
            eps = rng_mat.normal(size=(cfg.n, cfg.n))
            mats.append(symmetrize(base + eps @ eps.T))
        sets.append(mats)
    return sets


def gen_exp2(
    cfg: Exp2Config,
) -> tuple[CovarianceTrajectory, CovarianceTrajectory, WarpingFunction]:
    """One smoothed covariance trajectory, its warped copy, and the true warp.

    Pipeline: i.i.d. standard normal series, sliding-window covariances,
    log-domain Gaussian smoothing resampled to ``out_length`` points, then a
    random warp applied by geodesic interpolation.
    """
    rng = derived_rng(cfg.seed, "exp2-series")
    X = rng.normal(size=(cfg.length, cfg.n))
    ts = MultivariateTimeSeries(values=X)
    raw = estimate_trajectory(ts, WindowConfig(cfg.window, cfg.step))
    smooth = smooth_resample(raw, kernel_width=cfg.kernel_width, T_out=cfg.out_length)
    warp_seed = int(derived_rng(cfg.seed, "exp2-warp").integers(0, 2**63 - 1))
    warp = random_warp(cfg.out_length, cfg.roughness, warp_seed)
    warped = apply_warp(smooth, warp)
    return smooth, warped, warp


_WITHIN_SPREAD = 0.15


def _random_tracefree(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    A = symmetrize(rng.normal(size=(n, n))) * scale
    return A - np.trace(A) / n * np.eye(n)


def gen_two_class(
    N_per_class: int,
    n: int,
    T: int,
    separation: float,
    seed: int,
) -> LabeledCollection:
    """Two balanced classes of smooth random trajectories around class anchors.

    Anchors sit at geodesic distance ``separation``; each trajectory wanders
    in the anchor's tangent space with scale ``_WITHIN_SPREAD``.  With
    ``separation == 0`` the classes are identically distributed.
    """
    if min(N_per_class, n, T) < 1:
        raise ValueError("N_per_class, n and T must be positive")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    direction = _random_tracefree(derived_rng(seed, "twoclass-dir"), n, 1.0)
    direction /= np.linalg.norm(direction)
    anchors = [
        sym_exp(np.zeros((n, n))),
        sym_exp(separation * direction),
    ]
    trajs = []
    labels = []
    times = grid_times(T)
    for c in (0, 1):
        for i in range(N_per_class):
            rng = derived_rng(seed, "twoclass-traj", c, i)
            offset = _random_tracefree(rng, n, _WITHIN_SPREAD)
            wobble = [_random_tracefree(rng, n, _WITHIN_SPREAD) for _ in range(2)]
            phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
            mats = np.empty((T, n, n))
            for k, t in enumerate(times):
                Z = offset + sum(
                    np.sin(np.pi * (m + 1) * t + phases[m]) * wobble[m]
                    for m in range(2)
                )
                mats[k], _ = normalize_det(exp_map(anchors[c], Z))
            trajs.append(CovarianceTrajectory(matrices=mats))
            labels.append(c)
    return LabeledCollection(labels=np.array(labels), trajectories=trajs)
