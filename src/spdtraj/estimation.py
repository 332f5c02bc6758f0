"""Covariance-trajectory estimation from multivariate time series.

A sliding window segments the series into overlapping blocks; each block is
summarized by a shrinkage covariance estimate (a convex combination
``rho1 * I + rho2 * S`` of the identity and the sample covariance with
data-driven weights), which stays positive definite even when the window is
shorter than the channel count.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EPS_PD,
    normalize_det,
    sym_exp,
    sym_log,
    symmetrize,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MultivariateTimeSeries:
    """Uniformly sampled multichannel signal, one row per time sample."""

    values: np.ndarray
    sampling_step: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D (times x channels), got {values.ndim}-D")
        if values.shape[0] < 2:
            raise ValueError("time series must have at least 2 samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("time series contains NaN or Inf")
        if self.sampling_step <= 0:
            raise ValueError("sampling_step must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window parameters, in samples."""

    window_size: int
    step_size: int

    def __post_init__(self):
        if self.window_size < 2:
            raise ValueError("window_size must be at least 2")
        if self.step_size < 1:
            raise ValueError("step_size must be at least 1")


@dataclass(frozen=True)
class ShrinkageDiagnostics:
    rho1: float  # weight of the identity
    rho2: float  # weight of the sample covariance
    degenerate: bool = False


def grid_times(T: int) -> np.ndarray:
    """The uniform grid of ``T`` times on [0, 1]; ``[0]`` for one time."""
    return np.linspace(0.0, 1.0, T) if T > 1 else np.zeros(1)


@dataclass(frozen=True)
class CovarianceTrajectory:
    """A sequence of SPD matrices on the uniform grid of [0, 1].

    Sample k of T sits at time ``linspace(0, 1, T)[k]`` (`grid_times`): the
    times follow from the length and are not stored.  The constructor symmetrizes
    the matrices and rejects any whose smallest eigenvalue is below EPS_PD.
    Trajectories that the library builds from checked ones skip that second
    decomposition (`_built`).
    """

    matrices: np.ndarray  # (T, n, n)
    # (unit-determinant trajectory, log-det track) when the routine that made
    # it had them; `normalize_trajectory` returns them without decomposing again
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must have shape (T, n, n), got {mats.shape}")
        mats = symmetrize(mats)  # a new array: the caller's stays untouched
        _require_pd_samples(np.linalg.eigvalsh(mats)[:, 0])
        object.__setattr__(self, "matrices", mats)

    @property
    def times(self) -> np.ndarray:
        return grid_times(self.length)

    @property
    def length(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def _require_pd_samples(smallest: np.ndarray) -> None:
    """Reject a trajectory by the smallest eigenvalue of each of its matrices."""
    bad = np.flatnonzero(smallest < EPS_PD)
    if bad.size:
        raise ValueError(f"trajectory matrix {bad[0]} is not positive definite")


def _built(matrices: np.ndarray, split: tuple | None = None) -> CovarianceTrajectory:
    """A trajectory of exactly symmetric matrices that the library built from checked ones.

    The calling routine has already made the constructor's rejection from
    eigenvalues it computed on the way, so the matrices are neither
    symmetrized nor decomposed again.  ``split`` is the trajectory's
    determinant split when that routine has it.
    """
    traj = object.__new__(CovarianceTrajectory)
    object.__setattr__(traj, "matrices", matrices)
    object.__setattr__(traj, "_split", split)
    return traj


def ledoit_wolf(X: np.ndarray) -> tuple[np.ndarray, ShrinkageDiagnostics]:
    """Shrinkage covariance of a data window (rows are observations).

    Implements the well-conditioned estimator ``Sigma = rho1 I + rho2 S``:
    with ``m = tr(S)/n``, ``d2 = ||S - m I||_F^2 / n`` and ``b2`` the
    (capped) average squared fluctuation of per-sample outer products around
    S, the weights are ``rho1 = b2/d2 * m`` and ``rho2 = 1 - b2/d2``.

    Degenerate windows (no dispersion around the scaled identity) fall back
    to a scaled identity and are flagged in the diagnostics.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("window must be 2-D (samples x channels)")
    K, n = X.shape
    if K < 2:
        raise ValueError("window must contain at least 2 samples")
    Xc = X - X.mean(axis=0)
    S = symmetrize(Xc.T @ Xc / K)
    m = float(np.trace(S)) / n
    d2 = float(np.sum((S - m * np.eye(n)) ** 2)) / n

    scale = max(m * m, 1.0)
    if d2 <= 1e-15 * scale:
        # constant or perfectly isotropic window
        rho1 = max(m, EPS_PD * 10)
        sigma = rho1 * np.eye(n)
        return sigma, ShrinkageDiagnostics(rho1=rho1, rho2=0.0, degenerate=True)

    # average of ||x_k x_k^T - S||_F^2 over samples, divided by K and n
    b2_bar = 0.0
    for k in range(K):
        diff = np.outer(Xc[k], Xc[k]) - S
        b2_bar += float(np.sum(diff * diff))
    b2_bar /= K * K * n
    b2 = min(b2_bar, d2)

    shrink = b2 / d2
    rho1 = shrink * m
    rho2 = 1.0 - shrink
    sigma = symmetrize(rho1 * np.eye(n) + rho2 * S)

    degenerate = False
    wmin = np.linalg.eigvalsh(sigma)[0]
    if wmin < EPS_PD:
        # pathological window (e.g. identical outer products with singular S)
        bump = EPS_PD * 10 + abs(wmin)
        sigma = symmetrize(sigma + bump * np.eye(n))
        rho1 += bump
        degenerate = True
    return sigma, ShrinkageDiagnostics(rho1=rho1, rho2=rho2, degenerate=degenerate)


def window_count(n_times: int, cfg: WindowConfig) -> int:
    return (n_times - cfg.window_size) // cfg.step_size + 1


def estimate_trajectory(
    ts: MultivariateTimeSeries, cfg: WindowConfig
) -> CovarianceTrajectory:
    """Sliding-window covariance trajectory; one SPD matrix per window.

    Produces ``T = floor((n_times - window_size)/step_size) + 1`` matrices on
    a uniform time grid normalized to [0, 1].  Degenerate windows (see
    `ledoit_wolf`) are reported in one WARNING with their count and the
    first one's index.
    """
    if cfg.window_size > ts.n_times:
        raise ValueError(
            f"window_size {cfg.window_size} exceeds series length {ts.n_times}"
        )
    T = window_count(ts.n_times, cfg)
    mats = np.empty((T, ts.n_channels, ts.n_channels))
    degenerate = []
    for w in range(T):
        start = w * cfg.step_size
        block = ts.values[start : start + cfg.window_size]
        mats[w], diag = ledoit_wolf(block)
        if diag.degenerate:
            degenerate.append(w)
    if degenerate:
        log.warning(
            "%d of %d shrinkage windows degenerate (first: window %d)",
            len(degenerate),
            T,
            degenerate[0],
        )
    return CovarianceTrajectory(matrices=mats)


def smooth_resample(
    traj: CovarianceTrajectory, kernel_width: float, T_out: int
) -> CovarianceTrajectory:
    """Gaussian smoothing and resampling of a trajectory.

    Smoothing happens on matrix-log coordinates (the PD cone is not closed
    under entrywise averaging; the log domain is) and maps back through the
    matrix exponential.  ``kernel_width`` is measured in input grid steps.
    """
    if kernel_width <= 0:
        raise ValueError("kernel_width must be positive")
    if T_out < 1:
        raise ValueError("T_out must be positive")
    T = traj.length
    if T == 1:
        out = np.repeat(traj.matrices, T_out, axis=0)
        return CovarianceTrajectory(matrices=out)
    logs = sym_log(traj.matrices)
    dt_in = 1.0 / (T - 1)
    sigma = kernel_width * dt_in
    gap = grid_times(T_out)[:, None] - traj.times[None, :]
    z = gap / sigma
    w = np.exp(-0.5 * np.minimum(z * z, 1400.0))
    total = w.sum(axis=1, keepdims=True)
    # extremely narrow kernel: nearest sample
    empty = total[:, 0] <= 0
    w[empty] = 0.0
    w[empty, np.argmin(np.abs(gap[empty]), axis=1)] = 1.0
    total[empty] = 1.0
    # one (1, T) @ (T, n*n) product per output row, summed as a lone row would be
    L = ((w / total)[:, None, :] @ logs.reshape(T, -1)).reshape(T_out, traj.dim, traj.dim)
    return CovarianceTrajectory(matrices=sym_exp(L))


def logdet_curve(traj: CovarianceTrajectory) -> np.ndarray:
    """Per-time-point values of ``log det(P(t)) / n``."""
    return np.sum(np.log(np.linalg.eigvalsh(traj.matrices)), axis=1) / traj.dim


def normalize_trajectory(
    traj: CovarianceTrajectory,
) -> tuple[CovarianceTrajectory, np.ndarray]:
    """Pointwise determinant normalization; returns the log-det track too.

    A unit-determinant part with an eigenvalue below EPS_PD is rejected
    (`geometry.normalize_det`).  A trajectory that carries its split, as a
    resampled one does, is not decomposed again.
    """
    if traj._split is not None:
        return traj._split
    mats, track = normalize_det(traj.matrices)
    return _built(mats), track


def pca_reduce_timeseries(
    ts: MultivariateTimeSeries, d: int
) -> MultivariateTimeSeries:
    """Project channels onto the top-d principal components of the channel covariance."""
    if d < 1 or d > ts.n_channels:
        raise ValueError(
            f"d must be in [1, {ts.n_channels}] for {ts.n_channels} channels, got {d}"
        )
    Xc = ts.values - ts.values.mean(axis=0)
    C = Xc.T @ Xc / (ts.n_times - 1)
    w, U = np.linalg.eigh(symmetrize(C))
    comps = U[:, np.argsort(-w)[:d]]
    return MultivariateTimeSeries(values=Xc @ comps, sampling_step=ts.sampling_step)
