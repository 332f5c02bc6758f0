import logging

import numpy as np
import pytest

from conftest import random_unitdet
from spdtraj.estimation import (
    CovarianceTrajectory,
    MultivariateTimeSeries,
    WindowConfig,
    estimate_trajectory,
    ledoit_wolf,
    logdet_curve,
    normalize_trajectory,
    pca_reduce_timeseries,
    smooth_resample,
    window_count,
)
from spdtraj.geometry import dist_full, dist_unitdet, log_det, sym_exp, sym_log


# ---------------------------------------------------------------------------
# shrinkage estimator


def test_covariance_trajectory_leaves_callers_array_untouched():
    a = np.array([[[2.0, 0.1], [0.3, 2.0]]])
    traj = CovarianceTrajectory(matrices=a)
    assert a[0, 0, 1] == 0.1 and a[0, 1, 0] == 0.3
    assert traj.matrices[0, 0, 1] == traj.matrices[0, 1, 0] == 0.2


def test_ledoit_wolf_monte_carlo_identity(rng):
    X = rng.normal(size=(10_000, 3))
    sigma, diag = ledoit_wolf(X)
    assert np.abs(sigma - np.eye(3)).max() < 0.05
    assert not diag.degenerate


def test_ledoit_wolf_spd_despite_rank_deficiency(rng):
    X = rng.normal(size=(2, 5))
    sigma, diag = ledoit_wolf(X)
    assert np.linalg.eigvalsh(sigma)[0] > 0
    assert diag.rho1 >= 0 and diag.rho2 >= 0


def test_ledoit_wolf_sample_weight_grows_with_samples(rng):
    A = rng.normal(size=(4, 4))
    cov = A @ A.T + np.eye(4)
    L = np.linalg.cholesky(cov)
    rho2 = []
    for K in (40, 400, 4000):
        X = rng.normal(size=(K, 4)) @ L.T
        _, diag = ledoit_wolf(X)
        rho2.append(diag.rho2)
    assert rho2[0] < rho2[1] < rho2[2]


def test_ledoit_wolf_constant_window_flagged():
    X = np.ones((10, 3)) * 2.5
    sigma, diag = ledoit_wolf(X)
    assert diag.degenerate
    assert np.linalg.eigvalsh(sigma)[0] > 0
    # degenerates to a scaled identity
    assert np.abs(sigma - sigma[0, 0] * np.eye(3)).max() == 0.0


def test_ledoit_wolf_rejects_single_row():
    with pytest.raises(ValueError):
        ledoit_wolf(np.ones((1, 3)))


def test_ledoit_wolf_convex_structure(rng):
    # estimate reproduces rho1*I + rho2*S with S the centered sample covariance
    X = rng.normal(size=(30, 4))
    sigma, diag = ledoit_wolf(X)
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / X.shape[0]
    np.testing.assert_allclose(
        sigma, diag.rho1 * np.eye(4) + diag.rho2 * S, atol=1e-12
    )


# ---------------------------------------------------------------------------
# trajectory estimation


def test_window_count_matches_paper_setting():
    assert window_count(300, WindowConfig(80, 10)) == 23


def test_estimate_trajectory_window_count(rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(300, 6)))
    traj = estimate_trajectory(ts, WindowConfig(80, 10))
    assert traj.length == 23
    assert traj.dim == 6
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_estimate_trajectory_two_window_boundary(rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(100, 3)))
    traj = estimate_trajectory(ts, WindowConfig(60, 40))
    assert traj.length == 2


def test_estimate_trajectory_rejects_oversized_window(rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(50, 3)))
    with pytest.raises(ValueError, match="window_size"):
        estimate_trajectory(ts, WindowConfig(60, 10))


def test_estimate_trajectory_warns_once_of_degenerate_windows(rng, caplog):
    # window 2 of 5 sees only a constant stretch of the series
    values = rng.normal(size=(60, 3))
    values[20:40] = 1.5
    ts = MultivariateTimeSeries(values)
    cfg = WindowConfig(20, 10)
    with caplog.at_level(logging.WARNING, logger="spdtraj.estimation"):
        traj = estimate_trajectory(ts, cfg)
    records = [r for r in caplog.records if r.name == "spdtraj.estimation"]
    assert len(records) == 1 and records[0].levelno == logging.WARNING
    assert records[0].getMessage() == "1 of 5 shrinkage windows degenerate (first: window 2)"
    # the result is the per-window estimate, as without the warning
    for w in range(5):
        assert np.array_equal(traj.matrices[w], ledoit_wolf(values[10 * w : 10 * w + 20])[0])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="spdtraj.estimation"):
        estimate_trajectory(MultivariateTimeSeries(rng.normal(size=(60, 3))), cfg)
    assert not caplog.records


def test_estimate_trajectory_deterministic(rng):
    X = rng.normal(size=(200, 4))
    t1 = estimate_trajectory(MultivariateTimeSeries(values=X), WindowConfig(50, 25))
    t2 = estimate_trajectory(MultivariateTimeSeries(values=X), WindowConfig(50, 25))
    np.testing.assert_array_equal(t1.matrices, t2.matrices)


def test_estimate_trajectory_iid_points_near_common_center(rng):
    # i.i.d. N(0, I) input: every point within dist_full 1.0 of the log-mean
    ts = MultivariateTimeSeries(values=rng.normal(size=(1000, 10)))
    traj = estimate_trajectory(ts, WindowConfig(80, 40))
    center = sym_exp(np.mean([sym_log(P) for P in traj.matrices], axis=0))
    for P in traj.matrices:
        assert dist_full(P, center) <= 1.0


# ---------------------------------------------------------------------------
# smoothing / resampling


def _random_walk_trajectory(rng, n, T, step=0.35):
    mats = np.empty((T, n, n))
    A = np.zeros((n, n))
    for k in range(T):
        B = rng.normal(size=(n, n))
        A = A + step * 0.5 * (B + B.T)
        mats[k] = sym_exp(A)
    return CovarianceTrajectory(matrices=mats)


def test_smooth_resample_constant_trajectory(rng):
    P = random_unitdet(rng, 3)
    traj = CovarianceTrajectory(matrices=np.repeat(P[None], 8, axis=0))
    out = smooth_resample(traj, kernel_width=2.0, T_out=8)
    np.testing.assert_allclose(out.matrices, traj.matrices, atol=1e-12)


def test_smooth_resample_delta_kernel_limit(rng):
    traj = _random_walk_trajectory(rng, 3, 10)
    out = smooth_resample(traj, kernel_width=1e-3, T_out=10)
    np.testing.assert_allclose(out.matrices, traj.matrices, atol=1e-6)


def test_smooth_resample_contracts_path_length(rng):
    for _ in range(5):
        traj = _random_walk_trajectory(rng, 3, 15)
        out = smooth_resample(traj, kernel_width=1.5, T_out=15)

        def plen(tr):
            return sum(
                dist_unitdet(*normalize_trajectory(tr)[0].matrices[k : k + 2])
                for k in range(tr.length - 1)
            )

        assert plen(out) <= plen(traj) + 1e-9


def test_smooth_resample_output_stays_pd(rng):
    traj = _random_walk_trajectory(rng, 4, 12)
    out = smooth_resample(traj, kernel_width=2.5, T_out=30)
    assert out.length == 30
    for P in out.matrices:
        assert np.linalg.eigvalsh(P)[0] > 0


def test_smooth_resample_rejects_bad_width(rng):
    traj = _random_walk_trajectory(rng, 3, 5)
    with pytest.raises(ValueError):
        smooth_resample(traj, kernel_width=0.0, T_out=5)


# ---------------------------------------------------------------------------
# log-det curve


def test_logdet_curve_identity_trajectory():
    traj = CovarianceTrajectory(matrices=np.repeat(np.eye(3)[None], 5, axis=0))
    np.testing.assert_array_equal(logdet_curve(traj), np.zeros(5))


def test_logdet_curve_scaled_identity():
    c = 3.7
    traj = CovarianceTrajectory(matrices=np.repeat((c * np.eye(4))[None], 6, axis=0))
    np.testing.assert_allclose(logdet_curve(traj), np.full(6, np.log(c)), rtol=1e-12)


def test_logdet_curve_matches_eigenvalue_oracle(rng):
    traj = _random_walk_trajectory(rng, 4, 7)
    vals = logdet_curve(traj)
    for k in range(traj.length):
        expected = log_det(traj.matrices[k]) / traj.dim
        assert vals[k] == pytest.approx(expected, abs=1e-10)


def test_normalize_trajectory_recombines(rng):
    traj = _random_walk_trajectory(rng, 3, 6)
    unit, track = normalize_trajectory(traj)
    for k in range(traj.length):
        assert abs(log_det(unit.matrices[k])) < 1e-8
        np.testing.assert_allclose(
            np.exp(track[k]) * unit.matrices[k], traj.matrices[k], rtol=1e-10
        )


# ---------------------------------------------------------------------------
# PCA baseline


def test_pca_full_dimension_preserves_distances(rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(50, 5)))
    out = pca_reduce_timeseries(ts, 5)
    X = ts.values - ts.values.mean(axis=0)
    Y = out.values
    for i in (0, 7, 23):
        for j in (3, 40):
            dx = np.linalg.norm(X[i] - X[j])
            dy = np.linalg.norm(Y[i] - Y[j])
            assert dy == pytest.approx(dx, abs=1e-8)


def test_pca_rank_one_reconstruction(rng):
    v = rng.normal(size=4)
    scores = rng.normal(size=60)
    ts = MultivariateTimeSeries(values=np.outer(scores, v))
    out = pca_reduce_timeseries(ts, 1)
    Y = out.values
    Xc = ts.values - ts.values.mean(axis=0)
    # projection onto the retained component reproduces the data
    resid = Xc - Y @ np.linalg.pinv(Y) @ Xc
    assert np.abs(resid).max() < 1e-8


def test_pca_retained_variance_matches_spectrum(rng):
    A = rng.normal(size=(6, 6))
    X = rng.normal(size=(500, 6)) @ A.T
    ts = MultivariateTimeSeries(values=X)
    d = 3
    out = pca_reduce_timeseries(ts, d)
    Xc = X - X.mean(axis=0)
    w = np.linalg.eigvalsh(Xc.T @ Xc / (X.shape[0] - 1))[::-1]
    expected_fraction = w[:d].sum() / w.sum()
    got_fraction = out.values.var(axis=0, ddof=1).sum() / Xc.var(axis=0, ddof=1).sum()
    assert got_fraction == pytest.approx(expected_fraction, rel=1e-10)


def test_pca_rejects_oversized_dimension(rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(20, 3)))
    with pytest.raises(ValueError):
        pca_reduce_timeseries(ts, 4)


# ---------------------------------------------------------------------------
# container validation


def test_timeseries_rejects_nan():
    X = np.zeros((5, 2))
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        MultivariateTimeSeries(values=X)


def test_trajectory_rejects_non_pd():
    mats = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    with pytest.raises(ValueError, match="positive definite"):
        CovarianceTrajectory(matrices=mats)

