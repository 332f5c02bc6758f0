import numpy as np
import pytest

from conftest import block_contrast, log_det
from spdtraj.alignment import TrajectoryPair, align_dq, apply_warp
from spdtraj.analysis import LabeledCollection, cross_validate, distance_matrix
from spdtraj.geometry import dist_unitdet
from spdtraj.simgen import (
    Exp1Config,
    Exp2Config,
    derived_rng,
    gen_exp1,
    gen_exp2,
    gen_two_class,
)


# ---------------------------------------------------------------------------
# experiment 1


def test_exp1_eigenvalue_floor():
    cfg = Exp1Config(k=2, T=3, n=20, seed=0)
    for mats in gen_exp1(cfg):
        for P in mats:
            assert np.linalg.eigvalsh(P)[0] >= cfg.n - 1e-8


def test_exp1_block_pattern():
    cfg = Exp1Config(k=4, T=5, n=25, seed=1)
    sets = gen_exp1(cfg)
    mats, labels = [], []
    for i, group in enumerate(sets):
        for P in group:
            w, U = np.linalg.eigh(P)
            mats.append((U * (w / np.exp(np.mean(np.log(w))))) @ U.T)
            labels.append(i)
    N = len(mats)
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            D[i, j] = D[j, i] = dist_unitdet(mats[i], mats[j])
    within, between, ratio = block_contrast(D, np.array(labels))
    assert ratio < 1.0


def test_exp1_determinism_and_seed_sensitivity():
    cfg = Exp1Config(k=2, T=2, n=10, seed=42)
    a = gen_exp1(cfg)
    b = gen_exp1(cfg)
    for ma, mb in zip(a, b):
        for Pa, Pb in zip(ma, mb):
            np.testing.assert_array_equal(Pa, Pb)
    c = gen_exp1(Exp1Config(k=2, T=2, n=10, seed=43))
    assert not np.array_equal(a[0][0], c[0][0])


def test_exp1_default_config_matches_experiment_sizes():
    cfg = Exp1Config()
    assert (cfg.k, cfg.T, cfg.n) == (10, 20, 100)


# ---------------------------------------------------------------------------
# experiment 2


def test_exp2_window_count_before_resampling():
    cfg = Exp2Config(n=8, seed=0)
    from spdtraj.estimation import WindowConfig, window_count

    assert window_count(cfg.length, WindowConfig(cfg.window, cfg.step)) == 23


def test_exp2_shapes_and_determinism():
    cfg = Exp2Config(n=6, length=120, window=40, step=10, out_length=15, seed=3)
    s1, w1, g1 = gen_exp2(cfg)
    s2, w2, g2 = gen_exp2(cfg)
    assert s1.length == 15 and s1.dim == 6
    np.testing.assert_array_equal(s1.matrices, s2.matrices)
    np.testing.assert_array_equal(w1.matrices, w2.matrices)
    np.testing.assert_array_equal(g1.knots_y, g2.knots_y)


def test_exp2_low_roughness_warp_is_near_identity():
    cfg = Exp2Config(n=5, length=100, window=40, step=10, out_length=12,
                     roughness=1e-14, seed=2)
    orig, warped, warp = gen_exp2(cfg)
    err = max(
        dist_unitdet(*[
            M / np.exp(log_det(M) / M.shape[0]) for M in (orig.matrices[k], warped.matrices[k])
        ])
        for k in range(orig.length)
    )
    assert err < 1e-4


def test_exp2_alignment_recovers_warp_fullspace():
    cfg = Exp2Config(n=8, length=200, window=60, step=10, out_length=20,
                     roughness=0.1, seed=5)
    orig, warped, warp = gen_exp2(cfg)
    dq, rec = align_dq(TrajectoryPair(warped, orig), grid=100)
    tg = np.linspace(0, 1, 100)
    rms = np.sqrt(np.mean((rec(tg) - warp(tg)) ** 2))
    assert rms <= 0.05


def test_exp2_rejects_invalid_window():
    with pytest.raises(ValueError, match="window"):
        Exp2Config(window=400, length=300)


# ---------------------------------------------------------------------------
# two-class generator


def test_two_class_balanced_labels():
    coll = gen_two_class(7, 4, 6, separation=1.0, seed=0)
    assert (coll.labels == 0).sum() == 7
    assert (coll.labels == 1).sum() == 7
    assert all(t.dim == 4 and t.length == 6 for t in coll.trajectories)


def test_two_class_determinism():
    c1 = gen_two_class(3, 3, 5, separation=0.7, seed=9)
    c2 = gen_two_class(3, 3, 5, separation=0.7, seed=9)
    for t1, t2 in zip(c1.trajectories, c2.trajectories):
        np.testing.assert_array_equal(t1.matrices, t2.matrices)


def test_two_class_unit_determinant_outputs():
    coll = gen_two_class(2, 4, 5, separation=1.0, seed=1)
    for t in coll.trajectories:
        for P in t.matrices:
            assert abs(log_det(P)) < 1e-8


def test_two_class_separable_high_accuracy():
    coll = gen_two_class(10, 4, 8, separation=3.0, seed=7)
    D = distance_matrix(coll.trajectories, metric="dc", grid=30)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    rep = cross_validate(lab, folds=5, k=1, seed=0)
    assert rep.overall >= 0.95


def test_two_class_zero_separation_chance_level():
    accs = []
    for seed in range(20):
        coll = gen_two_class(6, 3, 6, separation=0.0, seed=seed)
        D = distance_matrix(coll.trajectories, metric="dc", grid=20)
        lab = LabeledCollection(labels=coll.labels, distances=D)
        accs.append(cross_validate(lab, folds=3, k=1, seed=seed).overall)
    mean = np.mean(accs)
    sigma = np.std(accs, ddof=1) / np.sqrt(len(accs))
    assert abs(mean - 0.5) <= 3 * sigma + 0.02


# ---------------------------------------------------------------------------
# rng derivation


def test_derived_rng_streams_are_independent_of_order():
    a1 = derived_rng(5, "x", 0).normal(size=3)
    b1 = derived_rng(5, "x", 1).normal(size=3)
    b2 = derived_rng(5, "x", 1).normal(size=3)
    a2 = derived_rng(5, "x", 0).normal(size=3)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert not np.array_equal(a1, b1)
