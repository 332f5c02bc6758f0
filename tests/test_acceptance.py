"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import time

import numpy as np
import pytest

from conftest import (
    block_contrast,
    dist_full,
    frobenius_gap,
    geodesic,
    lemma1_residual,
    parallel_transport,
    pseudoinverse,
    random_tracefree,
    random_unitdet,
    reconstruct,
    sample_curve,
    smooth_unitdet_curve,
    smooth_warp_fn,
)
from spdtraj.alignment import TrajectoryPair, align_dq, dist_dc
from spdtraj.analysis import LabeledCollection, cross_validate, distance_matrix
from spdtraj.estimation import CovarianceTrajectory
from spdtraj.geometry import (
    dist_unitdet,
    exp_map,
    log_euclidean_dist,
    log_map,
    normalize_det,
    pair_matrix,
)
from spdtraj.reduction import (
    StiefelBasis,
    _objective_core,
    build_pairs,
    fit,
    project,
    reduce_trajectory,
)
from spdtraj.simgen import Exp1Config, Exp2Config, gen_exp1, gen_exp2, gen_two_class


def _report(num, started, detail):
    print(f"\nACCEPTANCE {num}: PASS ({time.perf_counter() - started:.1f}s) {detail}")


# ---------------------------------------------------------------------------


def test_acceptance_01_metric_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    metrics = (dist_unitdet, dist_full, log_euclidean_dist)
    for n in (3, 10):
        for _ in range(1000):
            P1, P2, P3 = (random_unitdet(rng, n, spread=0.5) for _ in range(3))
            for d in metrics:
                assert d(P1, P1) == 0.0
                assert d(P1, P2) == d(P2, P1)
                assert d(P1, P3) <= d(P1, P2) + d(P2, P3) + 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"metric axiom sweep took {elapsed:.1f}s (budget 10s)"
    _report(1, started, "metric axioms at n=3,10 over 1000 triples each")


def test_acceptance_02_geometry_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(202)

    # closed-form distance vs discretized geodesic path length (1000 steps)
    P1 = random_unitdet(rng, 4, spread=0.6)
    P2 = random_unitdet(rng, 4, spread=0.6)
    steps = 1000
    pts = [geodesic(P1, P2, t) for t in np.linspace(0, 1, steps + 1)]
    chord = sum(dist_unitdet(pts[i], pts[i + 1]) for i in range(steps))
    assert abs(chord - dist_unitdet(P1, P2)) < 1e-3

    # parallel transport vs Schild's ladder (1000 rungs)
    from test_geometry import _schild_ladder

    P1 = random_unitdet(rng, 4, spread=0.4)
    P2 = random_unitdet(rng, 4, spread=0.4)
    V = random_tracefree(rng, 4, scale=0.5)
    ladder = _schild_ladder(V, P1, P2, rungs=1000, eps=1e-4)
    closed = parallel_transport(V, P1, P2)
    assert np.linalg.norm(ladder - closed) < 1e-3

    # exp/log round trips
    for _ in range(20):
        A, B = random_unitdet(rng, 5), random_unitdet(rng, 5)
        assert np.abs(exp_map(A, log_map(A, B)) - B).max() < 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"geometry oracles took {elapsed:.1f}s (budget 60s)"
    _report(2, started, "path length, Schild's ladder, exp/log round trips")


@pytest.mark.slow
def test_acceptance_03_experiment1_reduction_trends():
    started = time.perf_counter()
    cfg = Exp1Config(k=10, T=20, n=100, seed=30)
    sets = gen_exp1(cfg)
    mats, labels = [], []
    for i, group in enumerate(sets):
        for P in group:
            mats.append(normalize_det(P)[0])
            labels.append(i)
    labels = np.array(labels)
    items = [CovarianceTrajectory(matrices=M[None]) for M in mats]
    ids = [f"m{i:03d}" for i in range(len(items))]

    D = distance_matrix(items, ids, metric="dc")
    _, _, ratio_full = block_contrast(D, labels)
    assert ratio_full < 1.0

    gaps = {}
    ratios = {}
    for d in (20, 10, 5):
        model = fit(mats, d, max_iters=60, seed=0)
        reduced = [reduce_trajectory(tr, model) for tr in items]
        Dd = distance_matrix(reduced, ids, metric="dc")
        gaps[d] = frobenius_gap(D, Dd)
        ratios[d] = block_contrast(Dd, labels)[2]

    assert ratios[20] < 1.0 and ratios[10] < 1.0
    assert gaps[20] <= gaps[10] <= gaps[5]

    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"experiment 1 took {elapsed:.1f}s (budget 15min)"
    _report(
        3,
        started,
        f"block ratios full={ratio_full:.2f} d20={ratios[20]:.2f} "
        f"d10={ratios[10]:.2f}; gaps {gaps[20]:.0f}<={gaps[10]:.0f}<={gaps[5]:.0f}",
    )


@pytest.mark.slow
def test_acceptance_04_experiment2_warp_recovery():
    started = time.perf_counter()
    rms = {50: [], 20: [], 5: []}
    for seed in (1, 2):
        cfg = Exp2Config(n=100, seed=seed)
        orig, warped, warp = gen_exp2(cfg)
        training = [normalize_det(P)[0] for P in orig.matrices] + [
            normalize_det(P)[0] for P in warped.matrices
        ]
        tg = np.linspace(0, 1, 100)
        truth = warp(tg)
        for d in (50, 20, 5):
            model = fit(training, d, max_iters=40, seed=0)
            ro = reduce_trajectory(orig, model)
            rw = reduce_trajectory(warped, model)
            _, rec = align_dq(TrajectoryPair(rw, ro), grid=100)
            rms[d].append(float(np.sqrt(np.mean((rec(tg) - truth) ** 2))))

    for d in (50, 20):
        for v in rms[d]:
            assert v <= 0.05, f"d={d} recovery rms {v:.4f} > 0.05"
    assert np.mean(rms[5]) > max(np.mean(rms[50]), np.mean(rms[20]))

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"experiment 2 took {elapsed:.1f}s (budget 10min)"
    _report(
        4,
        started,
        f"recovery rms d50={np.mean(rms[50]):.4f} d20={np.mean(rms[20]):.4f} "
        f"d5={np.mean(rms[5]):.4f}",
    )


def test_acceptance_05_rate_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    pairs = []
    for _ in range(100):
        pairs.append(
            (
                smooth_unitdet_curve(rng, 3),
                smooth_unitdet_curve(rng, 3),
                smooth_warp_fn(rng, strength=0.35),
            )
        )

    def rel_errors(T):
        errs = []
        for f1, f2, g in pairs:
            plain = TrajectoryPair(sample_curve(f1, T), sample_curve(f2, T))
            warped = TrajectoryPair(
                sample_curve(lambda t: f1(g(t)), T),
                sample_curve(lambda t: f2(g(t)), T),
            )
            d0, d1 = dist_dc(plain), dist_dc(warped)
            errs.append(abs(d1 - d0) / max(d0, 1e-6))
        return np.array(errs)

    e100 = rel_errors(100)
    assert e100.max() <= 0.02, f"max relative change {e100.max():.4f} > 2%"
    e50 = rel_errors(50)
    e200 = rel_errors(200)
    assert e100.mean() < e50.mean()
    assert e200.mean() < e100.mean()
    _report(
        5,
        started,
        f"max 2% at T=100 (got {e100.max():.4f}); means "
        f"{e50.mean():.5f} > {e100.mean():.5f} > {e200.mean():.5f}",
    )


def test_acceptance_06_lemma_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(1000):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, n))
        P1 = random_unitdet(rng, n, spread=0.5)
        P2 = random_unitdet(rng, n, spread=0.5)
        B = StiefelBasis(matrix=np.linalg.qr(rng.normal(size=(n, d)))[0])
        r1, r2 = lemma1_residual(P1, P2, B)
        assert abs(r1 - r2) < 1e-10
        Q = 0.5 * (B.matrix.T @ P1 @ B.matrix + (B.matrix.T @ P1 @ B.matrix).T)
        A = reconstruct(Q, B)
        Ainv = pseudoinverse(Q, B)
        assert np.abs(A @ Ainv @ A - A).max() < 1e-10
        assert np.abs(Ainv @ A @ Ainv - Ainv).max() < 1e-10
        assert np.abs(A @ Ainv - (A @ Ainv).T).max() < 1e-10
        assert np.abs(Ainv @ A - (Ainv @ A).T).max() < 1e-10

    # Lemma 2 consistency identity
    mats = [random_unitdet(rng, 6) for _ in range(5)]
    pairs = build_pairs(mats)
    pair_mats = [pair_matrix(mats[i], mats[j]) for i, j in pairs.indices]
    B = StiefelBasis(matrix=np.linalg.qr(rng.normal(size=(6, 3)))[0])
    loss = sum(
        float(np.sum((M - B.matrix @ (B.matrix.T @ M @ B.matrix) @ B.matrix.T) ** 2))
        for M in pair_mats
    )
    energy = sum(float(np.sum(M * M)) for M in pair_mats)
    assert abs(loss + _objective_core(B.matrix, pairs)[1] - energy) / energy < 1e-8

    # gradient vs central finite differences
    mats = [random_unitdet(rng, 4) for _ in range(3)]
    pairs = build_pairs(mats)
    pair_mats = [pair_matrix(mats[i], mats[j]) for i, j in pairs.indices]
    Bm = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    G = _objective_core(Bm, pairs)[0]
    h = 1e-6
    fd = np.zeros_like(Bm)
    for a in range(4):
        for b in range(2):
            Bp, Bm_ = Bm.copy(), Bm.copy()
            Bp[a, b] += h
            Bm_[a, b] -= h
            fp = sum(np.sum((Bp.T @ M @ Bp) * (Bp.T @ M @ Bp).T) for M in pair_mats)
            fm = sum(np.sum((Bm_.T @ M @ Bm_) * (Bm_.T @ M @ Bm_).T) for M in pair_mats)
            fd[a, b] = (fp - fm) / (2 * h)
    assert np.abs(G - fd).max() / np.abs(fd).max() < 1e-5
    _report(6, started, "pair identity, Moore-Penrose, consistency, gradient fd")


def test_acceptance_07_reduction_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    n, d = 12, 4
    mats = []
    for _ in range(10):
        C = random_unitdet(rng, d, spread=0.6)
        P = np.eye(n)
        P[:d, :d] = C
        mats.append(P)
    model = fit(mats, d, seed=0)
    E = np.eye(n)[:, :d]
    s = np.linalg.svd(model.basis.matrix.T @ E, compute_uv=False)
    angles = np.arccos(np.clip(s, -1, 1))
    assert angles.max() <= 1e-3
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            full = dist_unitdet(mats[i], mats[j])
            Qi, _ = project(mats[i], model.basis)
            Qj, _ = project(mats[j], model.basis)
            worst = max(worst, abs(dist_unitdet(Qi, Qj) - full))
    assert worst <= 1e-6
    _report(
        7, started, f"principal angle {angles.max():.2e}, distance drift {worst:.2e}"
    )


def test_acceptance_08_classification_suite():
    started = time.perf_counter()
    coll = gen_two_class(40, 4, 10, separation=3.0, seed=88)
    D = distance_matrix(coll.trajectories, metric="dc", grid=40)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    rep = cross_validate(lab, folds=5, k=1, seed=0)
    assert rep.overall >= 0.95

    accs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        perm = LabeledCollection(labels=rng.permutation(coll.labels), distances=D)
        accs.append(cross_validate(perm, folds=5, k=1, seed=seed).overall)
    mean = float(np.mean(accs))
    sigma = float(np.std(accs, ddof=1) / np.sqrt(len(accs)))
    assert abs(mean - 0.5) <= 3 * sigma + 0.02
    _report(
        8,
        started,
        f"separable accuracy {rep.overall:.3f}; permuted mean {mean:.3f} "
        f"(3 sigma = {3 * sigma:.3f})",
    )


@pytest.mark.slow
def test_acceptance_09_performance_trend():
    started = time.perf_counter()
    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    def timed_align(n, reps=3):
        rng = derived_rng(9, "perf", n)
        pair = TrajectoryPair(
            _random_trajectory(rng, n, 20), _random_trajectory(rng, n, 20)
        )
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            align_dq(pair, grid=100)
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts)), pair

    def timed_dc(pair, reps=3):
        ts = []
        for _ in range(reps):
            t0 = time.perf_counter()
            dist_dc(pair)
            ts.append(time.perf_counter() - t0)
        return float(np.median(ts))

    t10, pair10 = timed_align(10)
    t100, pair100 = timed_align(100)
    assert t100 >= 10.0 * t10, f"align at d=100 ({t100:.3f}s) not 10x d=10 ({t10:.3f}s)"

    for n, (t_dq, pair) in ((10, (t10, pair10)), (100, (t100, pair100))):
        t_dc = timed_dc(pair)
        assert t_dq >= t_dc, f"alignment not costlier at n={n}"
    _report(9, started, f"align d=10: {t10*1e3:.1f}ms, d=100: {t100*1e3:.0f}ms")


@pytest.mark.slow
def test_acceptance_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    from spdtraj import io
    from spdtraj.cli import main

    def artifact_bytes(out_dir):
        return {
            p.name: p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json" and not p.name.endswith(".manifest.json")
        }

    # simulate twice: identical bytes
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(
            ["simulate", "twoclass", "--n-per-class", "3", "--n", "3", "--T", "6",
             "--separation", "1.5", "--seed", "4", "--out-dir", str(out)]
        ) == 0
    assert artifact_bytes(a) == artifact_bytes(b)

    for out in (tmp_path / "e1", tmp_path / "e2"):
        assert main(
            ["simulate", "exp2", "--n", "5", "--length", "80", "--window", "30",
             "--step", "10", "--out-length", "8", "--seed", "3", "--out-dir", str(out)]
        ) == 0
    assert artifact_bytes(tmp_path / "e1") == artifact_bytes(tmp_path / "e2")

    # distance across thread counts and reruns
    inputs = [str(p) for p in sorted(a.glob("traj*.spdt"))]
    outs = []
    for name, threads in (("d1.csv", "1"), ("d2.csv", "3"), ("d3.csv", "1")):
        path = tmp_path / name
        assert main(
            ["distance", *inputs, "--metric", "dq", "--grid", "30",
             "--threads", threads, "--out", str(path)]
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    # reduce reruns
    b1, b2 = tmp_path / "r1.stfb", tmp_path / "r2.stfb"
    for bp in (b1, b2):
        assert main(
            ["reduce", *inputs, "--d", "2", "--seed", "1", "--max-iters", "30",
             "--out", str(bp)]
        ) == 0
    assert b1.read_bytes() == b2.read_bytes()

    # classify reruns
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for cp in (c1, c2):
        assert main(
            ["classify", *inputs, "--labels", str(a / "labels.csv"),
             "--folds", "3", "--k", "1", "--grid", "20", "--seed", "2",
             "--out", str(cp)]
        ) == 0
    assert c1.read_bytes() == c2.read_bytes()

    # logdet reruns
    l1, l2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    for lp in (l1, l2):
        assert main(["logdet", *inputs, "--out", str(lp)]) == 0
    assert l1.read_bytes() == l2.read_bytes()
    _report(10, started, "byte-identical artifacts across reruns and thread counts")
