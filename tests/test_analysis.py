import numpy as np
import pytest

from conftest import sample_curve, smooth_unitdet_curve
from spdtraj import alignment, analysis, geometry
from spdtraj.alignment import (
    TrajectoryPair,
    _dq_from_features,
    _trajectory_features,
    align_dq,
    apply_warp,
    dist_dc,
    random_warp,
    resample_trajectory,
)
from spdtraj.analysis import (
    DistanceMatrix,
    LabeledCollection,
    alignment_reduction_histogram,
    block_contrast,
    cross_validate,
    distance_matrix,
    frobenius_gap,
    knn_classify,
    offdiag_pairs,
)
from spdtraj.estimation import CovarianceTrajectory
from spdtraj.geometry import DimensionMismatchError, NotPositiveDefiniteError, normalize_det
from spdtraj.simgen import Exp1Config, gen_exp1, gen_two_class


def _collection(rng, count, n=3, T=12):
    return [sample_curve(smooth_unitdet_curve(rng, n), T) for _ in range(count)]


# ---------------------------------------------------------------------------
# distance_matrix


def test_distance_matrix_identical_items(rng):
    traj = _collection(rng, 1)[0]
    D = distance_matrix([traj] * 4, metric="dc")
    assert np.abs(D.values).max() < 1e-8
    assert np.array_equal(np.diag(D.values), np.zeros(4))


def test_distance_matrix_two_cluster_contrast(rng):
    coll = gen_two_class(6, 3, 8, separation=2.0, seed=4)
    D = distance_matrix(coll.trajectories, metric="dc", grid=40)
    within, between, ratio = block_contrast(D, coll.labels)
    assert ratio < 1.0
    assert between > within


def test_distance_matrix_dq_below_dc(rng):
    trajs = _collection(rng, 4, T=30)
    Dc = distance_matrix(trajs, metric="dc", grid=50)
    Dq = distance_matrix(trajs, metric="dq", grid=50)
    assert np.all(Dq.values <= Dc.values + 1e-8)


def test_dq_matrix_entry_is_both_align_dq_directions(rng):
    # one warp search per pair: the matrix entry and align_dq in either
    # direction are the two halves of the same computation, bit for bit
    for _ in range(2):
        a, b = _collection(rng, 2, T=20)
        D = distance_matrix([a, b], metric="dq", grid=50)
        d_ab, w_ab = align_dq(TrajectoryPair(a, b), grid=50)
        d_ba, w_ba = align_dq(TrajectoryPair(b, a), grid=50)
        assert D.values[0, 1] == max(d_ab, d_ba)
        assert D.asymmetry == abs(d_ab - d_ba)
        fa, fb = (_trajectory_features(t, 50, False, None) for t in (a, b))
        [(d12, d21, w12, w21, dc)], _ = _dq_from_features([(fa, fb)])
        assert (d_ab, d_ba) == (d12, d21)
        assert np.array_equal(w_ab.knots_y, w12.knots_y)
        assert np.array_equal(w_ba.knots_y, w21.knots_y)
        assert D.unaligned.values[0, 1] == dc


def test_dq_blocks_match_single_pair_search(rng, monkeypatch):
    # 10 pairs through a pool of 3 Gram slots, so that pairs join as slots
    # free up, give exactly the matrix and counters of one single-pair
    # search per pair, also when lanes stop at a small iteration cap
    grid = 30
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 3 * 8 * grid * grid)
    calls, slots, batches = [], [], []
    search, empty, lattice = analysis._dq_from_features, alignment._PairGrams.empty, alignment._dp_lattice

    def recorded(pairs):
        calls.append(len(pairs))
        return search(pairs)

    def recorded_empty(P, T):
        slots.append(P)
        return empty(P, T)

    def recorded_lattice(gr, dt, entering):
        batches.append(len(entering))
        return lattice(gr, dt, entering)

    monkeypatch.setattr(analysis, "_dq_from_features", recorded)
    monkeypatch.setattr(alignment._PairGrams, "empty", staticmethod(recorded_empty))
    monkeypatch.setattr(alignment, "_dp_lattice", recorded_lattice)
    trajs = _collection(rng, 5, T=15)
    feats = [_trajectory_features(t, grid, False, None) for t in trajs]
    for maxiter in (400, 6):
        monkeypatch.setattr(alignment, "_REFINE_MAXITER", maxiter)
        calls.clear(), slots.clear(), batches.clear()
        D = distance_matrix(trajs, metric="dq", grid=grid)
        assert calls == [10] and slots == [3]
        assert batches[0] == 3 and sum(batches) == 10 and len(batches) > 2

        vals, dc_vals = np.zeros((5, 5)), np.zeros((5, 5))
        gaps, nonconverged, rounds, evaluations = [], 0, [], 0
        for i in range(5):
            for j in range(i + 1, 5):
                [(d12, d21, _, _, dc)], (nc, r, ev) = search([(feats[i], feats[j])])
                vals[i, j] = vals[j, i] = max(d12, d21)
                dc_vals[i, j] = dc_vals[j, i] = dc
                gaps.append(abs(d12 - d21))
                nonconverged += nc
                rounds.append(r)
                evaluations += ev
        assert np.array_equal(D.values, vals)
        assert np.array_equal(D.unaligned.values, dc_vals)
        assert D.asymmetry == max(gaps)
        assert np.array_equal(D.pair_asymmetry, gaps)
        assert D.refine_nonconverged == nonconverged
        assert D.refine_evaluations == evaluations
        # pooled lanes share their rounds
        assert max(rounds) <= D.refine_rounds < sum(rounds)
        assert (nonconverged > 0) == (maxiter == 6)


def test_distance_matrix_permutation_equivariance(rng):
    trajs = _collection(rng, 5, T=15)
    ids = [f"t{i}" for i in range(5)]
    D = distance_matrix(trajs, ids, metric="dc")
    perm = [3, 1, 4, 0, 2]
    Dp = distance_matrix([trajs[p] for p in perm], [ids[p] for p in perm], metric="dc")
    P = np.eye(5)[perm]
    np.testing.assert_allclose(Dp.values, P @ D.values @ P.T, atol=1e-12)


def test_distance_matrix_logeuclidean(rng):
    trajs = _collection(rng, 3, T=10)
    D = distance_matrix(trajs, metric="logeuclidean")
    assert np.all(D.values >= 0)
    np.testing.assert_array_equal(D.values, D.values.T)
    assert np.abs(np.diag(D.values)).max() < 1e-12


def test_distance_matrix_rejects_mixed_dims(rng):
    t1 = _collection(rng, 1, n=3)[0]
    t2 = _collection(rng, 1, n=4)[0]
    with pytest.raises(DimensionMismatchError):
        distance_matrix([t1, t2], metric="dc")


def test_distance_matrix_rejects_unknown_metric(rng):
    trajs = _collection(rng, 2)
    with pytest.raises(ValueError, match="metric"):
        distance_matrix(trajs, metric="euclid")


# ---------------------------------------------------------------------------
# point items: the start-point distance from per-item inverses


def _points(mats):
    return [CovarianceTrajectory(matrices=np.asarray(M)[None]) for M in mats]


def test_point_dc_matrix_matches_svd_oracle_at_n100():
    # ||log sigma(U1^-1 U2)||_F of the unit-determinant parts, by SVD
    mats = [M for s in gen_exp1(Exp1Config(k=2, T=4, n=100, seed=0)) for M in s]
    D = distance_matrix(_points(mats + [mats[2]]), metric="dc").values
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()
    assert D[2, 8] == 0.0  # identical items
    units = [normalize_det(M)[0] for M in mats]
    for i in range(8):
        for j in range(i + 1, 8):
            sv = np.linalg.svd(np.linalg.solve(units[i], units[j]), compute_uv=False)
            ref = np.linalg.norm(np.log(sv))
            assert abs(D[i, j] - ref) <= 1e-12 * ref


def test_point_dc_matrix_rejects_a_pair_matrix_below_eps_pd():
    # every item passes the check; the pair matrix of the first two,
    # diag(1e-16, 1, 1e16), does not
    mats = [np.diag([1e4, 1.0, 1e-4]), np.diag([1e-4, 1.0, 1e4]), np.eye(3)]
    for items in (mats, mats[::-1]):
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue"):
            distance_matrix(_points(items), metric="dc")


# ---------------------------------------------------------------------------
# knn


def _toy_matrix(values, labels):
    N = len(labels)
    return LabeledCollection(
        labels=np.asarray(labels),
        distances=DistanceMatrix(
            ids=[str(i) for i in range(N)], values=np.asarray(values, float), metric="dc"
        ),
    )


def test_knn_duplicate_point_identifies_itself():
    vals = np.array(
        [
            [0.0, 0.0, 5.0],
            [0.0, 0.0, 5.0],
            [5.0, 5.0, 0.0],
        ]
    )
    coll = _toy_matrix(vals, [0, 0, 1])
    assert knn_classify(coll, [1], k=1)[0] == 0


def test_knn_k_equals_n_majority():
    vals = 1.0 - np.eye(5)
    coll = _toy_matrix(vals, [1, 1, 1, 0, 0])
    # k = full training size: majority class wins regardless of the item
    assert knn_classify(coll, [4], k=4)[0] == 1


def test_knn_monotone_rescaling_invariance(rng):
    coll = gen_two_class(5, 3, 8, separation=1.5, seed=2)
    D = distance_matrix(coll.trajectories, metric="dc", grid=30)
    base = LabeledCollection(labels=coll.labels, distances=D)
    squashed = LabeledCollection(
        labels=coll.labels,
        distances=DistanceMatrix(ids=D.ids, values=np.sqrt(D.values), metric="dc"),
    )
    test_ids = [0, 3, 7, 9]
    np.testing.assert_array_equal(
        knn_classify(base, test_ids, k=3), knn_classify(squashed, test_ids, k=3)
    )


def test_knn_rejects_bad_k():
    coll = _toy_matrix(np.zeros((3, 3)), [0, 1, 0])
    with pytest.raises(ValueError):
        knn_classify(coll, [0], k=3)  # only 2 training items remain


def test_knn_tie_breaks_toward_smaller_mean_distance():
    # two votes each; class 1 has the smaller mean distance
    vals = np.array(
        [
            [0.0, 1.0, 2.0, 0.5, 1.5],
            [1.0, 0.0, 9.0, 9.0, 9.0],
            [2.0, 9.0, 0.0, 9.0, 9.0],
            [0.5, 9.0, 9.0, 0.0, 9.0],
            [1.5, 9.0, 9.0, 9.0, 0.0],
        ]
    )
    coll = _toy_matrix(vals, [9, 0, 0, 1, 1])
    assert knn_classify(coll, [0], k=4)[0] == 1


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_separable_data():
    coll = gen_two_class(10, 3, 8, separation=3.0, seed=11)
    D = distance_matrix(coll.trajectories, metric="dc", grid=30)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    rep = cross_validate(lab, folds=5, k=1, seed=0)
    assert rep.overall == 1.0
    assert all(v == 1.0 for v in rep.per_class.values())


def test_cross_validate_deterministic():
    coll = gen_two_class(6, 3, 8, separation=1.0, seed=5)
    D = distance_matrix(coll.trajectories, metric="dc", grid=25)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    r1 = cross_validate(lab, folds=3, k=1, seed=9)
    r2 = cross_validate(lab, folds=3, k=1, seed=9)
    assert r1.overall == r2.overall
    np.testing.assert_array_equal(r1.confusion, r2.confusion)


def test_cross_validate_loo_equals_direct_knn():
    coll = gen_two_class(4, 3, 6, separation=1.0, seed=3)
    D = distance_matrix(coll.trajectories, metric="dc", grid=20)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    N = lab.size
    rep = cross_validate(lab, folds=N, k=1, seed=0)
    correct = sum(
        knn_classify(lab, [i], k=1)[0] == lab.labels[i] for i in range(N)
    )
    assert rep.overall == pytest.approx(correct / N)


def test_cross_validate_permuted_labels_chance_level():
    coll = gen_two_class(10, 3, 8, separation=3.0, seed=1)
    D = distance_matrix(coll.trajectories, metric="dc", grid=30)
    accs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        perm_labels = rng.permutation(coll.labels)
        lab = LabeledCollection(labels=perm_labels, distances=D)
        accs.append(cross_validate(lab, folds=5, k=1, seed=seed).overall)
    mean = np.mean(accs)
    sigma = np.std(accs, ddof=1) / np.sqrt(len(accs))
    assert abs(mean - 0.5) <= 3 * sigma + 0.02


def test_cross_validate_rejects_small_class():
    coll = _toy_matrix(np.zeros((5, 5)), [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="fewer"):
        cross_validate(coll, folds=3, k=1, seed=0)


def test_cross_validate_confusion_totals():
    coll = gen_two_class(6, 3, 8, separation=0.5, seed=8)
    D = distance_matrix(coll.trajectories, metric="dc", grid=25)
    lab = LabeledCollection(labels=coll.labels, distances=D)
    rep = cross_validate(lab, folds=3, k=1, seed=2)
    assert rep.confusion.sum() == lab.size


# ---------------------------------------------------------------------------
# gap / contrast / histogram


def test_frobenius_gap_zero_for_equal():
    D = DistanceMatrix(ids=["a", "b"], values=np.array([[0, 1.0], [1.0, 0]]), metric="dc")
    assert frobenius_gap(D, D) == 0.0


def test_frobenius_gap_matches_double_loop(rng):
    vals1 = np.abs(rng.normal(size=(4, 4)))
    vals2 = np.abs(rng.normal(size=(4, 4)))
    ids = list("abcd")
    D1 = DistanceMatrix(ids=ids, values=vals1, metric="dc")
    D2 = DistanceMatrix(ids=ids, values=vals2, metric="dc")
    brute = np.sqrt(sum((vals1[i, j] - vals2[i, j]) ** 2 for i in range(4) for j in range(4)))
    assert frobenius_gap(D1, D2) == pytest.approx(brute, abs=1e-12)


def test_frobenius_gap_rejects_id_mismatch():
    D1 = DistanceMatrix(ids=["a", "b"], values=np.zeros((2, 2)), metric="dc")
    D2 = DistanceMatrix(ids=["b", "a"], values=np.zeros((2, 2)), metric="dc")
    with pytest.raises(ValueError, match="id"):
        frobenius_gap(D1, D2)


def test_block_contrast_flat_matrix():
    vals = np.ones((4, 4)) - np.eye(4)
    w, b, r = block_contrast(vals, np.array([0, 0, 1, 1]))
    assert r == pytest.approx(1.0)


def test_block_contrast_label_permutation_drives_ratio_to_one(rng):
    coll = gen_two_class(8, 3, 8, separation=2.5, seed=0)
    D = distance_matrix(coll.trajectories, metric="dc", grid=25)
    _, _, true_ratio = block_contrast(D, coll.labels)
    assert true_ratio < 1.0
    ratios = []
    for seed in range(20):
        rng2 = np.random.default_rng(seed)
        ratios.append(block_contrast(D, rng2.permutation(coll.labels))[2])
    assert abs(np.mean(ratios) - 1.0) < 0.05


def test_block_contrast_rejects_single_class():
    with pytest.raises(ValueError):
        block_contrast(np.zeros((3, 3)), np.array([1, 1, 1]))


def test_alignment_reduction_histogram_properties(rng):
    f = smooth_unitdet_curve(rng, 3)
    orig = sample_curve(f, 60)
    # pre-aligned pair: reduction is tiny
    pair = TrajectoryPair(orig, orig)
    from spdtraj.alignment import align_dq

    dc = dist_dc(pair)
    # self pair has dc == 0; use slightly perturbed copy instead
    g = random_warp(60, 0.5, seed=2)
    warped = apply_warp(orig, g)
    dcs, dqs = [], []
    pair = TrajectoryPair(warped, orig)
    dcs.append(dist_dc(TrajectoryPair(warped, orig)))
    dqs.append(align_dq(pair, grid=80)[0])
    vals, skipped = alignment_reduction_histogram(np.array(dcs), np.array(dqs))
    assert skipped == 0
    assert np.all(vals >= -1e-8)
    assert vals[0] >= 0.5  # severe self-warp: alignment removes most distance


def test_alignment_reduction_histogram_skips_zero_pairs():
    vals, skipped = alignment_reduction_histogram(
        np.array([0.0, 2.0]), np.array([0.0, 1.0])
    )
    assert skipped == 1
    np.testing.assert_allclose(vals, [0.5])


def test_offdiag_pairs_roundtrip():
    vals = np.array([[0, 1.0, 2.0], [1.0, 0, 3.0], [2.0, 3.0, 0]])
    D = DistanceMatrix(ids=["a", "b", "c"], values=vals, metric="dc")
    v, pairs = offdiag_pairs(D)
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])
    assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]
