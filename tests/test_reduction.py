import tracemalloc

import numpy as np
import pytest

from conftest import (
    lemma1_residual,
    pseudoinverse,
    random_spd,
    random_tracefree,
    random_unitdet,
    reconstruct,
)
from spdtraj.estimation import CovarianceTrajectory
from spdtraj.geometry import (
    DimensionMismatchError,
    dist_unitdet,
    normalize_det,
    pair_matrix,
    sym_exp,
    sym_log,
    symmetrize,
)
from spdtraj.reduction import (
    PairSet,
    StiefelBasis,
    _objective_core,
    build_pairs,
    fit,
    project,
    reduce_trajectory,
    tangent_project,
)


def random_basis(rng, n, d):
    return StiefelBasis(matrix=np.linalg.qr(rng.normal(size=(n, d)))[0])


def block_training_set(rng, n, d, count, spread=0.6):
    """Matrices differing from identity only in the leading d x d block."""
    out = []
    for _ in range(count):
        C = sym_exp(random_tracefree(rng, d, spread))
        P = np.eye(n)
        P[:d, :d] = C
        out.append(P)
    return out


def oracle_pair_matrices(mats, pairs):
    """Each sampled pair matrix P_ij, formed on its own from the training matrices."""
    return [pair_matrix(mats[i], mats[j]) for i, j in pairs.indices]


def principal_angles(B1, B2):
    s = np.linalg.svd(B1.T @ B2, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


# ---------------------------------------------------------------------------
# pair matrices


def test_pair_matrix_same_input_is_identity(rng):
    P = random_unitdet(rng, 4)
    np.testing.assert_allclose(pair_matrix(P, P), np.eye(4), atol=1e-12)


def test_pair_matrix_identity_base(rng):
    P = random_unitdet(rng, 4)
    np.testing.assert_allclose(pair_matrix(np.eye(4), P), P @ P, atol=1e-12)


def test_pair_matrix_distance_consistency(rng):
    for _ in range(5):
        P1, P2 = random_unitdet(rng, 5), random_unitdet(rng, 5)
        Pij = pair_matrix(P1, P2)
        d = 0.5 * np.linalg.norm(sym_log(Pij))
        assert d == pytest.approx(dist_unitdet(P1, P2), abs=1e-8)


def test_build_pairs_all_when_small(rng):
    mats = [random_unitdet(rng, 3) for _ in range(5)]
    pairs = build_pairs(mats, cap=2048, seed=0)
    assert pairs.count == 5 * 4
    # P_ii is excluded; the factors rebuild every P_ij, and each is SPD
    assert np.all(pairs.indices[:, 0] != pairs.indices[:, 1])
    for (i, j), M in zip(pairs.indices, oracle_pair_matrices(mats, pairs)):
        inv = pairs.inverses[i]
        np.testing.assert_allclose(inv @ pairs.squares[j] @ inv, M, atol=1e-10)
        assert np.linalg.eigvalsh(M)[0] > 0


def test_build_pairs_subsamples_deterministically(rng):
    mats = [random_unitdet(rng, 3) for _ in range(12)]
    p1 = build_pairs(mats, cap=50, seed=3)
    p2 = build_pairs(mats, cap=50, seed=3)
    assert p1.count == 50
    np.testing.assert_array_equal(p1.indices, p2.indices)
    # the draw picks sorted positions in the row-major list of all i != j
    full = np.array([(i, j) for i in range(12) for j in range(12) if i != j])
    sel = np.sort(np.random.default_rng(3).choice(len(full), size=50, replace=False))
    np.testing.assert_array_equal(p1.indices, full[sel])


# ---------------------------------------------------------------------------
# objective and gradient


def _brute_force_objective(B, pair_mats):
    total = 0.0
    for M in pair_mats:
        Q = B.T @ M @ B
        # elementwise trace of Q @ Q
        acc = 0.0
        for a in range(Q.shape[0]):
            for b in range(Q.shape[0]):
                acc += Q[a, b] * Q[b, a]
        total += acc
    return total


def test_objective_matches_brute_force(rng):
    mats = [random_unitdet(rng, 5) for _ in range(4)]
    pairs = build_pairs(mats)
    B = random_basis(rng, 5, 2)
    assert _objective_core(B.matrix, pairs)[1] == pytest.approx(
        _brute_force_objective(B.matrix, oracle_pair_matrices(mats, pairs)), rel=1e-10
    )


def test_objective_full_rank_invariance(rng):
    # square orthogonal B: objective equals sum tr(P_ij^2) for any rotation
    mats = [random_unitdet(rng, 4) for _ in range(3)]
    pairs = build_pairs(mats)
    P = np.array(oracle_pair_matrices(mats, pairs))
    expected = sum(np.sum(M * M) for M in P)
    for _ in range(3):
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        got = float(
            np.einsum(
                "kde,ked->",
                np.einsum("nd,kne->kde", Q, np.einsum("knm,md->knd", P, Q)),
                np.einsum("nd,kne->kde", Q, np.einsum("knm,md->knd", P, Q)),
            )
        )
        assert got == pytest.approx(expected, rel=1e-10)
        # evaluate through the library path as well (no orthonormality check
        # failure: Q is square orthogonal)
        assert _objective_core(Q, pairs)[1] == pytest.approx(expected, rel=1e-10)


def test_objective_identity_pair_contribution():
    n, d = 5, 3
    pairs = PairSet(
        indices=np.array([[0, 0]]), inverses=np.eye(n)[None], squares=np.eye(n)[None]
    )
    B = StiefelBasis(matrix=np.eye(n)[:, :d])
    assert _objective_core(B.matrix, pairs)[1] == pytest.approx(d, rel=1e-12)


def test_gradient_identity_pairs(rng):
    n, d, K = 5, 2, 4
    eyes = np.repeat(np.eye(n)[None], 3, 0)
    pairs = PairSet(
        indices=np.array([[0, 1], [1, 0], [0, 2], [2, 0]]), inverses=eyes, squares=eyes
    )
    assert pairs.count == K
    B = random_basis(rng, n, d)
    np.testing.assert_allclose(
        _objective_core(B.matrix, pairs)[0], 4.0 * K * B.matrix, atol=1e-12
    )


def test_gradient_matches_finite_differences(rng):
    mats = [random_unitdet(rng, 4) for _ in range(3)]
    pairs = build_pairs(mats)
    pair_mats = oracle_pair_matrices(mats, pairs)
    B = random_basis(rng, 4, 2).matrix
    G = _objective_core(B, pairs)[0]

    h = 1e-6
    fd = np.zeros_like(B)
    for a in range(B.shape[0]):
        for b in range(B.shape[1]):
            Bp = B.copy()
            Bp[a, b] += h
            Bm = B.copy()
            Bm[a, b] -= h
            fp = sum(np.sum((Bp.T @ M @ Bp) * (Bp.T @ M @ Bp).T) for M in pair_mats)
            fm = sum(np.sum((Bm.T @ M @ Bm) * (Bm.T @ M @ Bm).T) for M in pair_mats)
            fd[a, b] = (fp - fm) / (2 * h)
    assert np.abs(G - fd).max() / np.abs(fd).max() < 1e-5


def test_gradient_stationary_at_block_optimum(rng):
    n, d = 8, 3
    mats = block_training_set(rng, n, d, 6)
    pairs = build_pairs(mats)
    # any basis spanning the active block is a stationary point, including
    # in-block rotations of the canonical one
    R = np.linalg.qr(rng.normal(size=(d, d)))[0]
    B = np.zeros((n, d))
    B[:d, :d] = R
    xi = tangent_project(B, _objective_core(B, pairs)[0])
    assert np.linalg.norm(xi) < 1e-6


def test_factor_form_matches_pair_matrices_on_capped_set(rng):
    # a capped draw leaves some j with a single pair, the smallest group
    mats = [random_unitdet(rng, 6) for _ in range(7)]
    pairs = build_pairs(mats, cap=12, seed=4)
    assert min(len(rows) for _, rows in pairs.groups) == 1
    assert sum(len(rows) for _, rows in pairs.groups) == pairs.count == 12
    B = random_basis(rng, 6, 3).matrix
    obj, grad = 0.0, np.zeros_like(B)
    for M in oracle_pair_matrices(mats, pairs):
        Q = B.T @ M @ B
        obj += np.sum(Q * Q.T)
        grad += 4.0 * M @ B @ Q
    G, got = _objective_core(B, pairs)
    assert got == pytest.approx(obj, rel=1e-12)
    assert np.abs(G - grad).max() <= 1e-12 * np.abs(grad).max()


def test_pair_set_rejects_repeated_pairs():
    eyes = np.repeat(np.eye(3)[None], 2, 0)
    with pytest.raises(ValueError, match="repeat"):
        PairSet(indices=np.array([[0, 1], [0, 1]]), inverses=eyes, squares=eyes)


def test_fit_memory_stays_below_pair_tensor(rng):
    # the K pair matrices would take K n^2 8 bytes; the fit holds per-matrix
    # factors and group-sized buffers only
    N, n = 30, 40
    mats = [random_unitdet(rng, n, spread=0.3) for _ in range(N)]
    tensor_bytes = N * (N - 1) * n * n * 8
    fit(mats[:3], 3, max_iters=1)  # modules numpy loads on first use are not the fit's
    tracemalloc.start()
    try:
        model = fit(mats, 3, max_iters=3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.meta["pair_count"] == N * (N - 1)
    assert peak < tensor_bytes / 4, f"peak {peak} B against tensor {tensor_bytes} B"


# ---------------------------------------------------------------------------
# fit


def test_fit_block_construction_recovers_subspace(rng):
    n, d = 10, 3
    mats = block_training_set(rng, n, d, 8)
    model = fit(mats, d, seed=0)
    E = np.eye(n)[:, :d]
    assert principal_angles(model.basis.matrix, E).max() <= 1e-3
    # reduced distances equal full distances
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            full = dist_unitdet(mats[i], mats[j])
            Qi, _ = project(mats[i], model.basis)
            Qj, _ = project(mats[j], model.basis)
            assert dist_unitdet(Qi, Qj) == pytest.approx(full, abs=1e-6)


def test_fit_objective_trace_nondecreasing(rng):
    mats = [random_unitdet(rng, 6, spread=0.5) for _ in range(6)]
    model = fit(mats, 2, seed=1, max_iters=60)
    trace = model.objective_trace
    assert np.all(np.diff(trace) >= -1e-9)


def test_fit_stopping_rule_is_relative_to_objective(rng):
    mats = [random_unitdet(rng, 5, spread=0.5) for _ in range(4)]
    model = fit(mats, 2, seed=0, max_iters=300)
    assert model.stopped_by == "tolerance" and model.converged
    assert model.iterations < 300
    assert model.grad_norm <= 1e-6 * model.objective_trace[-1]


def test_fit_reports_what_ended_it(rng):
    mats = [random_unitdet(rng, 5, spread=0.5) for _ in range(4)]
    capped = fit(mats, 2, seed=0, max_iters=3)
    assert capped.stopped_by == "max_iters" and not capped.converged
    assert capped.iterations == 3
    # the gradient norm belongs to the basis returned, after the third step
    pairs = build_pairs(mats)
    xi = tangent_project(capped.basis.matrix, _objective_core(capped.basis.matrix, pairs)[0])
    assert capped.grad_norm == pytest.approx(np.linalg.norm(xi), rel=1e-12)
    # with no tolerance the ascent runs until no step improves the objective
    stalled = fit(mats, 2, seed=0, max_iters=1000, tol=0.0)
    assert stalled.stopped_by == "line_search" and not stalled.converged
    assert stalled.iterations < 1000


def test_fit_evaluates_each_point_once(rng, monkeypatch):
    # an accepted trial's gradient is kept, so no basis is evaluated twice
    from spdtraj import reduction

    seen = []
    core = reduction._objective_core

    def recording_core(B, *args, **kwargs):
        seen.append(B.tobytes())
        return core(B, *args, **kwargs)

    monkeypatch.setattr(reduction, "_objective_core", recording_core)
    mats = [random_unitdet(rng, 6, spread=0.5) for _ in range(5)]
    model = fit(mats, 2, seed=1, max_iters=15)
    assert model.iterations > 1
    assert len(seen) == len(set(seen))


def test_fit_dominates_random_bases(rng):
    mats = [random_unitdet(rng, 5, spread=0.7) for _ in range(2)]
    model = fit(mats, 1, seed=0)
    pairs = build_pairs(mats)
    best = _objective_core(model.basis.matrix, pairs)[1]
    for _ in range(1000):
        B = random_basis(rng, 5, 1)
        assert best >= _objective_core(B.matrix, pairs)[1] - 1e-8


def test_fit_restart_from_optimum_is_fixed_point(rng):
    mats = [random_unitdet(rng, 5, spread=0.5) for _ in range(4)]
    model = fit(mats, 2, seed=0, max_iters=300)
    again = fit(mats, 2, seed=0, init=model.basis.matrix, max_iters=300)
    pairs = build_pairs(mats)
    first, second = (_objective_core(m.basis.matrix, pairs)[1] for m in (model, again))
    assert abs(second - first) < 1e-8


def test_fit_rejects_bad_dimension(rng):
    mats = [random_unitdet(rng, 4) for _ in range(3)]
    with pytest.raises(ValueError):
        fit(mats, 4)


def test_fit_requires_unit_det(rng):
    mats = [2.0 * np.eye(4), random_unitdet(rng, 4)]
    with pytest.raises(ValueError, match="unit-determinant"):
        fit(mats, 2)


# ---------------------------------------------------------------------------
# projection / reconstruction


def test_project_identity(rng):
    B = random_basis(rng, 6, 3)
    Q, channel = project(np.eye(6), B)
    np.testing.assert_allclose(Q, np.eye(3), atol=1e-12)
    assert abs(channel) < 1e-12


def test_project_coordinate_basis_takes_leading_block(rng):
    n, d = 5, 2
    P = random_unitdet(rng, n)
    B = StiefelBasis(matrix=np.eye(n)[:, :d])
    raw = B.matrix.T @ P @ B.matrix
    np.testing.assert_allclose(raw, P[:d, :d], atol=1e-14)


def test_project_rayleigh_bound(rng):
    # smallest eigenvalue can only go up under orthonormal compression
    for _ in range(200):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n))
        P = random_unitdet(rng, n)
        B = random_basis(rng, n, d)
        raw = symmetrize(B.matrix.T @ P @ B.matrix)
        assert np.linalg.eigvalsh(raw)[0] >= np.linalg.eigvalsh(P)[0] - 1e-12


def test_reconstruct_square_basis_true_inverse(rng):
    n = 4
    B = StiefelBasis(matrix=np.linalg.qr(rng.normal(size=(n, n)))[0])
    Q = random_unitdet(rng, n)
    P_hat = reconstruct(Q, B)
    np.testing.assert_allclose(
        pseudoinverse(Q, B), np.linalg.inv(P_hat), atol=1e-10
    )


def test_moore_penrose_conditions(rng):
    for _ in range(30):
        n = int(rng.integers(4, 8))
        d = int(rng.integers(2, n))
        B = random_basis(rng, n, d)
        Q = random_unitdet(rng, d)
        A = reconstruct(Q, B)
        Ainv = pseudoinverse(Q, B)
        np.testing.assert_allclose(A @ Ainv @ A, A, atol=1e-10)
        np.testing.assert_allclose(Ainv @ A @ Ainv, Ainv, atol=1e-10)
        np.testing.assert_allclose(A @ Ainv, (A @ Ainv).T, atol=1e-10)
        np.testing.assert_allclose(Ainv @ A, (Ainv @ A).T, atol=1e-10)


def test_reconstruct_rank(rng):
    n, d = 7, 3
    B = random_basis(rng, n, d)
    Q = random_unitdet(rng, d)
    s = np.linalg.svd(reconstruct(Q, B), compute_uv=False)
    assert np.all(s[d:] < 1e-10)
    assert np.all(s[:d] > 1e-10)


def test_pseudoinverse_rejects_singular(rng):
    B = random_basis(rng, 5, 2)
    with pytest.raises(ValueError, match="singular"):
        pseudoinverse(np.zeros((2, 2)), B)


# ---------------------------------------------------------------------------
# lemma identity


def test_lemma1_identity_at_identity_inputs(rng):
    n, d = 6, 2
    B = random_basis(rng, n, d)
    r1, r2 = lemma1_residual(np.eye(n), np.eye(n), B)
    assert r1 == pytest.approx(np.sqrt(n - d), rel=1e-10)
    assert r2 == pytest.approx(np.sqrt(n - d), rel=1e-10)


def test_lemma1_identity_random(rng):
    for _ in range(30):
        n = int(rng.integers(4, 8))
        d = int(rng.integers(2, n))
        P1, P2 = random_unitdet(rng, n), random_unitdet(rng, n)
        B = random_basis(rng, n, d)
        r1, r2 = lemma1_residual(P1, P2, B)
        assert abs(r1 - r2) < 1e-10


def test_lemma1_block_basis_residual(rng):
    # with B spanning the active block, the block part reconstructs exactly;
    # what remains is the identity outside the block, which no rank-d lift
    # can represent, so both residuals equal sqrt(n - d) exactly
    n, d = 8, 3
    mats = block_training_set(rng, n, d, 2)
    B = StiefelBasis(matrix=np.eye(n)[:, :d])
    r1, r2 = lemma1_residual(mats[0], mats[1], B)
    assert abs(r1 - r2) < 1e-10
    assert r1 == pytest.approx(np.sqrt(n - d), abs=1e-8)
    # block part alone is perfectly captured
    Pij = pair_matrix(mats[0], mats[1])
    Qij = pair_matrix(mats[0][:d, :d], mats[1][:d, :d])
    assert np.abs(Pij[:d, :d] - Qij).max() < 1e-10


def test_lemma2_consistency(rng):
    # reconstruction loss + objective == total pair energy, for Q_ij = B^T P_ij B
    mats = [random_unitdet(rng, 5) for _ in range(4)]
    pairs = build_pairs(mats)
    B = random_basis(rng, 5, 2)
    loss = 0.0
    energy = 0.0
    for M in oracle_pair_matrices(mats, pairs):
        Qij = B.matrix.T @ M @ B.matrix
        loss += np.sum((M - B.matrix @ Qij @ B.matrix.T) ** 2)
        energy += np.sum(M * M)
    assert loss + _objective_core(B.matrix, pairs)[1] == pytest.approx(energy, rel=1e-8)


# ---------------------------------------------------------------------------
# trajectories


def test_reduce_trajectory_constant(rng):
    P = random_unitdet(rng, 6)
    traj = CovarianceTrajectory(matrices=np.repeat(P[None], 5, axis=0))
    B = random_basis(rng, 6, 2)
    out = reduce_trajectory(traj, B)
    assert out.dim == 2 and out.length == 5
    for k in range(1, 5):
        np.testing.assert_allclose(out.matrices[k], out.matrices[0], atol=1e-12)


def test_reduce_trajectory_block_preserves_distances(rng):
    n, d = 8, 3
    mats = block_training_set(rng, n, d, 6)
    traj = CovarianceTrajectory(matrices=np.array(mats))
    model = fit(mats, d, seed=0)
    out = reduce_trajectory(traj, model)
    for i in range(traj.length):
        for j in range(i + 1, traj.length):
            full = dist_unitdet(traj.matrices[i], traj.matrices[j])
            red = dist_unitdet(out.matrices[i], out.matrices[j])
            assert red == pytest.approx(full, abs=1e-6)


def test_reduce_trajectory_of_scaled_points_matches_their_unit_parts(rng):
    # B^T (cP) B and B^T P B have one unit-determinant part, so the points
    # are projected as they are, not normalized in dimension n first
    mats = np.array([random_spd(rng, 8, logdet_scale=3.0) for _ in range(5)])
    B = random_basis(rng, 8, 3)
    out = reduce_trajectory(CovarianceTrajectory(matrices=mats), B)
    expected, _ = project(normalize_det(mats)[0], B)
    assert np.abs(out.matrices - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.abs(np.linalg.slogdet(out.matrices)[1]).max() <= 1e-12


def test_reduce_trajectory_dimension_mismatch(rng):
    traj = CovarianceTrajectory(matrices=np.repeat(np.eye(4)[None], 3, axis=0))
    B = random_basis(rng, 6, 2)
    with pytest.raises(DimensionMismatchError):
        reduce_trajectory(traj, B)


def test_basis_validation_rejects_nonorthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        StiefelBasis(matrix=np.ones((4, 2)))
