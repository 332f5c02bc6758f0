import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import (
    ortho_defect,
    random_sym,
    random_tracefree,
    random_unitdet,
    raw_rotation,
    spread_unitdet_pair,
)
from spdtraj.geometry import (
    EPS_PD,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    _eigh_pd,
    _geodesic_block,
    dist_full,
    dist_unitdet,
    exp_map,
    geodesic,
    log_det,
    log_euclidean_dist,
    log_map,
    log_map_and_rotation,
    normalize_det,
    pair_matrix,
    parallel_transport,
    sym_exp,
    sym_log,
    sym_sqrt,
    symmetrize,
    transport_rotation,
)


# ---------------------------------------------------------------------------
# matrix functions


def test_sym_sqrt_identity():
    np.testing.assert_array_equal(sym_sqrt(np.eye(3)), np.eye(3))


def test_sym_sqrt_diagonal():
    np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_sym_sqrt_multiply_back(rng):
    P = random_unitdet(rng, 5, spread=0.9)
    R = sym_sqrt(P)
    np.testing.assert_allclose(R @ R, P, atol=1e-10)
    assert np.array_equal(R, R.T)


def test_sym_sqrt_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        sym_sqrt(np.diag([1.0, -2.0]))


def test_sym_log_identity():
    np.testing.assert_allclose(sym_log(np.eye(4)), np.zeros((4, 4)), atol=1e-15)


def test_sym_exp_diagonal():
    np.testing.assert_allclose(
        sym_exp(np.diag([1.0, -1.0])), np.diag([np.e, 1.0 / np.e]), rtol=1e-14
    )


def test_log_exp_round_trip(rng):
    P = random_unitdet(rng, 4, spread=0.8)
    np.testing.assert_allclose(sym_exp(sym_log(P)), P, atol=1e-10)
    A = random_sym(rng, 4, scale=0.7)
    np.testing.assert_allclose(sym_log(sym_exp(A)), A, atol=1e-10)


def test_sym_log_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError):
        sym_log(np.diag([0.0, 1.0]))


# ---------------------------------------------------------------------------
# determinant split


def test_normalize_det_scaled_identity():
    unit, channel = normalize_det(4.0 * np.eye(2))
    np.testing.assert_allclose(unit, np.eye(2), atol=1e-14)
    assert channel == pytest.approx(np.log(4.0), abs=1e-14)


def test_normalize_det_unit_input(rng):
    P = random_unitdet(rng, 4)
    unit, channel = normalize_det(P)
    np.testing.assert_allclose(unit, P, atol=1e-12)
    assert abs(channel) < 1e-12


def test_normalize_det_recombination(rng):
    P = sym_exp(random_sym(rng, 5, 0.6) + 0.8 * np.eye(5))
    unit, channel = normalize_det(P)
    np.testing.assert_allclose(np.exp(channel) * unit, P, rtol=1e-10)
    assert abs(log_det(unit)) < 1e-8


def test_normalize_det_rejects_a_unit_part_below_eps_pd():
    # P passes the positive-definiteness check, its unit part does not
    P = np.diag([1.5e-12, 1e8, 1e8])
    with pytest.raises(NotPositiveDefiniteError, match="unit-determinant part"):
        normalize_det(P)


def test_normalize_det_large_scale_no_overflow():
    # det overflows in direct product form for 400 x 400 at scale 3
    n = 400
    P = 3.0 * np.eye(n)
    unit, channel = normalize_det(P)
    np.testing.assert_allclose(unit, np.eye(n), atol=1e-12)
    assert channel == pytest.approx(np.log(3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# distances


def test_dist_unitdet_identity_pair():
    assert dist_unitdet(np.eye(3), np.eye(3)) == 0.0


def test_dist_unitdet_known_value():
    P2 = np.diag([np.e, 1.0 / np.e])
    assert dist_unitdet(np.eye(2), P2) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_dist_unitdet_path_length_oracle(rng):
    # chord sums over the discretized geodesic must reproduce the distance:
    # any curve's chord sum is >= d, with equality only along the geodesic
    P1 = random_unitdet(rng, 4)
    P2 = random_unitdet(rng, 4)
    steps = 1000
    pts = [geodesic(P1, P2, t) for t in np.linspace(0, 1, steps + 1)]
    chord = sum(dist_unitdet(pts[i], pts[i + 1]) for i in range(steps))
    assert chord == pytest.approx(dist_unitdet(P1, P2), abs=1e-3)


def test_dist_unitdet_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dist_unitdet(np.eye(3), np.eye(4))


def test_dist_unitdet_given_inverses_give_the_same_bits(rng):
    # the caller's inverses are what the kernel would compute, in either order
    P1, P2 = random_unitdet(rng, 5), random_unitdet(rng, 5)
    inverses = (np.linalg.inv(P1), np.linalg.inv(P2))
    d = dist_unitdet(P1, P2)
    assert dist_unitdet(P2, P1) == d
    assert dist_unitdet(P1, P2, inverses) == d
    assert dist_unitdet(P2, P1, inverses[::-1]) == d


@pytest.mark.parametrize("n", [5, 100])
def test_dist_unitdet_gram_needs_no_symmetrizing(rng, n):
    # a 2-D product with its own transpose comes out exactly symmetric, so
    # the kernel's unsymmetrized Gram matrix gives the symmetrized one's bits
    for _ in range(5):
        P1, P2 = (random_unitdet(rng, n, 2.0 / np.sqrt(n)) for _ in range(2))
        if P2.tobytes() < P1.tobytes():
            P1, P2 = P2, P1
        Y = np.linalg.inv(P1) @ P2
        M = Y @ Y.T
        assert np.array_equal(M, M.T)
        w = np.linalg.eigvalsh(symmetrize(M))
        assert dist_unitdet(P1, P2) == float(0.5 * np.sqrt(np.sum(np.log(w) ** 2)))


def test_dist_unitdet_error_is_bounded_by_the_pair_condition():
    # the kernel forms M = Y Y^T from Y = P1^-1 P2, so it resolves the
    # singular values of Y only to about eps * kappa(M) relative; an SVD of
    # Y resolves them to about eps * kappa(Y), far below, so it is the
    # reference.  This pair has kappa(M) of about 1e6.
    P1, P2 = spread_unitdet_pair(3, 50.0, 0, (0.0, np.inf))
    w = np.linalg.eigvalsh(pair_matrix(P1, P2))
    kappa = w[-1] / w[0]
    assert 1e5 < kappa < 1e7
    ref = np.linalg.norm(np.log(np.linalg.svd(np.linalg.solve(P1, P2), compute_uv=False)))
    d = dist_unitdet(P1, P2, (np.linalg.inv(P1), np.linalg.inv(P2)))
    assert abs(d - ref) <= np.finfo(float).eps * kappa
    assert d == dist_unitdet(P2, P1)


def test_dist_unitdet_rejects_a_pair_matrix_below_eps_pd():
    # both matrices pass the check; their pair matrix diag(1e-16, 1, 1e16) does not
    P1, P2 = np.diag([1e4, 1.0, 1e-4]), np.diag([1e-4, 1.0, 1e4])
    for a, b in ((P1, P2), (P2, P1)):
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue 1.0"):
            dist_unitdet(a, b, (np.linalg.inv(a), np.linalg.inv(b)))


def test_dist_full_scaled_identity():
    n = 4
    c = 2.5
    d = dist_full(np.eye(n), c * np.eye(n))
    assert d == pytest.approx(np.sqrt(n) * abs(np.log(c)), rel=1e-12)


def test_dist_full_self_zero(rng):
    P = random_unitdet(rng, 3)
    assert dist_full(P, P) == 0.0


def test_dist_full_decomposition_oracle(rng):
    n = 5
    Pt1 = sym_exp(random_sym(rng, n, 0.5) + 0.4 * np.eye(n))
    Pt2 = sym_exp(random_sym(rng, n, 0.5) - 0.3 * np.eye(n))
    U1, _ = normalize_det(Pt1)
    U2, _ = normalize_det(Pt2)
    du2 = dist_unitdet(U1, U2) ** 2
    dld = log_det(Pt2) - log_det(Pt1)
    assert dist_full(Pt1, Pt2) ** 2 - du2 == pytest.approx(dld**2 / n, abs=1e-10)


def test_dist_full_rejects_negative_weight(rng):
    P = random_unitdet(rng, 3)
    with pytest.raises(ValueError, match="w_det"):
        dist_full(P, P, w_det=-0.1)


def test_log_euclidean_known_values():
    assert log_euclidean_dist(np.eye(3), np.eye(3)) == 0.0
    d = log_euclidean_dist(np.diag([np.e, 1.0]), np.diag([1.0, np.e]))
    assert d == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_log_euclidean_agrees_on_commuting_unit_det(rng):
    # for commuting unit-determinant matrices both metrics equal the
    # Euclidean distance between the (trace-free) logs
    a = rng.normal(size=3)
    a -= a.mean()
    b = rng.normal(size=3)
    b -= b.mean()
    P1, P2 = np.diag(np.exp(a)), np.diag(np.exp(b))
    assert log_euclidean_dist(P1, P2) == pytest.approx(dist_unitdet(P1, P2), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1))
def test_metric_axioms_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    P1, P2, P3 = (random_unitdet(rng, n) for _ in range(3))
    for d in (dist_unitdet, dist_full, log_euclidean_dist):
        assert d(P1, P1) <= 1e-12
        assert d(P1, P2) == d(P2, P1)
        assert d(P1, P3) <= d(P1, P2) + d(P2, P3) + 1e-8


# ---------------------------------------------------------------------------
# tangent vectors, exp/log, geodesics


def test_metric_compatibility(rng):
    # the log map's norm reproduces the distance
    P1, P2 = random_unitdet(rng, 5), random_unitdet(rng, 5)
    V = log_map(P1, P2)
    assert np.sqrt(np.sum(V * V)) == pytest.approx(dist_unitdet(P1, P2), abs=1e-8)


def test_exp_map_zero_vector():
    np.testing.assert_array_equal(exp_map(np.eye(3), np.zeros((3, 3))), np.eye(3))


def test_log_map_self_is_zero(rng):
    P = random_unitdet(rng, 4)
    assert np.linalg.norm(log_map(P, P)) < 1e-10


def test_exp_log_round_trip(rng):
    for _ in range(5):
        P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
        np.testing.assert_allclose(exp_map(P1, log_map(P1, P2)), P2, atol=1e-8)


def test_exp_map_radial_isometry(rng):
    P = random_unitdet(rng, 4)
    V = random_tracefree(rng, 4, scale=0.5)
    nv = np.linalg.norm(V)
    for t in (0.25, 0.5, 1.0):
        Q = exp_map(P, t * V)
        assert dist_unitdet(P, Q) == pytest.approx(t * nv, abs=1e-8)


def test_exp_map_rejects_traceful_coords(rng):
    P = random_unitdet(rng, 3)
    with pytest.raises(ValueError, match="trace-free"):
        exp_map(P, np.eye(3))


def test_geodesic_endpoints(rng):
    P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
    np.testing.assert_array_equal(geodesic(P1, P2, 0.0), P1)
    np.testing.assert_array_equal(geodesic(P1, P2, 1.0), P2)


def test_geodesic_midpoint_equidistance(rng):
    for _ in range(5):
        P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
        mid = geodesic(P1, P2, 0.5)
        d = dist_unitdet(P1, P2)
        assert dist_unitdet(P1, mid) == pytest.approx(0.5 * d, abs=1e-8)
        assert dist_unitdet(mid, P2) == pytest.approx(0.5 * d, abs=1e-8)


def test_geodesic_parameter_proportionality(rng):
    P1, P2 = random_unitdet(rng, 3), random_unitdet(rng, 3)
    d = dist_unitdet(P1, P2)
    for t in (0.2, 0.7):
        assert dist_unitdet(P1, geodesic(P1, P2, t)) == pytest.approx(t * d, abs=1e-8)


def test_geodesic_rejects_outside_parameter(rng):
    P1, P2 = random_unitdet(rng, 3), random_unitdet(rng, 3)
    with pytest.raises(ValueError):
        geodesic(P1, P2, 1.5)


def test_geodesic_stays_unit_det(rng):
    P1, P2 = random_unitdet(rng, 5), random_unitdet(rng, 5)
    for t in np.linspace(0, 1, 9):
        assert abs(log_det(geodesic(P1, P2, t))) < 1e-8


def test_geodesic_point_is_rejected_by_its_own_eigenvalues():
    # the midpoint's eigenvalues are 1e-10 and 1e10: its square's 1e-20
    # must not reject it; a midpoint at 1e-13 is rejected, by that value
    pair, t = np.zeros(1, dtype=int), np.array([0.5])

    def midpoint(a, b):
        P1, P2 = np.diag(a)[None], np.diag(b)[None]
        return _geodesic_block(P1, *_eigh_pd(pair_matrix(P1, P2)), pair, t)[0]

    ok = midpoint([1e-7, 1e7], [1e-13, 1e13])
    np.testing.assert_allclose(np.diag(ok[0]), [1e-10, 1e10], rtol=1e-12)
    with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue 1.0+e-13"):
        midpoint([1e-11, 1e11], [1e-15, 1e15])


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_same_point_is_identity(rng):
    P = random_unitdet(rng, 4)
    V = random_tracefree(rng, 4)
    W = parallel_transport(V, P, P)
    np.testing.assert_allclose(W, V, atol=1e-10)


def test_transport_preserves_norm_and_inner(rng):
    for _ in range(5):
        P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
        V, W = random_tracefree(rng, 4), random_tracefree(rng, 4)
        Vt = parallel_transport(V, P1, P2)
        Wt = parallel_transport(W, P1, P2)
        assert np.linalg.norm(Vt) == pytest.approx(np.linalg.norm(V), abs=1e-8)
        assert np.sum(Vt * Wt) == pytest.approx(np.sum(V * W), abs=1e-8)


def test_transport_keeps_tracefree(rng):
    P1, P2 = random_unitdet(rng, 5), random_unitdet(rng, 5)
    V = random_tracefree(rng, 5)
    assert abs(np.trace(parallel_transport(V, P1, P2))) < 1e-8


def test_geodesic_velocity_transports_onto_itself(rng):
    P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
    V12 = log_map(P1, P2)
    V21 = log_map(P2, P1)
    moved = parallel_transport(V12, P1, P2)
    np.testing.assert_allclose(moved, -V21, atol=1e-8)


def _schild_ladder(V: np.ndarray, P1, P2, rungs, eps):
    """Numerical transport oracle built only from exp/log/geodesic."""
    X = P1
    coords = eps * V
    for k in range(rungs):
        X_next = geodesic(P1, P2, (k + 1) / rungs)
        Y = exp_map(X, coords)
        mid = geodesic(Y, X_next, 0.5)
        Z = exp_map(X, 2.0 * log_map(X, mid))
        coords = log_map(X_next, Z)
        X = X_next
    return coords / eps


def test_transport_matches_schilds_ladder(rng):
    P1 = random_unitdet(rng, 4, spread=0.4)
    P2 = random_unitdet(rng, 4, spread=0.4)
    V = random_tracefree(rng, 4, scale=0.5)
    ladder = _schild_ladder(V, P1, P2, rungs=1000, eps=1e-4)
    closed = parallel_transport(V, P1, P2)
    assert np.linalg.norm(ladder - closed) < 1e-3


def test_transport_dimension_mismatch(rng):
    P1 = random_unitdet(rng, 3)
    V = random_tracefree(rng, 3)
    with pytest.raises(DimensionMismatchError):
        parallel_transport(V, P1, np.eye(4))


# ---------------------------------------------------------------------------
# the log map and transport rotation from one SVD


def _svd_polar(X):
    u, _, vt = np.linalg.svd(X)
    return u @ vt


def test_polar_step_on_the_exp2_transport_stack():
    # the consecutive samples of exp2's n=100 trajectory on a 100-point grid:
    # the rotation is the polar factor of its definition P2^-1 P1 M^(1/2).
    # W U^T multiplies two LAPACK orthogonal factors at n=100, so it is
    # orthogonal to a few eps: 3.3e-15 here, where numpy's own polar factor
    # u @ vt reads 2.2e-15
    from spdtraj.alignment import resample_trajectory
    from spdtraj.estimation import normalize_trajectory
    from spdtraj.simgen import Exp2Config, gen_exp2

    smooth, _, _ = gen_exp2(Exp2Config(n=100, seed=0))
    unit, _ = normalize_trajectory(resample_trajectory(smooth, 100))
    P1, P2 = unit.matrices[:-1], unit.matrices[1:]
    raw = raw_rotation(P1, P2)
    assert ortho_defect(raw) < 1e-13
    O = log_map_and_rotation(P1, P2)[1]
    assert ortho_defect(O) <= 5e-15
    assert np.abs(O - _svd_polar(raw)).max() <= 2e-15


def _oracle_log_map_and_rotation(P1, P2):
    """Log map, rotation and singular values of ``P1^-1 P2`` from a 40-digit SVD."""
    import mpmath as mp

    with mp.workdps(40):
        U, S, Wt = mp.svd_r(mp.inverse(mp.matrix(P1.tolist())) * mp.matrix(P2.tolist()))
        L = U * mp.diag([mp.log(s) for s in S]) * U.T
        O = (U * Wt).T
        return (
            np.array(L.tolist(), dtype=float),
            np.array(O.tolist(), dtype=float),
            np.array([float(s) for s in S]),
        )


@pytest.mark.parametrize("n, cond", [(3, 1e7), (30, 1e5)])
def test_ill_conditioned_pair_matches_the_oracle(n, cond):
    # forming M = Y Y^T squares these pairs' condition numbers: at n=3 the
    # Gram product reads M's smallest eigenvalue as 1.6e-3, the oracle as
    # 2.07e-14, below EPS_PD, so the pair is rejected with the oracle's value.
    # The n=30 pair is positive definite.
    P1, P2 = spread_unitdet_pair(n, cond, 0, (0.5, np.inf))
    L, O, S = _oracle_log_map_and_rotation(P1, P2)
    smallest = S.min() ** 2
    assert (smallest < EPS_PD) == (n == 3)
    if smallest < EPS_PD:
        for call in (lambda: log_map_and_rotation(P1[None], P2[None]),
                     lambda: transport_rotation(P1, P2), lambda: log_map(P1, P2)):
            with pytest.raises(NotPositiveDefiniteError, match="pair matrix") as info:
                call()
            read = float(str(info.value).split("smallest eigenvalue ")[1].split()[0])
            assert abs(read - smallest) <= 0.01 * smallest
        return
    V, R = log_map_and_rotation(P1[None], P2[None])
    assert np.abs(R[0] - O).max() <= 1e-8
    assert np.abs(V[0] - L).max() <= 1e-8 * np.abs(L).max()
    assert np.array_equal(transport_rotation(P1, P2), R[0])
    assert np.array_equal(log_map(P1, P2), V[0])


# ---------------------------------------------------------------------------
# misc validation


def test_tangent_requires_symmetric_coords(rng):
    P1, P2 = random_unitdet(rng, 3), random_unitdet(rng, 3)
    V = random_tracefree(rng, 3)
    V[0, 1] += 1e-3  # still trace-free, no longer symmetric
    with pytest.raises(ValueError, match="symmetric"):
        exp_map(P1, V)
    with pytest.raises(ValueError, match="symmetric"):
        parallel_transport(V, P1, P2)


def test_symmetrize_exact():
    M = np.random.default_rng(0).normal(size=(6, 6))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)
