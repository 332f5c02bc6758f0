import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import (
    evaluate,
    geodesic,
    log_det,
    random_spd,
    random_unitdet,
    sample_curve,
    smooth_unitdet_curve,
    smooth_warp_fn,
)
from spdtraj import alignment as A
from spdtraj import geometry
from spdtraj.alignment import (
    TrajectoryPair,
    WarpingFunction,
    align_dq,
    apply_warp,
    dist_dc,
    random_warp,
    resample_trajectory,
)
from spdtraj.estimation import CovarianceTrajectory, normalize_trajectory
from spdtraj.geometry import (
    DimensionMismatchError,
    _eigh_pd,
    _geodesic_block,
    dist_unitdet,
    log_map,
    log_map_and_rotation,
    normalize_det,
    pair_matrix,
    sym_log,
    sym_sqrt,
    symmetrize,
    transport_rotation,
)
from spdtraj.simgen import gen_two_class


def _geodesic_trajectory(P1, P2, T):
    mats = np.array([geodesic(P1, P2, t) for t in np.linspace(0, 1, T)])
    return CovarianceTrajectory(matrices=mats)


def _constant_trajectory(P, T):
    return CovarianceTrajectory(matrices=np.repeat(P[None], T, axis=0))


# ---------------------------------------------------------------------------
# velocity field: the log-map half of the consecutive-pair kernel


def _velocities(traj):
    """Forward-difference velocities of the feature path, one per interval."""
    V, _ = log_map_and_rotation(traj.matrices[:-1], traj.matrices[1:])
    return V / np.diff(traj.times)[:, None, None]


def _tsrvf(traj):
    """TSRVF rows of the feature path as (T, n, n) matrices."""
    n = traj.dim
    return A._trajectory_features(traj, traj.length, False, None).q.reshape(traj.length, n, n)


def test_velocity_field_constant_trajectory(rng):
    P = random_unitdet(rng, 3)
    V = _velocities(_constant_trajectory(P, 6))
    assert np.linalg.norm(V, axis=(1, 2)).max() < 1e-10


def test_velocity_field_geodesic_constant_speed(rng):
    P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
    T = 50
    traj = _geodesic_trajectory(P1, P2, T)
    norms = np.linalg.norm(_velocities(traj), axis=(1, 2))
    speed = dist_unitdet(P1, P2)
    assert np.abs(norms - speed).max() / speed < 0.02


def test_velocity_field_refinement_halves_step_norms(rng):
    # curve without speed zero-crossings: reparametrized geodesic
    D = np.zeros((3, 3))
    D[0, 1] = D[1, 0] = 0.5
    D[0, 0], D[1, 1] = 0.3, -0.3
    from spdtraj.geometry import sym_exp

    def f(t):
        return sym_exp((t + 0.2 * np.sin(np.pi * t)) * D)

    coarse = sample_curve(f, 20)
    fine = sample_curve(f, 39)  # halved spacing, aligned at even indices
    step_coarse = np.array(
        [
            dist_unitdet(coarse.matrices[k], coarse.matrices[k + 1])
            for k in range(coarse.length - 1)
        ]
    )
    step_fine = np.array(
        [
            dist_unitdet(fine.matrices[2 * k], fine.matrices[2 * k + 1])
            for k in range(coarse.length - 1)
        ]
    )
    ratio = step_fine / step_coarse
    assert np.abs(ratio - 0.5).max() < 0.05


def test_velocity_field_rejects_short_trajectory(rng):
    with pytest.raises(ValueError, match="at least 2 samples"):
        A._trajectory_features(_constant_trajectory(random_unitdet(rng, 3), 1), 1, False, None)


def test_velocity_field_anchored_at_samples(rng):
    # velocity k is the forward geodesic difference taken at sample k
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 10)
    V = _velocities(traj)
    dt = traj.times[1] - traj.times[0]
    for k in range(traj.length - 1):
        want = log_map(traj.matrices[k], traj.matrices[k + 1]) / dt
        np.testing.assert_allclose(V[k], want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# TSRVF: the rows of the feature path


def test_tsrvf_constant_trajectory_is_zero(rng):
    P = random_unitdet(rng, 3)
    assert np.abs(_tsrvf(_constant_trajectory(P, 8))).max() < 1e-10


def test_tsrvf_constant_speed_geodesic_norm(rng):
    P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
    traj = _geodesic_trajectory(P1, P2, 50)
    speed = dist_unitdet(P1, P2)
    norms = np.linalg.norm(_tsrvf(traj), axis=(1, 2))
    assert np.abs(norms - np.sqrt(speed)).max() / np.sqrt(speed) < 0.02


def test_tsrvf_norm_law(rng):
    # ||q||^2 == ||velocity|| at every sample (transport is an isometry); the
    # last sample's velocity is the backward difference
    f = smooth_unitdet_curve(rng, 4)
    traj = sample_curve(f, 30)
    q = _tsrvf(traj)
    dt = traj.times[1] - traj.times[0]
    P = traj.matrices
    vels = [np.linalg.norm(log_map(P[k], P[k + 1])) / dt for k in range(traj.length - 1)]
    vels.append(np.linalg.norm(log_map(P[-1], P[-2])) / dt)
    for k in range(traj.length):
        qn = np.linalg.norm(q[k])
        assert qn * qn == pytest.approx(vels[k], abs=1e-8)


def test_tsrvf_anchored_at_start(rng):
    # the features start at alpha(0), and row 0 needs no transport
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 12)
    feats = A._trajectory_features(traj, traj.length, False, None)
    np.testing.assert_allclose(feats.start, traj.matrices[0], rtol=0, atol=1e-12)
    v0 = log_map(traj.matrices[0], traj.matrices[1]) / (traj.times[1] - traj.times[0])
    q0 = feats.q[0].reshape(3, 3)
    np.testing.assert_allclose(q0, v0 / np.sqrt(np.linalg.norm(v0)), rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# stacked kernels against the per-pair oracles


def _oracle_tsrvf(traj):
    """Per-pair TSRVF: log_map velocities carried back by chained transport_rotation."""
    P, dt = traj.matrices, np.diff(traj.times)
    T, n = traj.length, traj.dim
    V = [log_map(P[k], P[k + 1]) / dt[k] for k in range(T - 1)]
    V.append(-log_map(P[-1], P[-2]) / dt[-1])
    R = np.eye(n)
    q = np.empty((T, n, n))
    for k in range(T):
        if k:
            R = R @ transport_rotation(P[k], P[k - 1])
        q[k] = R @ V[k] @ R.T / np.sqrt(np.linalg.norm(V[k]))
    return q


def _oracle_evaluate(traj, s):
    """Per-point geodesic interpolation of the stored samples."""
    k = min(max(int(np.searchsorted(traj.times, s, side="right")) - 1, 0), traj.length - 2)
    t0, t1 = traj.times[k], traj.times[k + 1]
    return geodesic(traj.matrices[k], traj.matrices[k + 1], (s - t0) / (t1 - t0))


def test_stacked_features_resampling_and_warp_match_pair_oracles(rng):
    n, T = 4, 30
    traj = sample_curve(smooth_unitdet_curve(rng, n), T)
    unit, _ = normalize_trajectory(traj)
    np.testing.assert_allclose(_tsrvf(traj), _oracle_tsrvf(unit), rtol=0, atol=1e-10)

    fine = resample_trajectory(traj, 47)
    want = np.array([_oracle_evaluate(traj, s) for s in np.linspace(0, 1, 47)])
    np.testing.assert_allclose(fine.matrices, want, rtol=0, atol=1e-10)

    warp = random_warp(T, 0.3, seed=4)
    warped = apply_warp(traj, warp)
    want = np.array([_oracle_evaluate(traj, float(warp(t))) for t in traj.times])
    np.testing.assert_allclose(warped.matrices, want, rtol=0, atol=1e-10)


def test_pair_kernel_on_stacks_matches_loop_over_pairs(rng):
    # a stack runs the same arithmetic per pair, so results are equal
    n, K = 4, 7
    P1 = np.array([random_spd(rng, n) for _ in range(K)])
    P2 = np.array([random_spd(rng, n) for _ in range(K)])
    M = pair_matrix(P1, P2)
    V, O = log_map_and_rotation(P1, P2)
    pair = np.array([0, 3, 3, 6, 1])
    t = np.array([0.2, 0.5, 0.9, 0.4, 0.7])
    G = _geodesic_block(P1, *_eigh_pd(pair_matrix(P1, P2)), pair, t)[0]
    unit, channel = normalize_det(P1)
    logs = sym_log(P1)
    for k in range(K):
        np.testing.assert_array_equal(M[k], pair_matrix(P1[k], P2[k]))
        np.testing.assert_array_equal(V[k], log_map(P1[k], P2[k]))
        np.testing.assert_array_equal(O[k], transport_rotation(P1[k], P2[k]))
        u, c = normalize_det(P1[k])
        np.testing.assert_array_equal(unit[k], u)
        assert channel[k] == c
        np.testing.assert_array_equal(logs[k], sym_log(P1[k]))
    for i, (k, ti) in enumerate(zip(pair, t)):
        np.testing.assert_array_equal(G[i], geodesic(P1[k], P2[k], ti))
    # any leading shape: a (2, 3) grid of pairs decomposes like its flattening
    V6, O6 = log_map_and_rotation(P1[:6].reshape(2, 3, n, n), P2[:6].reshape(2, 3, n, n))
    np.testing.assert_array_equal(V6.reshape(6, n, n), V[:6])
    np.testing.assert_array_equal(O6.reshape(6, n, n), O[:6])


# ---------------------------------------------------------------------------
# TSRVF rows from the ends of each input interval's run of grid points

# the rows drift from those of the per-grid-pair route by roundoff: at most
# 5.9e-12 of the largest entry at n=100 and 2.4e-13 at n=3 on the trajectories
# below, and 8.0e-12 on the exp2 trajectories (n=100, seeds 0-2, grid 100)
_ROW_TOL = 1e-10


def _scaled_trajectory(n, T, seed):
    """A random trajectory whose log-det track varies, for the log-det channel."""
    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    scale = np.exp(np.sin(np.linspace(0.0, 3.0, T)))[:, None, None]
    return CovarianceTrajectory(
        matrices=_random_trajectory(derived_rng(seed, "rows", n), n, T).matrices * scale
    )


@pytest.mark.parametrize("include_logdet", [False, True])
@pytest.mark.parametrize("n", [3, 10, 100])
def test_features_match_the_per_grid_pair_route(n, include_logdet):
    from conftest import tsrvf_rows

    T = 20
    traj = _scaled_trajectory(n, T, 5)
    # finer than the input, its own grid, coarser, and one whose even
    # points lie on the input samples
    for grid in (100, T, 12, 2 * T - 1):
        got = A._trajectory_features(traj, grid, include_logdet, None).q
        want = tsrvf_rows(traj, grid, include_logdet)
        if grid <= T:  # every grid pair straddles an input sample
            assert got.tobytes() == want.tobytes(), grid
        else:
            assert np.abs(got - want).max() <= _ROW_TOL * np.abs(want).max(), grid
    # a one-sample trajectory is constant: on both routes a row's squared
    # norm, its speed, is roundoff, so the rows are compared by that instead
    point = CovarianceTrajectory(matrices=traj.matrices[:1])
    for grid in (2, 40):
        for q in (A._trajectory_features(point, grid, include_logdet, None).q,
                  tsrvf_rows(point, grid, include_logdet)):
            assert (q**2).sum(axis=1).max() <= 1e-10


def test_features_build_the_ends_of_each_interval_run_only(monkeypatch, rng):
    # a T=20 input on a grid of 100: each of its 19 intervals holds 5 or 6
    # grid points, and only the first and last of them are built.  That is
    # 38 points, of which the two ends of the grid are input samples and 36
    # lie on a geodesic, joined by 37 pair SVDs: one across each interval's
    # run and one across each of the 18 inner input samples.  The
    # per-grid-pair route builds 100 points (98 on a geodesic) and makes 99
    # SVDs
    counts = {"points": 0, "geodesic": 0, "svd": 0}
    walk, block, svd = A._walk, A._geodesic_block, A.log_map_and_rotation

    def counted_walk(traj, s):
        for b, values, smallest in walk(traj, s):
            counts["points"] += values.shape[0]
            yield b, values, smallest

    def counted_block(P1, w, U, pair, t):
        counts["geodesic"] += t.size
        return block(P1, w, U, pair, t)

    def counted_svd(P1, P2):
        counts["svd"] += P1.shape[0]
        return svd(P1, P2)

    monkeypatch.setattr(A, "_walk", counted_walk)
    monkeypatch.setattr(A, "_geodesic_block", counted_block)
    monkeypatch.setattr(A, "log_map_and_rotation", counted_svd)
    A._trajectory_features(sample_curve(smooth_unitdet_curve(rng, 3), 20), 100, False, None)
    assert counts == {"points": 38, "geodesic": 36, "svd": 37}


def test_a_geodesic_point_is_no_less_definite_than_the_ends_of_its_arc(rng):
    # the points sqrt(A M^t A) square to the affine-invariant geodesic
    # A^2 #_t B^2 between the squares of the ends, and so does each arc of
    # it.  The AM-GM inequality for the matrix geometric mean, applied to
    # the inverses, gives A^2 #_t B^2 >= ((1-t) A^-2 + t B^-2)^-1, whose
    # smallest eigenvalue is at least the smaller of those of A^2 and B^2.
    # So a point is no less definite than the two ends of any arc it lies
    # on, and the features check only the points they build.  They check
    # them with the log-det channel put back, least * exp(track), where the
    # track interpolates linearly: the mean is jointly homogeneous, (s X) #_t
    # (r Y) = s^(1-t) r^t X #_t Y, so the scaled points square to the
    # geodesic between the squares of the scaled ends, and the bound holds
    # for them too.  Roundoff moves a computed eigenvalue of a point by about
    # n eps lmax^2 / lmin, from the eigenvalues of its square
    from conftest import spread_unitdet_pair

    pairs = [(random_unitdet(rng, n), random_unitdet(rng, n)) for n in (3, 10) for _ in range(5)]
    pairs += [
        spread_unitdet_pair(n, cond, seed, (0.0, np.inf))
        for n in (3, 10)
        for cond in (1e2, 1e4)
        for seed in range(3)
    ]
    t = np.linspace(0.0, 1.0, 41)
    for P1, P2 in pairs:
        n = P1.shape[0]
        w, U = _eigh_pd(pair_matrix(P1[None], P2[None]))
        X, least = _geodesic_block(P1[None], w, U, np.zeros(t.size, dtype=np.intp), t)
        tol = n * np.finfo(float).eps * np.linalg.eigvalsh(X)[:, -1].max() ** 2 / least.min()
        for ends in ((0.0, 0.0), (-2.0, 1.5), (3.0, -1.0)):  # the log-det channel's
            scaled = least * np.exp(np.interp(t, [0.0, 1.0], ends))
            slack = tol * np.exp(max(ends))
            for a in range(t.size):
                for b in range(a + 2, t.size):
                    assert scaled[a + 1 : b].min() >= min(scaled[a], scaled[b]) - slack


# ---------------------------------------------------------------------------
# dist_dc


def test_dist_dc_identical_trajectories(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 25)
    pair = TrajectoryPair(traj, traj)
    assert dist_dc(pair) < 1e-8


def test_dist_dc_constant_vs_geodesic_closed_form(rng):
    # same start point; one trajectory still, the other a unit-time geodesic
    # at speed s: d_c = sqrt(integral ||q2||^2) = sqrt(s)
    P1 = random_unitdet(rng, 3)
    V = np.zeros((3, 3))
    V[0, 1] = V[1, 0] = 0.4
    from spdtraj.geometry import exp_map

    P2 = exp_map(P1, V)
    speed = dist_unitdet(P1, P2)
    T = 50
    pair = TrajectoryPair(_constant_trajectory(P1, T), _geodesic_trajectory(P1, P2, T))
    assert dist_dc(pair) == pytest.approx(np.sqrt(speed), rel=0.03)


def test_dist_dc_simultaneous_warp_invariance(rng):
    # d_c(a1 o g, a2 o g) == d_c(a1, a2) up to discretization
    T = 100
    for _ in range(3):
        f1 = smooth_unitdet_curve(rng, 3)
        f2 = smooth_unitdet_curve(rng, 3)
        g = smooth_warp_fn(rng, strength=0.35)
        plain = TrajectoryPair(sample_curve(f1, T), sample_curve(f2, T))
        warped = TrajectoryPair(
            sample_curve(lambda t: f1(g(t)), T), sample_curve(lambda t: f2(g(t)), T)
        )
        d0, d1 = dist_dc(plain), dist_dc(warped)
        assert abs(d1 - d0) / max(d0, 1e-6) < 0.02


def test_dist_dc_rate_error_shrinks_with_grid(rng):
    errs = []
    f1 = smooth_unitdet_curve(rng, 3)
    f2 = smooth_unitdet_curve(rng, 3)
    g = smooth_warp_fn(rng, strength=0.35)
    for T in (50, 100, 200):
        plain = TrajectoryPair(sample_curve(f1, T), sample_curve(f2, T))
        warped = TrajectoryPair(
            sample_curve(lambda t: f1(g(t)), T), sample_curve(lambda t: f2(g(t)), T)
        )
        d0, d1 = dist_dc(plain), dist_dc(warped)
        errs.append(abs(d1 - d0) / max(d0, 1e-6))
    assert errs[2] < errs[0]


def test_dist_dc_dimension_mismatch(rng):
    t1 = _constant_trajectory(random_unitdet(rng, 3), 5)
    t2 = _constant_trajectory(random_unitdet(rng, 4), 5)
    with pytest.raises(DimensionMismatchError):
        TrajectoryPair(t1, t2)


def test_dist_dc_length_one_reduces_to_point_distance(rng):
    P1, P2 = random_unitdet(rng, 4), random_unitdet(rng, 4)
    pair = TrajectoryPair(_constant_trajectory(P1, 1), _constant_trajectory(P2, 1))
    assert dist_dc(pair) == pytest.approx(dist_unitdet(P1, P2), rel=1e-12)


def test_dist_dc_logdet_track_scaled_identity_pair():
    # trajectories differing only in scale: invisible without the log-det
    # track, fully visible with it
    n, T = 3, 10
    base = np.repeat(np.eye(n)[None], T, axis=0)
    t1 = CovarianceTrajectory(matrices=base)
    t2 = CovarianceTrajectory(matrices=4.0 * base)
    pair = TrajectoryPair(t1, t2)
    assert dist_dc(pair) < 1e-10
    expected = np.sqrt(n) * np.log(4.0)  # start-point gap, w_det = 1/n
    assert dist_dc(pair, include_logdet=True) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# align_dq


def test_align_dq_identical_trajectories(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 40)
    dq, warp = align_dq(TrajectoryPair(traj, traj), grid=60)
    assert dq < 1e-8
    tg = np.linspace(0, 1, 60)
    np.testing.assert_allclose(warp(tg), tg, atol=1e-9)


def test_align_dq_self_warp_recovery(rng):
    # pair = (warped, original): the aligner recovers the generating warp
    for _ in range(3):
        f = smooth_unitdet_curve(rng, 3)
        g = smooth_warp_fn(rng, strength=0.4)
        T = 100
        orig = sample_curve(f, T)
        warped = sample_curve(lambda t: f(g(t)), T)
        pair = TrajectoryPair(warped, orig)
        dc = dist_dc(pair)
        dq, warp = align_dq(pair, grid=100)
        assert dq <= 0.05 * dc
        tg = np.linspace(0, 1, 100)
        rms = np.sqrt(np.mean((warp(tg) - g(tg)) ** 2))
        assert rms <= 0.05


def test_align_dq_never_exceeds_dc(rng):
    for _ in range(10):
        f1 = smooth_unitdet_curve(rng, 3)
        f2 = smooth_unitdet_curve(rng, 3)
        pair = TrajectoryPair(sample_curve(f1, 60), sample_curve(f2, 60))
        dc = dist_dc(TrajectoryPair(resample_trajectory(pair.first, 60),
                                    resample_trajectory(pair.second, 60)))
        dq, _ = align_dq(pair, grid=60)
        assert dq <= dc + 1e-8


def test_align_dq_symmetry_surrogate(rng):
    for _ in range(3):
        f1 = smooth_unitdet_curve(rng, 3)
        f2 = smooth_unitdet_curve(rng, 3)
        a, b = sample_curve(f1, 60), sample_curve(f2, 60)
        d_ab, _ = align_dq(TrajectoryPair(a, b), grid=100)
        d_ba, _ = align_dq(TrajectoryPair(b, a), grid=100)
        assert abs(d_ab - d_ba) / max(d_ab, d_ba, 1e-9) <= 0.05


def test_align_dq_vanishes_under_grid_refinement(rng):
    f = smooth_unitdet_curve(rng, 3)
    g = smooth_warp_fn(rng, strength=0.3)
    orig = sample_curve(f, 200)
    warped = sample_curve(lambda t: f(g(t)), 200)
    pair = TrajectoryPair(warped, orig)
    vals = [align_dq(pair, grid=T)[0] for T in (25, 50, 100)]
    assert vals[2] < vals[0]
    assert vals[2] < 0.1 * dist_dc(pair)


def test_align_dq_rejects_tiny_grid(rng):
    f = smooth_unitdet_curve(rng, 3)
    pair = TrajectoryPair(sample_curve(f, 10), sample_curve(f, 10))
    with pytest.raises(ValueError):
        align_dq(pair, grid=1)


# ---------------------------------------------------------------------------
# warp refinement


def _grams_and_seed(pair, grid=100):
    """Gram tables of a one-pair block and the smoothed lattice seed its forward refinement gets."""
    f1, f2 = (
        A._trajectory_features(t, grid, False, None)
        for t in (pair.first, pair.second)
    )
    gr = A._PairGrams.empty(1, grid)
    gr.fill(0, f1, f2)
    dt = 1.0 / (grid - 1)
    (pi, pj), _ = A._dp_lattice(gr, dt)
    seed = A._presmooth_warp(np.interp(np.linspace(0, 1, grid), pi * dt, pj * dt))
    return gr, seed


def _run_lanes(gr, tables, seeds, maxiter=400):
    """Refine ``seeds[l]`` on ``tables[l]`` as lanes of one pool: the warps in lane order, and the pool."""
    lanes = A._Lanes(gr.N1.shape[1], maxiter, len(seeds))
    lanes.add(np.arange(len(seeds)), tables, np.stack(seeds))
    fg = A._cost_evaluator(gr)
    warps = [None] * len(seeds)
    while len(lanes):
        for owner, g in zip(*lanes.advance(fg)):
            warps[owner] = g
    return warps, lanes


def _refine(gr, seed, maxiter=400):
    """The refinement of one seed on directed table 0, run as a single lane."""
    [g], _ = _run_lanes(gr, [0], [seed], maxiter)
    return g


def _one_lane_cost(gr, table=0):
    """``u -> (cost, gradient)`` on one directed table, by a one-row evaluation."""
    fg = A._cost_evaluator(gr)

    def cost(u):
        c, grad = fg(u[None], np.array([table]))
        return float(c[0]), grad[0]

    return cost


def _block_grams(rng, P, grid=40):
    """Gram tables of a block of ``P`` random pairs."""
    gr = A._PairGrams.empty(P, grid)
    for p in range(P):
        f1, f2 = (
            A._trajectory_features(sample_curve(smooth_unitdet_curve(rng, 3), 20), grid, False, None)
            for _ in range(2)
        )
        gr.fill(p, f1, f2)
    return gr


def test_lattice_paths_do_not_depend_on_the_edge_chunks(rng, monkeypatch):
    # the DP forms the edge costs of a chunk of rows at once, as many as
    # half a block budget holds: 5 of the 39 rows for the 32 directed tables
    # of 16 pairs, 30 for 3 pairs, all of them for one, and a row at a time
    # under a one-byte budget.  Every pair gets the same paths in both
    # directions however its slot is batched and its rows are chunked
    P = 16
    gr = _block_grams(rng, P)
    dt = 1.0 / (gr.N1.shape[1] - 1)
    whole = A._dp_lattice(gr, dt)
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 1)
    rows = A._dp_lattice(gr, dt)
    monkeypatch.undo()
    assert all(np.array_equal(g, w) for r, h in zip(rows, whole) for g, w in zip(r, h))
    three = A._dp_lattice(gr, dt, [4, 9, 15])
    batches = [(A._dp_lattice(gr, dt, [p]), [p]) for p in range(P)] + [(three, [4, 9, 15])]
    for paths, slots in batches:
        for b, p in enumerate(slots):
            # directed table p aligns slot p's pair, table P + p is its mirror
            for got, want in ((paths[b], whole[p]), (paths[len(slots) + b], whole[P + p])):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_refine_warp_stays_in_slope_window_and_beats_seed():
    # the n=100 pair of acceptance 09: unconstrained optimization drove the
    # slopes far outside the window and the final clip undid its work
    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    rng = derived_rng(9, "perf", 100)
    pair = TrajectoryPair(_random_trajectory(rng, 100, 20), _random_trajectory(rng, 100, 20))
    gr, seed = _grams_and_seed(pair)
    dt = 1.0 / 99
    g = _refine(gr, seed)
    slopes = np.diff(g) / dt
    assert g[0] == 0.0 and g[-1] == 1.0
    assert slopes.min() >= 1.0 / 3.0 - 1e-9 and slopes.max() <= 3.0 + 1e-9
    projected = np.concatenate([[0.0], np.cumsum(A._project_slopes(np.diff(seed)[None], dt)[0])])
    cost = _one_lane_cost(gr)
    assert cost(np.diff(g))[0] <= cost(np.diff(projected))[0]


def test_warp_search_in_canonical_order_is_exactly_symmetric(rng):
    for _ in range(3):
        a, b = (sample_curve(smooth_unitdet_curve(rng, 3), 30) for _ in range(2))
        f1, f2 = (A._trajectory_features(t, 40, False, None) for t in (a, b))
        [(d12, d21, w12, w21, dc)], _ = A._dq_from_features([(f1, f2)])
        [(e21, e12, v21, v12, ec)], _ = A._dq_from_features([(f2, f1)])
        assert (e12, e21, ec) == (d12, d21, dc)
        for w, v in ((w12, v12), (w21, v21)):
            assert np.array_equal(w.knots_x, v.knots_x) and np.array_equal(w.knots_y, v.knots_y)
        assert A._dc_from_features(f1, f2) == A._dc_from_features(f2, f1) == dc
        assert max(d12, d21) <= dc


def test_refine_warp_logs_non_convergence(rng, caplog):
    pair = TrajectoryPair(
        sample_curve(smooth_unitdet_curve(rng, 3), 40),
        sample_curve(smooth_unitdet_curve(rng, 3), 40),
    )
    gr, seed = _grams_and_seed(pair, grid=60)
    with caplog.at_level(logging.DEBUG, logger="spdtraj.alignment"):
        _refine(gr, seed, maxiter=2)
    assert any("not converged after 2 iterations" in r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="spdtraj.alignment"):
        _refine(gr, seed)
    assert not caplog.records


def test_refine_lanes_log_one_record_per_non_converged_lane(rng, caplog):
    # a block of three pairs, both directions, one or two seeds per table:
    # every lane stops at the cap and is reported once
    gr = _block_grams(rng, 3)
    ts = np.linspace(0.0, 1.0, 40)
    tables = [0, 1, 1, 2, 3, 4, 5, 5]
    seeds = [A._presmooth_warp(ts ** (0.6 + 0.1 * k)) for k in range(len(tables))]
    with caplog.at_level(logging.DEBUG, logger="spdtraj.alignment"):
        warps, lanes = _run_lanes(gr, tables, seeds, maxiter=2)
    records = [r.getMessage() for r in caplog.records]
    assert lanes.nonconverged == len(tables) == len(warps)
    assert len(records) == len(tables)
    assert all(m.startswith("warp refinement not converged after 2 iterations") for m in records)


def test_stacked_cost_evaluator_matches_one_lane(rng):
    # every row of a stacked evaluation, on forward and mirrored tables, is
    # bit for bit the row evaluated alone; a mirrored table equals the
    # forward table of explicitly transposed Grams
    P, T = 3, 40
    gr = _block_grams(rng, P, T)
    dt = 1.0 / (T - 1)
    tables = np.array([0, 4, 2, 3, 3, 1, 5, 0])
    U = A._project_slopes(dt * np.exp(0.5 * rng.normal(size=(len(tables), T - 1))), dt)
    costs, grads = A._cost_evaluator(gr)(U, tables)
    for u, t, c, grad in zip(U, tables, costs, grads):
        c1, g1 = _one_lane_cost(gr, t)(u)
        assert c1 == c and np.array_equal(g1, grad)
    flipped = A._PairGrams(
        N1=gr.N2, N2=gr.N1, G=gr.G.transpose(0, 2, 1).copy(), C1=gr.C2, C2=gr.C1
    )
    for u, t in zip(U, tables):
        c1, g1 = _one_lane_cost(gr, t)(u)
        c2, g2 = _one_lane_cost(flipped, (t + P) % (2 * P))(u)
        assert c1 == c2 and np.array_equal(g1, g2)


@given(hs.integers(0, 2**32 - 1), hs.floats(0.1, 3.0), hs.integers(1, 5), hs.floats(0.0, 1e3))
@settings(max_examples=30, deadline=None)
def test_project_slopes_is_euclidean_projection(seed, spread, rows, alpha):
    # random rows, and rows ``u - alpha g`` as a refinement step makes them:
    # a feasible u moved along a gradient g by a step of up to 1e3, which
    # shifts the sum far from one.  Every row matches the scalar loop bit
    # for bit, and that loop ends before its 64-iteration cap
    rng = np.random.default_rng(seed)
    dt = 1.0 / 49
    Y = dt * np.exp(spread * rng.normal(size=(rows, 49)))
    g = 0.1 * (rng.normal(size=Y.shape) + rng.normal(size=(rows, 1)))
    Y = np.concatenate([Y, A._project_slopes(Y, dt) - alpha * g])
    lo, hi = A._SLOPE_MIN * dt, A._SLOPE_MAX * dt
    for y, u in zip(Y, A._project_slopes(Y, dt)):
        ref, steps = _reference_projection_steps(y, dt)
        assert np.array_equal(u, ref) and steps < 64
        assert abs(u.sum() - 1.0) < 1e-12
        assert u.min() >= lo and u.max() <= hi
        # optimality: u = clip(y - lam, lo, hi) with one shift for every free entry
        free = (u > lo) & (u < hi)
        if free.any():
            lam = y[free] - u[free]
            np.testing.assert_allclose(lam, lam[0], atol=1e-12)
            assert np.all(y[u == lo] - lam[0] <= lo + 1e-12)
            assert np.all(y[u == hi] - lam[0] >= hi - 1e-12)


def _reference_projection(y, dt):
    """One row's slope projection by the scalar Newton/bisection loop."""
    return _reference_projection_steps(y, dt)[0]


def _reference_projection_steps(y, dt):
    """The scalar loop's projection of one row, and the iterations it took."""
    lo, hi = A._SLOPE_MIN * dt, A._SLOPE_MAX * dt
    a, b = float((y - hi).min()), float((y - lo).max())
    lam = (float(y.sum()) - 1.0) / y.size
    for steps in range(1, 65):
        z = y - lam
        u = np.minimum(np.maximum(z, lo), hi)
        excess = float(u.sum()) - 1.0
        n_free = np.count_nonzero((z > lo) & (z < hi))
        # the sum is known to its roundoff: m eps from summing to one, and
        # one spacing of the shift per free entry
        if abs(excess) <= np.finfo(float).eps * (y.size + n_free * abs(lam)):
            break
        if excess > 0:
            a = lam
        else:
            b = lam
        lam_next = lam + excess / n_free if n_free else 0.5 * (a + b)
        lam = lam_next if a < lam_next < b else 0.5 * (a + b)
    return u, steps


def _knots(u):
    """Warp knots of one increment vector, as a lane returns them."""
    g = np.concatenate([[0.0], np.cumsum(u)])
    g[-1] = 1.0
    return g


def _reference_refinement(cost, g_init, maxiter):
    """One refinement by the scalar spectral projected gradient: knots, last cost, converged."""
    dt = 1.0 / (g_init.shape[0] - 1)
    u = _reference_projection(np.diff(g_init), dt)
    c, grad = cost(u)
    converged = True
    alpha = 0.1 * dt / max(float(np.abs(grad - grad.mean()).max()), 1e-300)
    for _ in range(maxiter):
        d = _reference_projection(u - alpha * grad, dt) - u
        deriv = float(grad @ d)
        if -deriv <= A._REFINE_RTOL * c:
            break
        lam = 1.0
        while lam >= 1e-10:
            u_new = u + lam * d
            c_new, grad_new = cost(u_new)
            if c_new <= c + 1e-4 * lam * deriv:
                break
            q = -0.5 * lam * lam * deriv / (c_new - c - lam * deriv)
            lam = q if 0.1 * lam <= q <= 0.9 * lam else 0.5 * lam
        else:
            break
        s, y = u_new - u, grad_new - grad
        sy = float(s @ y)
        alpha = min(max(float(s @ s) / sy, 1e-12), 1e3) if sy > 0 else 1e3 * dt
        # a step that gained less than the tolerance converges, even the
        # step that reaches the cap
        flat = c - c_new < A._REFINE_RTOL * c_new
        u, c, grad = u_new, c_new, grad_new
        if flat:
            break
    else:
        converged = False
    return _knots(u), c, converged


def test_lanes_take_the_scalar_refinement_iterates(rng):
    # lanes on forward and mirrored tables of a 3-pair Gram stack, some
    # stopped by the iteration cap, reach exactly the warps of the scalar
    # refinement run one at a time
    gr = _block_grams(rng, 3)
    ts = np.linspace(0.0, 1.0, 40)
    tables = [0, 4, 1, 1, 5, 2, 3]
    seeds = [A._presmooth_warp(ts ** (0.5 + 0.15 * k)) for k in range(len(tables))]
    for maxiter in (400, 5):
        warps, lanes = _run_lanes(gr, tables, seeds, maxiter)
        results = [_reference_refinement(_one_lane_cost(gr, t), g0, maxiter)
                   for t, g0 in zip(tables, seeds)]
        for g, (ref, _, _) in zip(warps, results):
            assert np.array_equal(g, ref)
        assert lanes.nonconverged == sum(not ok for _, _, ok in results)
    assert lanes.nonconverged > 0


def _accepted_steps(gr, tables, seeds):
    """Run lanes and record each one's accepted iterates: ``{lane: [(cost, u)]}`` and the warps.

    The trials every round scores are recorded; a lane that stays took its
    trial when its step count grew, and a lane that stops took it when it
    returns the trial's knots.  The first record of a lane is its start.
    """
    lanes = A._Lanes(gr.N1.shape[1], A._REFINE_MAXITER, len(seeds))
    lanes.add(np.arange(len(seeds)), tables, np.stack(seeds))
    fg = A._cost_evaluator(gr)
    scored = []

    def recording(U, t):
        c, grad = fg(U, t)
        scored.append((U.copy(), c.copy()))
        return c, grad

    accepted = {o: [] for o in range(len(seeds))}  # (cost, increments) per step
    warps = {}
    while len(lanes):
        before = zip(list(lanes.owner), list(lanes.steps))
        stopped = dict(zip(*lanes.advance(recording)))
        after = dict(zip(lanes.owner, lanes.steps))
        for (o, steps), u, c in zip(before, *scored[-1]):
            if o in stopped:
                warps[o] = stopped[o]
                took = np.array_equal(stopped[o], _knots(u))
            else:
                took = after[o] == steps + 1
            if took:
                accepted[o].append((c, u))
    return accepted, warps


def test_lane_costs_never_increase_and_the_last_iterate_is_the_result():
    # the accepted costs of a lane never increase, and it returns its last
    # accepted iterate and that cost
    gr = _block_grams(np.random.default_rng(7), 3)
    ts = np.linspace(0.0, 1.0, 40)
    tables = [0, 4, 1, 1, 5, 2, 3]
    seeds = [A._presmooth_warp(ts ** (0.5 + 0.15 * k)) for k in range(len(tables))]
    accepted, warps = _accepted_steps(gr, tables, seeds)
    assert sum(len(a) for a in accepted.values()) > 100
    for t, o in zip(tables, accepted):
        costs = [c for c, _ in accepted[o]]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert np.array_equal(warps[o], _knots(accepted[o][-1][1]))
        last = _one_lane_cost(gr, t)(np.diff(warps[o]))[0]
        assert abs(last - costs[-1]) <= 1e-12 * costs[-1]


def test_lanes_stop_once_an_accepted_step_gains_less_than_the_tolerance():
    # pairs of the two-class collection (7 per class, n=6, T=15, separation
    # 2, seed 0) at grid 100, in one Gram block, each with the seeds of both
    # directions as the warp search makes them.  Their lanes crawl along
    # kinks of the warp cost: without the flat-step stop, 11 of their 12
    # lanes took accepted steps that gained less than _REFINE_RTOL of the
    # cost, down to 3e-15, and one lane took 374 steps.  Every accepted step
    # but a lane's last lowers the cost by at least _REFINE_RTOL times the
    # new cost, and no lane reaches the cap
    coll = gen_two_class(7, 6, 15, 2.0, 0)
    pairs = [(0, 4), (4, 6), (4, 12)]
    T = 100
    dt, ts = 1.0 / (T - 1), np.linspace(0.0, 1.0, T)
    feats = {i: A._trajectory_features(coll.trajectories[i], T, False, None)
             for i in {i for pair in pairs for i in pair}}
    gr = A._PairGrams.empty(len(pairs), T)
    for slot, (i, j) in enumerate(pairs):
        A._enter_search(gr, slot, feats[i], feats[j])
    paths = [(pi * dt, pj * dt) for pi, pj in A._dp_lattice(gr, dt)]
    tables, seeds = [], []
    for slot in range(len(pairs)):
        for e, g0 in A._seed_warps([paths[slot], paths[len(pairs) + slot]], ts):
            tables.append(slot + e * len(pairs))
            seeds.append(g0)
    accepted, _ = _accepted_steps(gr, tables, seeds)
    for steps in accepted.values():
        costs = [c for c, _ in steps]  # the start, then one per step
        assert len(costs) <= A._REFINE_MAXITER
        assert all(a - b >= A._REFINE_RTOL * b for a, b in zip(costs[:-2], costs[1:-1]))
    assert sum(len(a) for a in accepted.values()) > 100


def test_project_slopes_rows_match_one_row_projections():
    # a stack mixing rows that finish after one Newton step, after several,
    # and at their roundoff: a widely spread row whose shift is large cannot
    # bring its sum within 1e-15 of 1, and it stopped only at the
    # 64-iteration cap before the stop scaled with the shift.  Every row
    # equals its one-row projection and the scalar loop's projection, bit
    # for bit, and the scalar loop ends before the cap
    dt = 1.0 / 99
    rng = np.random.default_rng(5)
    capped = []
    for _ in range(2000):
        y = 1e3 * dt * rng.normal(size=99)
        if abs(A._project_slopes(y[None], dt)[0].sum() - 1.0) > 1e-15:
            capped.append(y)
            if len(capped) == 2:
                break
    assert len(capped) == 2
    lo = A._SLOPE_MIN * dt
    Y = np.stack([
        capped[0],
        np.full(99, 1.0 / 99),  # already feasible
        dt * np.exp(3.0 * rng.normal(size=99)),
        np.full(99, lo),  # every entry at the lower bound
        capped[1],
        dt * np.exp(0.1 * rng.normal(size=99)),
    ])
    U = A._project_slopes(Y, dt)
    for y, u in zip(Y, U):
        ref, steps = _reference_projection_steps(y, dt)
        assert np.array_equal(u, A._project_slopes(y[None], dt)[0])
        assert np.array_equal(u, ref) and steps < 64
    assert abs(U[0].sum() - 1.0) > 1e-15 and abs(U[4].sum() - 1.0) > 1e-15


# ---------------------------------------------------------------------------
# apply_warp


def test_apply_warp_identity_reproduces_grid(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 30)
    out = apply_warp(traj, WarpingFunction.identity(30))
    np.testing.assert_array_equal(out.matrices, traj.matrices)


def test_apply_warp_group_inverse(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 100)
    g = random_warp(100, 0.05, seed=7)
    back = apply_warp(apply_warp(traj, g), g.invert())
    err = max(
        dist_unitdet(back.matrices[k], traj.matrices[k]) for k in range(traj.length)
    )
    assert err < 1e-3


def test_apply_warp_hull_membership(rng):
    # every warped sample lies ON a stored geodesic segment: the triangle
    # inequality is tight through it
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 12)
    g = random_warp(12, 0.4, seed=3)
    out = apply_warp(traj, g)
    for k in range(out.length):
        p = out.matrices[k]
        ok = False
        for s in range(traj.length - 1):
            a, b = traj.matrices[s], traj.matrices[s + 1]
            gap = dist_unitdet(a, p) + dist_unitdet(p, b) - dist_unitdet(a, b)
            if gap < 1e-8:
                ok = True
                break
        assert ok


def test_apply_warp_preserves_unit_det(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 20)
    out = apply_warp(traj, random_warp(20, 0.3, seed=11))
    for P in out.matrices:
        assert abs(log_det(P)) < 1e-8


# ---------------------------------------------------------------------------
# random_warp


def test_random_warp_near_identity_limit():
    w = random_warp(20, roughness=1e-14, seed=5)
    tg = np.linspace(0, 1, 20)
    assert np.abs(w(tg) - tg).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=hs.integers(0, 2**31 - 1), roughness=hs.floats(1e-3, 5.0))
def test_random_warp_always_valid(seed, roughness):
    w = random_warp(15, roughness, seed)
    assert w(0.0) == 0.0 and w(1.0) == 1.0
    assert np.all(np.diff(w.knots_y) > 0)


def test_random_warp_strict_monotone_many_seeds():
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        inc = rng.gamma(shape=1.0 / 0.5, scale=0.5, size=19)
        assert np.all(inc > 0)  # gamma increments are a.s. positive
    # spot-check through the public constructor on a subsample
    for seed in range(0, 10_000, 500):
        w = random_warp(20, 0.5, seed)
        assert np.all(np.diff(w.knots_y) > 0)


def test_random_warp_unbiasedness():
    T = 20
    acc = np.zeros(T)
    for seed in range(1000):
        acc += random_warp(T, 0.3, seed).knots_y
    acc /= 1000
    assert np.abs(acc - np.linspace(0, 1, T)).max() < 0.02


def test_random_warp_deterministic():
    w1 = random_warp(15, 0.4, seed=42)
    w2 = random_warp(15, 0.4, seed=42)
    np.testing.assert_array_equal(w1.knots_y, w2.knots_y)


# ---------------------------------------------------------------------------
# warping function container


def test_warp_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        WarpingFunction(knots_x=np.array([0.0, 1.0]), knots_y=np.array([0.1, 1.0]))


def test_warp_rejects_nonmonotone():
    with pytest.raises(ValueError, match="increasing"):
        WarpingFunction(
            knots_x=np.array([0.0, 0.3, 0.6, 1.0]),
            knots_y=np.array([0.0, 0.7, 0.6, 1.0]),
        )


def test_warp_inverse_round_trip():
    w = random_warp(25, 0.5, seed=9)
    tg = np.linspace(0, 1, 200)
    np.testing.assert_allclose(w.invert()(w(tg)), tg, atol=1e-10)


# ---------------------------------------------------------------------------
# trajectory evaluation / resampling


def test_evaluate_trajectory_hits_samples_exactly(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 9)
    for k, t in enumerate(traj.times):
        np.testing.assert_array_equal(evaluate(traj, t), traj.matrices[k])


def test_evaluate_trajectory_interpolates_on_geodesic(rng):
    P1, P2 = random_unitdet(rng, 3), random_unitdet(rng, 3)
    traj = CovarianceTrajectory(matrices=np.stack([P1, P2]))
    mid = evaluate(traj, 0.5)
    # the geodesic's closed form sqrt(P1 M^t P1), at t = 1/2
    half = sym_sqrt(symmetrize(P1 @ sym_sqrt(pair_matrix(P1, P2)) @ P1))
    np.testing.assert_allclose(mid, half, atol=1e-10)


def test_one_sample_trajectory_reads_its_sample_on_all_of_the_unit_interval(rng):
    # a one-sample trajectory is constant on [0, 1]: evaluation, resampling
    # and warping read its sample at every time, and [0, 1] is still the range
    P = random_spd(rng, 3)
    point = CovarianceTrajectory(matrices=P[None])
    for s in (0.0, 1e-3, 0.5, 1.0):
        np.testing.assert_array_equal(evaluate(point, s), point.matrices[0])
    out = resample_trajectory(point, 4)
    np.testing.assert_array_equal(out.times, np.linspace(0.0, 1.0, 4))
    for M in out.matrices:
        np.testing.assert_allclose(M, point.matrices[0], rtol=1e-12, atol=0)
    warped = apply_warp(point, random_warp(5, 0.3, seed=1))
    np.testing.assert_array_equal(warped.matrices, point.matrices)
    with pytest.raises(ValueError, match=r"outside trajectory range \[0, 1\]"):
        evaluate(point, 1.5)


def test_trajectory_times_follow_from_its_length(rng):
    # the times are not an input: sample k of T sits at linspace(0, 1, T)[k]
    with pytest.raises(TypeError):
        CovarianceTrajectory(np.repeat(np.eye(2)[None], 3, axis=0), np.linspace(0, 2, 3))
    traj = sample_curve(smooth_unitdet_curve(rng, 3), 7)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, 1.0, 7))
    assert resample_trajectory(traj, 7) is traj


def test_resample_trajectory_identity(rng):
    f = smooth_unitdet_curve(rng, 3)
    traj = sample_curve(f, 14)
    out = resample_trajectory(traj, 14)
    np.testing.assert_array_equal(out.matrices, traj.matrices)


def test_resample_trajectory_refines_smoothly(rng):
    f = smooth_unitdet_curve(rng, 3)
    coarse = sample_curve(f, 10)
    fine = resample_trajectory(coarse, 55)
    assert fine.length == 55
    # refined samples stay close to the analytic curve
    errs = [
        dist_unitdet(fine.matrices[k], f(t))
        for k, t in enumerate(np.linspace(0, 1, 55))
    ]
    assert max(errs) < 0.05


def test_normalizing_before_resampling_matches_the_other_order():
    # resample_trajectory normalizes the input samples, then resamples; the
    # other order resamples the general trajectory and normalizes each
    # resampled sample.  They agree in exact arithmetic.
    from spdtraj.simgen import Exp2Config, gen_exp2, gen_two_class

    exp2, _, _ = gen_exp2(Exp2Config(n=100, seed=0))
    twoclass = gen_two_class(1, 6, 15, separation=2.0, seed=0).trajectories[0]
    # its samples are unit-determinant: a varying scale gives the log-det
    # channel something to carry
    scale = np.exp(np.sin(3.0 * twoclass.times))[:, None, None]
    twoclass = CovarianceTrajectory(matrices=twoclass.matrices * scale)
    grid = np.linspace(0.0, 1.0, 100)
    for traj in (exp2, twoclass):
        general = CovarianceTrajectory(
            matrices=np.array([evaluate(traj, s) for s in grid])
        )
        for include_logdet in (False, True):
            new = A._trajectory_features(traj, 100, include_logdet, None)
            old = A._trajectory_features(general, 100, include_logdet, None)
            assert np.abs(new.q - old.q).max() <= 1e-10 * np.abs(old.q).max()
            assert np.abs(new.start - old.start).max() <= 1e-10 * np.abs(old.start).max()
            assert new.start_logdet == pytest.approx(old.start_logdet, abs=1e-12)


def test_unit_part_below_eps_pd_is_still_rejected():
    # every matrix passes the positive-definiteness check, but no unit part
    # does; the error is a ValueError whether or not resampling moves points
    mats = np.array([np.diag([1.5e-12, 1e8, s]) for s in (1e8, 2e8, 3e8)])
    traj = CovarianceTrajectory(matrices=mats)
    for grid in (3, 5):
        with pytest.raises(ValueError, match="not positive definite"):
            A._trajectory_features(traj, grid, False, None)


def test_resampling_keeps_unit_parts_with_small_eigenvalues():
    # the interpolated points have eigenvalues down to 1e-7, their squares
    # down to 1e-14; a point is checked by its own eigenvalues
    traj = CovarianceTrajectory(matrices=np.array([np.diag([1e-7, 1e7]), np.diag([2e-7, 5e6])]))
    out = resample_trajectory(traj, 5)
    expected = 1e-7 * 2.0 ** np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(out.matrices[:, 0, 0], expected, rtol=1e-12)
    np.testing.assert_allclose(out.matrices[:, 1, 1], 1.0 / expected, rtol=1e-12)


def test_presmooth_warp_cached_kernel_matches_inline_formula(rng):
    for T in (5, 17, 100):
        g = np.concatenate([[0.0], np.sort(rng.uniform(size=T - 2)), [1.0]])
        ts = np.linspace(0.0, 1.0, T)
        sig = A._PRESMOOTH_WIDTH / (T - 1)
        W = np.exp(-0.5 * ((ts[:, None] - ts[None, :]) / sig) ** 2)
        gs = (W @ g) / W.sum(axis=1)
        gs = gs - gs[0]
        expected = gs / gs[-1]
        for _ in range(2):  # the second call reads the cached kernel
            assert A._presmooth_warp(g).tobytes() == expected.tobytes()
    kernel, rows = A._presmooth_kernel(100)
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0
    with pytest.raises(ValueError):
        rows[0] = 0.0


# ---------------------------------------------------------------------------
# the block budget: stacks are walked in blocks of geometry._BLOCK_BYTES


def _n100_trajectory():
    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    return _random_trajectory(derived_rng(9, "perf", 100), 100, 20)


def test_resampling_and_features_hold_their_output_and_a_few_blocks():
    # at n=100 a 100-sample stack is 8 MB, six blocks.  The features are
    # built from the input samples: beside their rows they hold the input's
    # unit-determinant parts and a few blocks (the walk's points, their
    # pairs and the pairs' SVD), never a resampled stack
    import tracemalloc

    traj = _n100_trajectory()
    allowed = 5 * geometry._BLOCK_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = resample_trajectory(traj, 100)
        kept = out.matrices.nbytes + out._split[0].matrices.nbytes
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= kept + allowed, f"resampling: peak {peak} B, output {kept} B"
        del out
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        feats = A._trajectory_features(traj, 100, False, None)
        kept = feats.q.nbytes + traj.matrices.nbytes
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= kept + allowed + geometry._BLOCK_BYTES, (
            f"features: peak {peak} B, rows and unit input {kept} B"
        )
    finally:
        tracemalloc.stop()


def test_log_det_channel_costs_at_most_one_block():
    # the channel's column makes the rows strided; they are written from
    # contiguous blocks, so no whole-stack temporary follows
    import tracemalloc

    traj = _n100_trajectory()
    peaks = []
    tracemalloc.start()
    try:
        for include_logdet in (False, True):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            A._trajectory_features(traj, 100, include_logdet, None)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + geometry._BLOCK_BYTES, peaks


def test_align_dq_holds_its_features_and_a_few_blocks():
    # the pair's two feature stacks stay alive through the search, and the
    # Gram product takes the transported rows whole, as one GEMM (a GEMM
    # over blocks of rows does not give the same bits): three stacks and a
    # few blocks, never a resampled stack or a unit stack of the grid
    import tracemalloc

    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    a = _n100_trajectory()
    b = _random_trajectory(derived_rng(10, "perf", 100), 100, 20)
    stack = 100 * 100 * 100 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        align_dq(TrajectoryPair(a, b), grid=100)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * stack + 3 * geometry._BLOCK_BYTES, f"peak {peak} B"


def _pair_stages(f1, f2, grid):
    """Transported features, Gram tables, identity cost and d_c of a pair."""
    q1p = np.empty_like(f1.q)
    identity = A._transport(f1, f2, q1p)
    gr = A._PairGrams.empty(1, grid)
    assert gr.fill(0, f1, f2) == identity
    return q1p, gr, identity, A._dc_from_features(f1, f2)


@pytest.mark.parametrize("include_logdet", [False, True])
def test_one_matrix_blocks_give_the_one_block_results(monkeypatch, include_logdet):
    # every per-matrix call and per-row sum is the one the whole stack makes,
    # so the results are the same bits at any block budget; the features
    # streamed from the input samples are those of the resampled trajectory
    # within the rows' tolerance
    from spdtraj.cli import _random_trajectory
    from spdtraj.simgen import derived_rng

    grid, default = 40, geometry._BLOCK_BYTES

    def stages(trajs):
        resampled = [resample_trajectory(t, grid) for t in trajs]
        feats = [A._trajectory_features(t, grid, include_logdet, None) for t in trajs]
        for f, r in zip(feats, resampled):
            two_stage = A._trajectory_features(r, grid, include_logdet, None)
            assert np.abs(f.q - two_stage.q).max() <= _ROW_TOL * np.abs(two_stage.q).max()
            assert f.start.tobytes() == two_stage.start.tobytes()
            assert f.start_logdet == two_stage.start_logdet
        return resampled, feats, _pair_stages(*feats, grid)

    for n in (12, 100):
        rng = derived_rng(3, "blocks", n)
        scale = np.exp(np.linspace(0.0, 1.0, 9))[:, None, None]
        trajs = [
            CovarianceTrajectory(matrices=_random_trajectory(rng, n, 9).matrices * scale)
            for _ in range(2)
        ]
        # one block at the default budget at n=12, several at n=100
        assert (default >= grid * n * n * 8) == (n == 12)
        monkeypatch.setattr(geometry, "_BLOCK_BYTES", default)
        whole = stages(trajs)
        monkeypatch.setattr(geometry, "_BLOCK_BYTES", 1)
        resampled, feats, (q1p, gr, identity, dc) = stages(trajs)
        for r0, r1 in zip(whole[0], resampled):
            assert r1.matrices.tobytes() == r0.matrices.tobytes()
            assert r1._split[0].matrices.tobytes() == r0._split[0].matrices.tobytes()
            assert r1._split[1].tobytes() == r0._split[1].tobytes()
        for f0, f1 in zip(whole[1], feats):
            assert f1.q.tobytes() == f0.q.tobytes()
            assert f1.start.tobytes() == f0.start.tobytes()
        assert q1p.tobytes() == whole[2][0].tobytes()
        for name in ("N1", "N2", "G", "C1", "C2"):
            assert getattr(gr, name).tobytes() == getattr(whole[2][1], name).tobytes()
        assert (identity, dc) == whole[2][2:]


@pytest.mark.parametrize("points_per_block", [1, 10])
def test_geodesic_point_rejection_in_a_later_block_matches_resampling(monkeypatch, points_per_block):
    # unit-determinant samples whose smallest eigenvalue halves from one to
    # the next.  An exact geodesic point never dips below both of its ends,
    # so EPS_PD is raised once the samples are built, past the last ones; a
    # resampled input carries its split, so its samples are not checked
    # again, and the first points below it lie near the end of the grid.
    # The features build only the ends of each interval's run of grid
    # points, so the eigenvalue they report is another point's
    x = 1e-3 * 0.5 ** np.arange(8)
    mats = np.stack([np.diag([x_k, 1.0 / x_k, 1.0]) for x_k in x])
    traj = resample_trajectory(CovarianceTrajectory(matrices=mats), 15)
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", points_per_block * 3 * 3 * 8)
    monkeypatch.setattr(geometry, "EPS_PD", 2e-5)
    with pytest.raises(geometry.NotPositiveDefiniteError) as want:
        resample_trajectory(traj, 100)
    with pytest.raises(geometry.NotPositiveDefiniteError) as got:
        A._trajectory_features(traj, 100, False, None)
    for err in (want, got):
        message = str(err.value)
        assert message.startswith("geodesic point is not positive definite: smallest eigenvalue ")
        assert float(message.split()[-3]) < 2e-5


def test_rotation_rejection_fires_in_a_later_block(monkeypatch):
    # three constant pairs, then one whose pair matrix has a smallest
    # eigenvalue of 2.07e-14
    from conftest import spread_unitdet_pair

    P1, P2 = spread_unitdet_pair(3, 1e7, 0, (0.5, np.inf))
    traj = CovarianceTrajectory(matrices=np.stack([P1, P1, P1, P1, P2]))
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 1)
    with pytest.raises(geometry.NotPositiveDefiniteError, match="pair matrix is not positive"):
        A._trajectory_features(traj, traj.length, False, None)
