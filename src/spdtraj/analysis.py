"""Pairwise distance matrices, distance-based classification, figure statistics."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    TrajectoryPair,
    _dc_from_features,
    _dq_from_features,
    _point_features,
    _trajectory_features,
    resample_trajectory,
)
from .estimation import CovarianceTrajectory
from .geometry import (
    DimensionMismatchError,
    log_euclidean_dist,  # unused here; perfbench/tracer.py wraps it
    sym_log,
)
from .reduction import ReductionModel, StiefelBasis, reduce_trajectory

log = logging.getLogger(__name__)

METRICS = ("dc", "dq", "logeuclidean")
# One `_dq_from_features` call takes at most this many pairs: its results
# hold two warps per pair (32 T bytes on a T-point grid).
_DQ_PAIRS_PER_CALL = 1024


@dataclass(frozen=True)
class DistanceMatrix:
    ids: list[str]
    values: np.ndarray
    metric: str
    asymmetry: float = 0.0  # max |d(i,j) - d(j,i)| before symmetrization (dq only)
    unaligned: "DistanceMatrix | None" = None  # d_c from the same pass (dq only)
    # |d(i,j) - d(j,i)| per pair, upper triangle in row-major order (dq only)
    pair_asymmetry: np.ndarray | None = field(default=None, repr=False)
    # warp refinement counters (dq only): lanes stopped at their cap,
    # stacked cost evaluations, and lane trials scored
    refine_nonconverged: int = 0
    refine_rounds: int = 0
    refine_evaluations: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        N = len(self.ids)
        if vals.shape != (N, N):
            raise ValueError(f"values must be {N}x{N}, got {vals.shape}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", list(self.ids))

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class LabeledCollection:
    """Items with class labels; either trajectories or a precomputed matrix."""

    labels: np.ndarray
    trajectories: list[CovarianceTrajectory] | None = None
    distances: DistanceMatrix | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        n_items = None
        if self.trajectories is not None:
            n_items = len(self.trajectories)
        if self.distances is not None:
            n_items = self.distances.size if n_items is None else n_items
            if self.distances.size != n_items:
                raise ValueError("distance matrix size does not match items")
        if n_items is None:
            raise ValueError("collection needs trajectories or a distance matrix")
        if labels.shape != (n_items,):
            raise ValueError(f"need {n_items} labels, got {labels.shape}")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def distance_matrix(
    trajectories: list[CovarianceTrajectory],
    ids: list[str] | None = None,
    *,
    metric: str = "dc",
    grid: int = 100,
    include_logdet: bool = False,
    w_det: float | None = None,
    reduction: ReductionModel | StiefelBasis | None = None,
) -> DistanceMatrix:
    """All-pairs distances over a trajectory collection.

    ``dc`` and ``dq`` compare TSRVF features on one grid for the whole
    collection: when every item is a single matrix, the features are points
    and both metrics are the start-point distance, from each point's inverse
    computed once with its features; otherwise every item is
    resampled to ``grid`` samples, so a single matrix becomes a constant
    trajectory, as in `dist_dc`.  ``logeuclidean`` resamples every item to
    the longest item's length.

    Pairs are computed in loop order.  ``dq`` passes them to one
    `_dq_from_features` call (up to ``_DQ_PAIRS_PER_CALL`` pairs per call):
    each pair gets one warp search, in its canonical order, that scores both
    alignment directions, and the pairs' refinements share one lane pool
    that pairs join as Gram slots free up.  The matrix takes the max of the
    two directions, records each pair's gap (``pair_asymmetry``), the
    largest one and the refinement counters on the result, and carries the
    ``d_c`` matrix of the same pass as ``unaligned``.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    N = len(trajectories)
    if ids is None:
        ids = [f"item{i:04d}" for i in range(N)]
    if len(ids) != N:
        raise ValueError("ids length must match collection size")
    if reduction is not None:
        trajectories = [reduce_trajectory(tr, reduction) for tr in trajectories]
    dims = {tr.dim for tr in trajectories}
    if len(dims) > 1:
        raise DimensionMismatchError(
            f"mixed matrix dimensions {sorted(dims)}; supply a reduction model"
        )

    vals = np.zeros((N, N))
    dc_vals = np.zeros((N, N))
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    gaps = np.zeros(len(pairs))  # |d(i,j) - d(j,i)| per pair
    counters = np.zeros(3, dtype=int)  # dq refinement counters
    size = len(pairs) or 1

    # work(chunk) -> one (d_ij, d_ji, d_c) per pair, and the refinement counters
    if metric == "logeuclidean":
        common = max(tr.length for tr in trajectories)
        logs = [sym_log(resample_trajectory(tr, common).matrices) for tr in trajectories]

        def one(i, j):
            diff = (logs[i] - logs[j]).reshape(common, -1)
            d2 = np.linalg.vecdot(diff, diff)
            if common == 1:
                return float(np.sqrt(d2[0]))
            return float(np.sqrt(np.trapezoid(d2, dx=1.0 / (common - 1))))

        def work(chunk):
            return [(d, d, np.nan) for d in (one(i, j) for i, j in chunk)], (0, 0, 0)
    else:
        points = all(tr.length == 1 for tr in trajectories)
        if points:
            feats = [_point_features(tr, include_logdet, w_det) for tr in trajectories]
        else:
            feats = [_trajectory_features(tr, grid, include_logdet, w_det) for tr in trajectories]

        if metric == "dc" or points:
            def work(chunk):
                ds = [_dc_from_features(feats[i], feats[j]) for i, j in chunk]
                return [(d, d, d) for d in ds], (0, 0, 0)
        else:
            size = _DQ_PAIRS_PER_CALL

            def work(chunk):
                found, refine = _dq_from_features([(feats[i], feats[j]) for i, j in chunk])
                return [(d_ij, d_ji, dc) for d_ij, d_ji, _, _, dc in found], refine

    for b in range(0, len(pairs), size):
        chunk = pairs[b : b + size]
        found, refine = work(chunk)
        counters += refine
        for k, ((i, j), (d_ij, d_ji, dc)) in enumerate(zip(chunk, found), start=b):
            vals[i, j] = vals[j, i] = max(d_ij, d_ji)
            dc_vals[i, j] = dc_vals[j, i] = dc
            gaps[k] = abs(d_ij - d_ji)
    asym = float(gaps.max()) if gaps.size else 0.0
    if asym > 0:
        log.debug("dq symmetrization: max |forward - backward| = %.3e", asym)
    if metric != "dq":
        return DistanceMatrix(ids, vals, metric, asymmetry=asym)
    nonconverged, rounds, evaluations = counters.tolist()
    return DistanceMatrix(ids, vals, metric, asymmetry=asym,
                          unaligned=DistanceMatrix(ids, dc_vals, "dc"),
                          pair_asymmetry=gaps, refine_nonconverged=nonconverged,
                          refine_rounds=rounds, refine_evaluations=evaluations)


def _class_order(labels: np.ndarray) -> list:
    return sorted(set(labels.tolist()))


def knn_classify(
    collection: LabeledCollection, test_ids: list[int], k: int
) -> np.ndarray:
    """k-nearest-neighbor labels for the test items, by the stored metric.

    Majority vote among the k nearest training items; vote ties break toward
    the class with the smallest mean distance among its voting neighbors,
    then toward the lowest class id.
    """
    if collection.distances is None:
        raise ValueError("collection must carry a precomputed distance matrix")
    D = collection.distances.values
    labels = collection.labels
    N = collection.size
    test_set = set(int(t) for t in test_ids)
    train = np.array([i for i in range(N) if i not in test_set])
    if train.size == 0:
        raise ValueError("training set is empty")
    if not 1 <= k <= train.size:
        raise ValueError(f"k must be in [1, {train.size}], got {k}")
    out = []
    for t in test_ids:
        drow = D[int(t), train]
        order = np.argsort(drow, kind="stable")[:k]
        neigh = train[order]
        votes: dict = {}
        for idx in neigh:
            lab = labels[idx]
            votes.setdefault(lab, []).append(D[int(t), idx])
        best_count = max(len(v) for v in votes.values())
        tied = [lab for lab, v in votes.items() if len(v) == best_count]
        if len(tied) > 1:
            means = {lab: float(np.mean(votes[lab])) for lab in tied}
            m = min(means.values())
            tied = sorted([lab for lab in tied if means[lab] == m])
        out.append(tied[0])
    return np.array(out)


@dataclass(frozen=True)
class CVReport:
    overall: float
    per_class: dict
    confusion: np.ndarray  # rows: true class, cols: predicted
    classes: list
    folds: int
    k: int
    seed: int
    fold_assignment: np.ndarray = field(repr=False, default=None)  # type: ignore


def cross_validate(
    collection: LabeledCollection, folds: int, k: int, seed: int
) -> CVReport:
    """Stratified k-fold cross-validation of the k-NN classifier.

    ``folds == N`` runs plain leave-one-out (stratification is moot with
    singleton test folds).  Deterministic given ``seed``.
    """
    if collection.distances is None:
        raise ValueError("collection must carry a precomputed distance matrix")
    N = collection.size
    labels = collection.labels
    if folds < 2:
        raise ValueError("folds must be at least 2")
    classes = _class_order(labels)
    rng = np.random.default_rng(seed)
    assignment = np.empty(N, dtype=int)
    if folds == N:
        assignment[:] = np.arange(N)
    else:
        for c in classes:
            members = np.flatnonzero(labels == c)
            if members.size < folds:
                raise ValueError(
                    f"class {c!r} has {members.size} members, fewer than {folds} folds"
                )
            members = members[rng.permutation(members.size)]
            assignment[members] = np.arange(members.size) % folds

    cidx = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for f in range(folds):
        test = np.flatnonzero(assignment == f)
        if test.size == 0:
            continue
        preds = knn_classify(collection, test.tolist(), k)
        for t, p in zip(test, preds):
            confusion[cidx[labels[t]], cidx[p]] += 1
    total = confusion.sum()
    overall = float(np.trace(confusion)) / total if total else 0.0
    per_class = {}
    for c in classes:
        row = confusion[cidx[c]]
        per_class[c] = float(row[cidx[c]]) / row.sum() if row.sum() else 0.0
    return CVReport(
        overall=overall,
        per_class=per_class,
        confusion=confusion,
        classes=classes,
        folds=folds,
        k=k,
        seed=seed,
        fold_assignment=assignment,
    )


def frobenius_gap(D: DistanceMatrix, D_d: DistanceMatrix) -> float:
    """||D - D_d||_F between two distance matrices over the same items."""
    if D.ids != D_d.ids:
        raise ValueError("distance matrices cover different items (id mismatch)")
    return float(np.linalg.norm(D.values - D_d.values))


def block_contrast(
    D: DistanceMatrix | np.ndarray, labels: np.ndarray
) -> tuple[float, float, float]:
    """Mean within-class and between-class distances (diagonal excluded) and their ratio."""
    vals = D.values if isinstance(D, DistanceMatrix) else np.asarray(D, dtype=float)
    labels = np.asarray(labels)
    if labels.shape[0] != vals.shape[0]:
        raise ValueError("labels length must match matrix size")
    if len(set(labels.tolist())) < 2:
        raise ValueError("block contrast needs at least 2 classes")
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(labels), dtype=bool)
    within = float(vals[same & off].mean())
    between = float(vals[~same].mean())
    return within, between, within / between


def alignment_reduction_histogram(
    dc_values: np.ndarray, dq_values: np.ndarray
) -> tuple[np.ndarray, int]:
    """Relative distance reduction (d_c - d_q)/d_c per pair.

    Pairs with d_c == 0 are skipped; the skip count is returned alongside.
    """
    dc = np.asarray(dc_values, dtype=float)
    dq = np.asarray(dq_values, dtype=float)
    if dc.shape != dq.shape:
        raise ValueError("dc and dq value arrays must have equal length")
    keep = dc > 0
    skipped = int(np.sum(~keep))
    vals = (dc[keep] - dq[keep]) / dc[keep]
    return vals, skipped


def offdiag_pairs(D: DistanceMatrix) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """Upper-triangle values with their id pairs, row-major order."""
    N = D.size
    idx = [(i, j) for i in range(N) for j in range(i + 1, N)]
    vals = np.array([D.values[i, j] for i, j in idx])
    return vals, [(D.ids[i], D.ids[j]) for i, j in idx]
