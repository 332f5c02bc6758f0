"""Checks of each workload's outputs, computed apart from spdtraj.

Files are parsed here from their documented layouts, and distances are
recomputed with other formulas: the quotient distance as
``||log sigma(A^-1 B)||_F`` through the SVD, the log-Euclidean distance with
``scipy.linalg.logm``.  Each check function takes the set-up and output
directories, the workload seed and the last ``align_dq`` result, and returns
per operation name the list of problems found; an operation with problems
counts as failed.
"""
from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg

# relative agreement asked of recomputed distances (a prototype matched all
# three exp1 formulas to 4e-15)
RTOL = 1e-9
# orthonormality of the fitted basis read back from its file
ORTHO_TOL = 1e-10
# 1-NN accuracy on two balanced classes; chance is 0.5
ACCURACY_MIN = 0.9
# recovered-warp rms against the generator's warp (the paper's Experiment 2
# bound); at roughness 0.1 the identity warp is within it too (rms 0.007-0.04
# over 2000 seeds), so the recovered warp must also beat the identity
WARP_RMS_MAX = 0.05
# aligning a warped copy removes part of the unaligned distance: d_q <= this
# times d_c (the smallest gain seen was 18%, on the most identity-like warps)
ALIGN_GAIN_MAX = 0.9
# matrices whose logm the log-Euclidean check computes (logm takes ~0.2 s at n=100)
LOGM_SAMPLE = 6


def read_spdt(path: Path) -> np.ndarray:
    """Trajectory archive: b'SPDT', u32 dim, u32 length, then SPDM matrices."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"SPDT":
        raise ValueError(f"{path}: bad magic")
    n, T = struct.unpack_from("<II", buf, 4)
    stride = 8 + 8 * n * n
    if len(buf) != 12 + T * stride:
        raise ValueError(f"{path}: size does not match {T} matrices of {n}x{n}")
    mats = np.empty((T, n, n))
    for k in range(T):
        off = 12 + k * stride
        if buf[off : off + 4] != b"SPDM" or struct.unpack_from("<I", buf, off + 4)[0] != n:
            raise ValueError(f"{path}: bad matrix header {k}")
        mats[k] = np.frombuffer(buf, "<f8", n * n, off + 8).reshape(n, n)
    return mats


def read_basis(path: Path) -> np.ndarray:
    """Basis archive: b'STFB', u32 n, u32 d, f64 column-major."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"STFB":
        raise ValueError(f"{path}: bad magic")
    n, d = struct.unpack_from("<II", buf, 4)
    if len(buf) != 12 + 8 * n * d:
        raise ValueError(f"{path}: size does not match {n}x{d}")
    return np.frombuffer(buf, "<f8", n * d, 12).reshape((n, d), order="F")


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_distances(path: Path) -> tuple[list[str], np.ndarray]:
    ids, rows = read_rows(path)
    D = np.array([[float(v) for v in row] for row in rows])
    if D.shape != (len(ids), len(ids)):
        raise ValueError(f"{path}: {D.shape} values for {len(ids)} ids")
    return ids, D


def unit_det(P: np.ndarray) -> np.ndarray:
    sign, logdet = np.linalg.slogdet(P)
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return P * np.exp(-logdet / P.shape[0])


def quotient_dist(A: np.ndarray, B: np.ndarray) -> float:
    """||log sigma(A^-1 B)||_F for unit-determinant SPD A, B."""
    s = np.linalg.svd(np.linalg.solve(A, B), compute_uv=False)
    return float(np.linalg.norm(np.log(s)))


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def matrix_problems(name: str, D: np.ndarray) -> list[str]:
    out = []
    if not np.all(np.isfinite(D)) or np.any(D < 0):
        out.append(f"{name}: entries not finite and nonnegative")
    if not np.array_equal(D, D.T):
        out.append(f"{name}: not symmetric")
    if np.any(np.diag(D) != 0.0):
        out.append(f"{name}: nonzero diagonal")
    return out


def dq_problems(data: Path, out: Path, stem: str = "dq") -> list[str]:
    """dq matrix and its report: symmetric, zero diagonal, l_x <= d_q <= d_c."""
    ids, D = read_distances(out / f"{stem}.csv")
    problems = matrix_problems(f"{stem}.csv", D)
    index = {k: i for i, k in enumerate(ids)}
    starts = {k: unit_det(read_spdt(data / f"{k}.spdt")[0]) for k in ids}
    header, rows = read_rows(out / f"{stem}.alignment_report.csv")
    if header[:4] != ["id1", "id2", "d_c", "d_q"] or len(rows) != len(ids) * (len(ids) - 1) // 2:
        return problems + ["alignment report: unexpected layout"]
    for id1, id2, dc, dq, _ in rows:
        dc, dq = float(dc), float(dq)
        if dq != D[index[id1], index[id2]]:
            problems.append(f"report d_q({id1},{id2}) differs from the matrix")
        lx = quotient_dist(starts[id1], starts[id2])
        if lx > dq * (1 + RTOL) or dq > dc * (1 + RTOL):
            problems.append(f"({id1},{id2}): l_x={lx!r} d_q={dq!r} d_c={dc!r} out of order")
    return problems


def check_twoclass_dq(data: Path, out: Path, seed: int, align=None):
    dist = dq_problems(data, out)
    ids, D = read_distances(out / "dq.csv")
    _, label_rows = read_rows(data / "labels.csv")
    label = dict(label_rows)
    y = np.array([label[k] for k in ids])
    masked = D + np.diag(np.full(len(ids), np.inf))
    loo = float(np.mean(y[np.argmin(masked, axis=1)] == y))
    if loo < ACCURACY_MIN:
        dist.append(f"leave-one-out 1-NN accuracy {loo:.3f} < {ACCURACY_MIN}")
    clf = []
    _, rows = read_rows(out / "accuracy.csv")
    overall = float(dict(rows)["overall"])
    if overall < ACCURACY_MIN:
        clf.append(f"classify accuracy {overall:.3f} < {ACCURACY_MIN}")
    return {"distance_dq": dist, "classify": clf}


def _groups_apart(name: str, ids: list[str], D: np.ndarray) -> list[str]:
    group = np.array([k.split(":")[0] for k in ids])
    same = group[:, None] == group[None, :]
    off = ~np.eye(len(ids), dtype=bool)
    within, between = D[same & off].mean(), D[~same].mean()
    if not within < between:
        return [f"{name}: mean within-set {within:.4g} >= between-set {between:.4g}"]
    return []


def check_exp1_reduce(data: Path, out: Path, seed: int, align=None):
    rng = np.random.default_rng(seed)  # which pairs are recomputed
    mats = {}
    for path in sorted(data.glob("set*.spdt")):
        for k, P in enumerate(read_spdt(path)):
            mats[f"{path.stem}:{k}"] = P
    problems = {name: [] for name in
                ("reduce", "distance_dc", "distance_dc_reduced", "distance_logeuclidean")}

    B = read_basis(out / "basis.stfb")
    ortho = np.abs(B.T @ B - np.eye(B.shape[1])).max()
    if ortho > ORTHO_TOL:
        problems["reduce"].append(f"basis: max |B^T B - I| = {ortho:.3e}")
    _, trace_rows = read_rows(out / "basis.trace.csv")
    trace = np.array([float(r[0]) for r in trace_rows])
    if np.any(np.diff(trace) < 0):
        problems["reduce"].append("objective trace decreases")

    full = {k: unit_det(P) for k, P in mats.items()}
    reduced = {k: unit_det(B.T @ P @ B) for k, P in full.items()}
    for op, fname, images in (
        ("distance_dc", "dc.csv", full),
        ("distance_dc_reduced", "dc_reduced.csv", reduced),
    ):
        ids, D = read_distances(out / fname)
        problems[op] += matrix_problems(fname, D) + _groups_apart(fname, ids, D)
        # one partner per matrix
        for i, k in enumerate(ids):
            j = int(rng.integers(len(ids) - 1))
            j += j >= i
            want = quotient_dist(images[k], images[ids[j]])
            if _rel_gap(D[i, j], want) > RTOL:
                problems[op].append(f"{fname}({k},{ids[j]}) = {float(D[i, j])!r}, expected {want!r}")

    ids, D = read_distances(out / "logeuclidean.csv")
    problems["distance_logeuclidean"] += matrix_problems("logeuclidean.csv", D)
    sample = sorted(rng.choice(len(ids), size=LOGM_SAMPLE, replace=False))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # logm's error estimate notes
        logs = {i: np.real(scipy.linalg.logm(mats[ids[i]])) for i in sample}
    for a, i in enumerate(sample):
        for j in sample[a + 1 :]:
            want = float(np.linalg.norm(logs[i] - logs[j]))
            if _rel_gap(D[i, j], want) > RTOL:
                problems["distance_logeuclidean"].append(
                    f"logeuclidean({ids[i]},{ids[j]}) = {float(D[i, j])!r}, expected {want!r}"
                )
    return problems


def check_exp2_align(data: Path, out: Path, seed: int, align=None):
    problems = {"distance_dq": dq_problems(data, out), "align_dq": []}
    dq, knots_x, knots_y = align
    _, D = read_distances(out / "dq.csv")
    lx = quotient_dist(*(unit_det(read_spdt(data / f"{k}.spdt")[0]) for k in ("warped", "original")))
    if not lx * (1 - RTOL) <= dq <= D[0, 1] * (1 + RTOL):
        problems["align_dq"].append(
            f"align_dq {dq!r} outside [l_x, symmetrized d_q] = [{lx!r}, {float(D[0, 1])!r}]"
        )
    _, rows = read_rows(out / "dq.alignment_report.csv")
    dc = float(rows[0][2])
    if not D[0, 1] <= ALIGN_GAIN_MAX * dc:
        problems["distance_dq"].append(
            f"d_q {float(D[0, 1])!r} of the warped copy is not below {ALIGN_GAIN_MAX} d_c = {dc!r}"
        )
    _, rows = read_rows(data / "true_warp.csv")
    truth = np.array([[float(v) for v in r] for r in rows])
    tg = np.linspace(0.0, 1.0, 100)
    true_warp = np.interp(tg, truth[:, 0], truth[:, 1])
    rms = float(np.sqrt(np.mean((np.interp(tg, knots_x, knots_y) - true_warp) ** 2)))
    rms_identity = float(np.sqrt(np.mean((tg - true_warp) ** 2)))
    if not rms <= WARP_RMS_MAX or not rms < rms_identity:
        problems["align_dq"].append(
            f"recovered warp rms {rms:.4f}: above {WARP_RMS_MAX}, or not below the"
            f" identity's {rms_identity:.4f}"
        )
    return problems


CHECKS = {
    "twoclass_dq": check_twoclass_dq,
    "exp1_reduce": check_exp1_reduce,
    "exp2_align": check_exp2_align,
}
