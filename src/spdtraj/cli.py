"""Command-line pipeline: simulate, reduce, distance, classify, logdet, bench.

Every command writes its artifacts plus a JSON run manifest listing the full
configuration, input/output checksums and per-stage wall-clock timings.
All randomness flows from explicit --seed flags; artifacts are byte-identical
across reruns and ``--threads`` values (the option has no effect: pairs
run in one process, and the ``dq`` pairs share one pool of warp refinements).

A Stiefel basis is fitted only by ``reduce``; ``distance`` and ``classify``
apply a saved one with ``--basis``.

Exit codes: 0 success, 1 runtime/numerical failure, 2 configuration or
input-format error.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .alignment import TrajectoryPair, align_dq, dist_dc
from .analysis import (
    DistanceMatrix,
    LabeledCollection,
    alignment_reduction_histogram,
    cross_validate,
    distance_matrix,
    offdiag_pairs,
)
from .estimation import CovarianceTrajectory, _built, logdet_curve
from .geometry import NotPositiveDefiniteError, normalize_det
from .reduction import fit
from .simgen import Exp1Config, Exp2Config, derived_rng, gen_exp1, gen_exp2, gen_two_class


class CliConfigError(Exception):
    pass


_THREADS_HELP = "accepted for compatibility; has no effect (pairs run serially)"
# The largest --grid.  A warp search's lattice tables have grid^2 cells: one
# n=6 pair peaks at about 132 MB at this grid, and needs 763 MiB at 20000.
_GRID_MAX = 2000


class _Manifest:
    def __init__(self, command: str, config: dict):
        self.data = {
            "command": command,
            "config": {k: v for k, v in sorted(config.items())},
            "inputs": [],
            "outputs": [],
            "timings": {},
        }
        self._stage_start = {}

    def add_input(self, path):
        self.data["inputs"].append({"path": str(path), "sha256": io.sha256_file(path)})

    def add_output(self, path):
        self.data["outputs"].append({"path": str(path), "sha256": io.sha256_file(path)})

    def start(self, stage: str):
        self._stage_start[stage] = time.perf_counter()

    def stop(self, stage: str):
        self.data["timings"][stage] = time.perf_counter() - self._stage_start[stage]

    def write(self, path):
        io.save_manifest(path, self.data)


def _config_dict(args: argparse.Namespace, skip=("func",)) -> dict:
    out = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        out[k] = str(v) if isinstance(v, Path) else v
    return out


def _check_at_least(args: argparse.Namespace, **minimums) -> None:
    """Reject a numeric option below its minimum, or NaN, before any input is read.

    An option left unset (None) is not checked.
    """
    for name, least in minimums.items():
        value = getattr(args, name)
        if value is not None and not value >= least:
            raise CliConfigError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


def _check_grid(args: argparse.Namespace) -> None:
    """Reject ``--grid`` above `_GRID_MAX` before any input is read."""
    if args.grid > _GRID_MAX:
        raise CliConfigError(f"--grid must be at most {_GRID_MAX}, got {args.grid}")


def _load_items(paths: list[str], items_mode: str):
    """Load SPDT archives as items: whole trajectories or individual matrices.

    The loader has checked every matrix, so a matrix item is not checked again.
    An item's id starts with its archive's file stem, so two archives with
    one stem are rejected before any is read.
    """
    seen: dict[str, str] = {}
    for p in paths:
        stem = Path(p).stem
        if stem in seen:
            raise CliConfigError(
                f"duplicate item id {stem!r}: inputs {seen[stem]} and {p} share a file stem"
            )
        seen[stem] = p
    ids, trajs = [], []
    for p in paths:
        traj = io.load_trajectory(p)
        stem = Path(p).stem
        if items_mode == "matrices":
            for k in range(traj.length):
                ids.append(f"{stem}:{k}")
                trajs.append(_built(traj.matrices[k : k + 1]))
        else:
            ids.append(stem)
            trajs.append(traj)
    return ids, trajs


def _load_collection(args, man: _Manifest):
    """Load the items of ``args.inputs`` and ``args.basis``; both become manifest inputs.

    A collection needs at least two items, of one dimension: the basis's
    ``n`` when a basis reduces them.
    """
    for p in args.inputs:
        man.add_input(p)
    ids, trajs = _load_items(args.inputs, args.items)
    if len(trajs) < 2:
        raise CliConfigError("need at least 2 items")
    dims = {t.dim for t in trajs}
    if args.basis:
        man.add_input(args.basis)
        basis = io.load_basis(args.basis)
        if dims != {basis.n}:
            raise CliConfigError(
                f"inputs have dimensions {sorted(dims)}; the basis takes {basis.n}"
            )
        return ids, trajs, basis
    if len(dims) != 1:
        raise CliConfigError(
            f"inputs have mixed dimensions {sorted(dims)} and no --basis given"
        )
    return ids, trajs, None


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    man = _Manifest(f"simulate-{args.generator}", _config_dict(args))
    man.start("generate")
    rows = []
    outputs = []

    if args.generator == "exp1":
        cfg = _make_config(Exp1Config, k=args.k, T=args.T, n=args.n, seed=args.seed)
        sets = gen_exp1(cfg)
        for i, mats in enumerate(sets):
            path = out_dir / f"set{i:03d}.spdt"
            io.save_trajectory(path, CovarianceTrajectory(matrices=np.array(mats)))
            outputs.append(path)
            rows.append([path.name, i, args.seed, _cfg_hash(cfg)])
    elif args.generator == "exp2":
        cfg = _make_config(
            Exp2Config,
            n=args.n,
            length=args.length,
            window=args.window,
            step=args.step,
            out_length=args.out_length,
            kernel_width=args.kernel_width,
            roughness=args.roughness,
            seed=args.seed,
        )
        orig, warped, warp = gen_exp2(cfg)
        for name, obj in (("original.spdt", orig), ("warped.spdt", warped)):
            path = out_dir / name
            io.save_trajectory(path, obj)
            outputs.append(path)
            rows.append([name, "-", args.seed, _cfg_hash(cfg)])
        wpath = out_dir / "true_warp.csv"
        io.save_warp_csv(wpath, warp)
        outputs.append(wpath)
    else:  # twoclass
        try:
            coll = gen_two_class(
                args.n_per_class, args.n, args.T, args.separation, args.seed
            )
        except ValueError as e:
            raise CliConfigError(str(e)) from e
        ids = []
        for i, traj in enumerate(coll.trajectories):
            path = out_dir / f"traj{i:04d}.spdt"
            io.save_trajectory(path, traj)
            outputs.append(path)
            ids.append(path.stem)
            rows.append([path.name, int(coll.labels[i]), args.seed, "-"])
        lpath = out_dir / "labels.csv"
        io.save_labels_csv(lpath, ids, [int(c) for c in coll.labels])
        outputs.append(lpath)
    man.stop("generate")

    mpath = out_dir / "items.csv"
    io.save_table_csv(mpath, ["id", "group", "seed", "config"], rows)
    outputs.append(mpath)
    for p in outputs:
        man.add_output(p)
    man.write(out_dir / "manifest.json")
    print(f"wrote {len(outputs)} artifacts to {out_dir}")
    return 0


def _cfg_hash(cfg) -> str:
    import hashlib

    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:12]


def _make_config(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise CliConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args) -> int:
    _check_at_least(args, max_iters=0, tol=0, pair_cap=1, seed=0)
    man = _Manifest("reduce", _config_dict(args))
    for p in args.inputs:
        man.add_input(p)
    _, trajs = _load_items(args.inputs, "trajectories")
    dims = {t.dim for t in trajs}
    if len(dims) != 1:
        raise CliConfigError(f"training inputs have mixed dimensions {sorted(dims)}")
    n = dims.pop()
    if not 1 <= args.d < n:
        raise CliConfigError(f"--d must satisfy 1 <= d < n={n}, got {args.d}")
    training = [normalize_det(M)[0] for t in trajs for M in t.matrices]
    del trajs  # free the loaded stacks: fit needs only the normalized copies
    man.start("fit")
    model = fit(
        training,
        args.d,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        pair_cap=args.pair_cap,
    )
    man.stop("fit")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.save_basis(out, model.basis)
    man.add_output(out)
    trace_path = out.with_suffix(".trace.csv")
    io.save_values_csv(trace_path, model.objective_trace, header="objective")
    man.add_output(trace_path)
    man.data["converged"] = bool(model.converged)
    man.data["stopped_by"] = model.stopped_by
    man.data["iterations"] = int(model.iterations)
    man.data["grad_norm"] = float(model.grad_norm)
    man.write(out.with_suffix(".manifest.json"))
    print(
        f"basis {model.basis.n}x{model.basis.d} -> {out} "
        f"(converged={model.converged}, iters={model.iterations})"
    )
    return 0


# ---------------------------------------------------------------------------
# distance


def _cmd_distance(args) -> int:
    _check_at_least(args, grid=2, w_det=0)
    _check_grid(args)
    man = _Manifest("distance", _config_dict(args))
    ids, trajs, reduction = _load_collection(args, man)
    man.start("distances")
    D = distance_matrix(
        trajs,
        ids,
        metric=args.metric,
        grid=args.grid,
        include_logdet=args.include_logdet,
        w_det=args.w_det,
        reduction=reduction,
    )
    man.stop("distances")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.save_distance_csv(out, D)
    man.add_output(out)

    if args.metric == "dq":
        man.start("histogram")
        dc_vals, pair_ids = offdiag_pairs(D.unaligned)
        dq_vals, _ = offdiag_pairs(D)
        hist, skipped = alignment_reduction_histogram(dc_vals, dq_vals)
        man.stop("histogram")
        hpath = out.with_suffix(".reduction_hist.csv")
        io.save_values_csv(hpath, hist, header="relative_reduction")
        man.add_output(hpath)
        rpath = out.with_suffix(".alignment_report.csv")
        rows = []
        for (id1, id2), dc_v, dq_v in zip(pair_ids, dc_vals, dq_vals):
            rel = (dc_v - dq_v) / dc_v if dc_v > 0 else 0.0
            rows.append([id1, id2, float(dc_v), float(dq_v), float(rel)])
        io.save_table_csv(
            rpath, ["id1", "id2", "d_c", "d_q", "relative_reduction"], rows
        )
        man.add_output(rpath)
        man.data["histogram_skipped_pairs"] = skipped
        man.data["dq_max_asymmetry"] = D.asymmetry
        # nearest-rank quantiles of |d_ij - d_ji| over the pairs
        gaps = np.sort(D.pair_asymmetry) if D.pair_asymmetry.size else np.zeros(1)
        p50, p90 = (float(gaps[int(np.ceil(q * gaps.size)) - 1]) for q in (0.5, 0.9))
        man.data["dq_asymmetry_quantiles"] = {"p50": p50, "p90": p90, "max": D.asymmetry}
        man.data["refine_nonconverged"] = D.refine_nonconverged
        man.data["refine_rounds"] = D.refine_rounds
        man.data["refine_evaluations"] = D.refine_evaluations
    man.write(out.with_suffix(".manifest.json"))
    print(f"{D.size}x{D.size} {args.metric} matrix -> {out}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    _check_at_least(args, grid=2, folds=2, k=1, seed=0)
    _check_grid(args)
    man = _Manifest("classify", _config_dict(args))
    man.add_input(args.labels)
    label_map = io.load_labels_csv(args.labels)
    if args.distances:
        man.add_input(args.distances)
        D = io.load_distance_csv(args.distances, metric="precomputed")
        ids = D.ids
    else:
        if not args.inputs:
            raise CliConfigError("provide trajectory inputs or --distances")
        ids, trajs, reduction = _load_collection(args, man)
        man.start("distances")
        D = distance_matrix(
            trajs,
            ids,
            metric=args.metric,
            grid=args.grid,
            reduction=reduction,
        )
        man.stop("distances")
    missing = [i for i in ids if i not in label_map]
    if missing:
        raise CliConfigError(f"labels file has no row for id {missing[0]!r}")
    labels = np.array([label_map[i] for i in ids])
    coll = LabeledCollection(labels=labels, distances=D)
    man.start("cv")
    report = cross_validate(coll, folds=args.folds, k=args.k, seed=args.seed)
    man.stop("cv")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [["overall", report.overall]]
    rows += [[f"class_{c}", acc] for c, acc in report.per_class.items()]
    io.save_table_csv(out, ["quantity", "accuracy"], rows)
    man.add_output(out)
    cpath = out.with_suffix(".confusion.csv")
    io.save_table_csv(
        cpath,
        ["true\\pred"] + [str(c) for c in report.classes],
        [[str(c)] + report.confusion[i].tolist() for i, c in enumerate(report.classes)],
    )
    man.add_output(cpath)
    man.data["overall_accuracy"] = report.overall
    man.write(out.with_suffix(".manifest.json"))
    print(f"overall accuracy {report.overall:.4f} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# logdet


def _cmd_logdet(args) -> int:
    man = _Manifest("logdet", _config_dict(args))
    for p in args.inputs:
        man.add_input(p)
    ids, trajs = _load_items(args.inputs, "trajectories")
    lengths = {t.length for t in trajs}
    if len(lengths) != 1:
        raise CliConfigError(f"trajectories have mixed lengths {sorted(lengths)}")
    man.start("curves")
    curves = np.column_stack([logdet_curve(t) for t in trajs])
    man.stop("curves")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.save_table_csv(out, ids, [list(map(float, row)) for row in curves])
    man.add_output(out)
    man.write(out.with_suffix(".manifest.json"))
    print(f"log-det curves for {len(ids)} trajectories -> {out}")
    return 0


# ---------------------------------------------------------------------------
# bench


def _random_trajectory(rng, n: int, T: int) -> CovarianceTrajectory:
    from .geometry import sym_exp, symmetrize

    dirs = []
    for _ in range(2):
        A = symmetrize(rng.normal(size=(n, n)))
        A -= np.trace(A) / n * np.eye(n)
        dirs.append(0.4 * A / np.linalg.norm(A))
    phases = rng.uniform(0, 2 * np.pi, size=2)
    mats = np.empty((T, n, n))
    for k, t in enumerate(np.linspace(0.0, 1.0, T)):
        Z = sum(np.sin(np.pi * (m + 1) * t + phases[m]) * dirs[m] for m in range(2))
        mats[k] = sym_exp(Z)
    return CovarianceTrajectory(matrices=mats)


def _cmd_bench(args) -> int:
    _check_at_least(args, grid=2, reps=1)
    _check_grid(args)
    man = _Manifest("bench", _config_dict(args))
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes or any(s < 2 for s in sizes):
        raise CliConfigError("--sizes must be a comma list of integers >= 2")
    rows = []
    man.start("bench")
    for n in sizes:
        rng = derived_rng(args.seed, "bench", n)
        pair = TrajectoryPair(
            _random_trajectory(rng, n, args.T), _random_trajectory(rng, n, args.T)
        )
        t_dc = _median_time(lambda: dist_dc(pair), args.reps)
        row = [n, t_dc]
        if args.align == "on":
            t_dq = _median_time(lambda: align_dq(pair, grid=args.grid), args.reps)
            row.append(t_dq)
        rows.append(row)
    man.stop("bench")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["size", "t_dc_seconds"] + (["t_dq_seconds"] if args.align == "on" else [])
    io.save_table_csv(out, header, rows)
    man.add_output(out)
    if args.align == "on":
        ok = all(r[2] >= r[1] for r in rows)
        man.data["alignment_cost_exceeds_unaligned"] = bool(ok)
        print(f"alignment cost >= unaligned at every size: {ok}")
    man.write(out.with_suffix(".manifest.json"))
    print(f"timings for sizes {sizes} -> {out}")
    return 0


def _median_time(fn, reps: int) -> float:
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spdtraj", description="Covariance-trajectory analysis pipeline"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic data")
    simsub = sim.add_subparsers(dest="generator", required=True)
    e1 = simsub.add_parser("exp1", help="clustered random SPD matrices")
    e1.add_argument("--k", type=int, default=10)
    e1.add_argument("--T", type=int, default=20)
    e1.add_argument("--n", type=int, default=100)
    e1.add_argument("--seed", type=int, default=0)
    e1.add_argument("--out-dir", required=True)
    e1.set_defaults(func=_cmd_simulate)
    e2 = simsub.add_parser("exp2", help="trajectory plus warped copy")
    e2.add_argument("--n", type=int, default=100)
    e2.add_argument("--length", type=int, default=300)
    e2.add_argument("--window", type=int, default=80)
    e2.add_argument("--step", type=int, default=10)
    e2.add_argument("--out-length", type=int, default=20)
    e2.add_argument("--kernel-width", type=float, default=1.5)
    e2.add_argument("--roughness", type=float, default=0.1)
    e2.add_argument("--seed", type=int, default=0)
    e2.add_argument("--out-dir", required=True)
    e2.set_defaults(func=_cmd_simulate)
    tc = simsub.add_parser("twoclass", help="labeled two-class trajectories")
    tc.add_argument("--n-per-class", type=int, default=20)
    tc.add_argument("--n", type=int, default=6)
    tc.add_argument("--T", type=int, default=15)
    tc.add_argument("--separation", type=float, default=1.0)
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--out-dir", required=True)
    tc.set_defaults(func=_cmd_simulate)

    red = sub.add_parser("reduce", help="fit a Stiefel reduction basis")
    red.add_argument("inputs", nargs="+", help="SPDT trajectory archives")
    red.add_argument("--d", type=int, required=True)
    red.add_argument("--max-iters", type=int, default=200)
    red.add_argument(
        "--tol", type=float, default=1e-6,
        help="stop, converged, when the Riemannian gradient norm is at most "
        "TOL times the objective (a scale-free rule)",
    )
    red.add_argument(
        "--pair-cap", type=int, default=2048,
        help="sample at most this many training pairs; bounds the O(pairs n^2 d) "
        "compute per iteration, while memory stays O(matrices n^2)",
    )
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--out", required=True, help="output .stfb basis path")
    red.set_defaults(func=_cmd_reduce)

    dist = sub.add_parser("distance", help="pairwise distance matrix")
    dist.add_argument("inputs", nargs="+", help="SPDT trajectory archives")
    dist.add_argument("--metric", choices=["dc", "dq", "logeuclidean"], default="dc")
    dist.add_argument("--items", choices=["trajectories", "matrices"], default="trajectories")
    dist.add_argument("--basis", default=None, help="apply a basis saved by reduce")
    dist.add_argument("--w-det", type=float, default=None)
    dist.add_argument("--include-logdet", action="store_true")
    dist.add_argument("--grid", type=int, default=100)
    dist.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    dist.add_argument("--out", required=True)
    dist.set_defaults(func=_cmd_distance)

    clf = sub.add_parser("classify", help="cross-validated k-NN classification")
    clf.add_argument("inputs", nargs="*", help="SPDT trajectory archives")
    clf.add_argument("--distances", default=None, help="precomputed distance CSV")
    clf.add_argument("--labels", required=True)
    clf.add_argument("--metric", choices=["dc", "dq", "logeuclidean"], default="dc")
    clf.add_argument("--items", choices=["trajectories", "matrices"], default="trajectories")
    clf.add_argument("--basis", default=None)
    clf.add_argument("--grid", type=int, default=100)
    clf.add_argument("--folds", type=int, default=5)
    clf.add_argument("--k", type=int, default=1)
    clf.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    clf.add_argument("--seed", type=int, default=0)
    clf.add_argument("--out", required=True)
    clf.set_defaults(func=_cmd_classify)

    ld = sub.add_parser("logdet", help="per-trajectory log-det curves")
    ld.add_argument("inputs", nargs="+")
    ld.add_argument("--out", required=True)
    ld.set_defaults(func=_cmd_logdet)

    bench = sub.add_parser("bench", help="pairwise distance timing trend")
    bench.add_argument("--sizes", required=True, help="comma list of matrix dims")
    bench.add_argument("--T", type=int, default=20)
    bench.add_argument("--align", choices=["on", "off"], default="on")
    bench.add_argument("--grid", type=int, default=100)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except io.FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (ValueError, NotPositiveDefiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
