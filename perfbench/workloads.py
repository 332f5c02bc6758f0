"""The benchmark's workloads: seeded inputs and the pipeline each round runs.

This module imports nothing from numpy or spdtraj, so the set-up child can
pin BLAS threads before either is loaded.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The set-up child and the parent both pin BLAS/OpenMP to one thread before
# numpy is imported: with more threads the same 100x100 product took 0.05 ms
# in some processes and 11-16 ms in others.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

DEFAULT_SEED = 0


def import_cli():
    """Import ``spdtraj.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "spdtraj" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no spdtraj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from spdtraj import cli

    if Path(cli.__file__).resolve().parent != SRC / "spdtraj":
        raise SystemExit(f"perfbench: imported spdtraj from {cli.__file__}, not {SRC}")
    return cli


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``kind`` is ``distance``, ``reduce`` or ``classify`` for a
    ``spdtraj.cli.main`` call with ``argv``, or ``align`` for the library
    call ``align_dq`` on the trajectory archives named in ``argv``.
    ``outputs`` are the data files the operation writes; manifests are left
    out because they hold timings.  ``pairs`` counts the item pairs of the
    distance matrix the workload asks for.
    """

    name: str
    kind: str
    argv: list[str]
    outputs: list[Path] = field(default_factory=list)
    pairs: int = 0


# twoclass_dq: 14 items (7 per class), n=6, T=15 -> 91 dq pairs per round
TWOCLASS_PER_CLASS = 7
# exp1_reduce: 3 sets of 14 matrices at n=100 -> 42 items, 861 pairs per matrix
EXP1_SETS, EXP1_PER_SET, EXP1_N, EXP1_D = 3, 14, 100, 10
EXP1_PAIR_CAP, EXP1_MAX_ITERS = 512, 40
GRID = 100


def _sim_twoclass(seed: int, data: Path) -> list[str]:
    return [
        "simulate", "twoclass", "--n-per-class", str(TWOCLASS_PER_CLASS),
        "--n", "6", "--T", "15", "--separation", "2.0",
        "--seed", str(seed), "--out-dir", str(data),
    ]


def _sim_exp1(seed: int, data: Path) -> list[str]:
    return [
        "simulate", "exp1", "--k", str(EXP1_SETS), "--T", str(EXP1_PER_SET),
        "--n", str(EXP1_N), "--seed", str(seed), "--out-dir", str(data),
    ]


def _sim_exp2(seed: int, data: Path) -> list[str]:
    return [
        "simulate", "exp2", "--n", "100", "--length", "300", "--window", "80",
        "--step", "10", "--out-length", "20", "--kernel-width", "1.5",
        "--roughness", "0.1", "--seed", str(seed), "--out-dir", str(data),
    ]


def _dq_outputs(out: Path, stem: str) -> list[Path]:
    return [
        out / f"{stem}.csv",
        out / f"{stem}.reduction_hist.csv",
        out / f"{stem}.alignment_report.csv",
    ]


def _ops_twoclass(data: Path, out: Path) -> list[Op]:
    trajs = sorted(str(p) for p in data.glob("traj*.spdt"))
    n = len(trajs)
    return [
        Op(
            "distance_dq",
            "distance",
            ["distance", *trajs, "--metric", "dq", "--grid", str(GRID),
             "--threads", "1", "--out", str(out / "dq.csv")],
            _dq_outputs(out, "dq"),
            n * (n - 1) // 2,
        ),
        Op(
            "classify",
            "classify",
            ["classify", "--distances", str(out / "dq.csv"),
             "--labels", str(data / "labels.csv"), "--folds", "5", "--k", "1",
             "--seed", "0", "--threads", "1", "--out", str(out / "accuracy.csv")],
            [out / "accuracy.csv", out / "accuracy.confusion.csv"],
        ),
    ]


def _ops_exp1(data: Path, out: Path) -> list[Op]:
    sets = sorted(str(p) for p in data.glob("set*.spdt"))
    items = len(sets) * EXP1_PER_SET
    pairs = items * (items - 1) // 2
    basis = out / "basis.stfb"
    common = ["--items", "matrices", "--threads", "1"]
    return [
        Op(
            "reduce",
            "reduce",
            ["reduce", *sets, "--d", str(EXP1_D), "--pair-cap", str(EXP1_PAIR_CAP),
             "--max-iters", str(EXP1_MAX_ITERS), "--seed", "0", "--out", str(basis)],
            [basis, out / "basis.trace.csv"],
        ),
        Op(
            "distance_dc",
            "distance",
            ["distance", *sets, "--metric", "dc", *common, "--out", str(out / "dc.csv")],
            [out / "dc.csv"],
            pairs,
        ),
        Op(
            "distance_dc_reduced",
            "distance",
            ["distance", *sets, "--metric", "dc", "--basis", str(basis), *common,
             "--out", str(out / "dc_reduced.csv")],
            [out / "dc_reduced.csv"],
            pairs,
        ),
        Op(
            "distance_logeuclidean",
            "distance",
            ["distance", *sets, "--metric", "logeuclidean", *common,
             "--out", str(out / "logeuclidean.csv")],
            [out / "logeuclidean.csv"],
            pairs,
        ),
    ]


def _ops_exp2(data: Path, out: Path) -> list[Op]:
    orig, warped = str(data / "original.spdt"), str(data / "warped.spdt")
    return [
        Op(
            "distance_dq",
            "distance",
            ["distance", orig, warped, "--metric", "dq", "--grid", str(GRID),
             "--threads", "1", "--out", str(out / "dq.csv")],
            _dq_outputs(out, "dq"),
            1,
        ),
        # the warp reparameterizes the second trajectory, so the warped copy
        # goes first to recover the generator's warp
        Op("align_dq", "align", [warped, orig]),
    ]


SIMULATE = {
    "twoclass_dq": _sim_twoclass,
    "exp1_reduce": _sim_exp1,
    "exp2_align": _sim_exp2,
}
OPS = {
    "twoclass_dq": _ops_twoclass,
    "exp1_reduce": _ops_exp1,
    "exp2_align": _ops_exp2,
}
NAMES = tuple(SIMULATE)
