"""Benchmark of the spdtraj pipelines, run from the root of a checkout:

    python3 perfbench/run.py --workload twoclass_dq --seed 0 --seconds 30 --trace 0

It sets the workload up several times, each in a fresh process that runs
``spdtraj simulate`` (``prepare.py``), then repeats whole rounds of the
workload's pipeline in this process until ``--seconds`` have passed.  The
pipeline is driven only through ``spdtraj.cli.main`` and public library
calls, with BLAS pinned to one thread and ``--threads 1``.  The outputs of
the last round are checked apart from the program (``checks.py``), and every
round must write the same bytes.  The last line of standard output is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of traced rounds (``tracer.py``), which alternate with
untraced rounds so the tracing overhead can be read off.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from workloads import BLAS_ENV, DEFAULT_SEED, GRID, NAMES, OPS, SIMULATE, import_cli

os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
# set-up runs per benchmark run; setup_s is their median
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


@dataclass
class Round:
    wall: float = 0.0
    seconds: dict = field(default_factory=dict)  # op name -> wall time
    ok: dict = field(default_factory=dict)  # op name -> ran without error
    digest: dict = field(default_factory=dict)  # op name -> hash of its outputs
    align: tuple | None = None  # (dq, knots_x, knots_y) of the align op
    layers: dict | None = None  # tracer snapshot of a traced round


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def setup_in_child(workload: str, seed: int, data: Path) -> float:
    """Seconds from starting a set-up process to its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
         "--seed", str(seed), "--data", str(data)],
        stdout=subprocess.PIPE, text=True, env={**os.environ, **BLAS_ENV},
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=SETUP_TIMEOUT_S)
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up of {workload} failed (exit {rc})")
    return elapsed


def data_digest(data: Path) -> str:
    """Hash of the generated inputs; the manifest is left out (it holds timings)."""
    return files_digest(sorted(p for p in data.iterdir() if p.name != "manifest.json"))


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def run_op(spdtraj, op, rnd: Round) -> None:
    t0 = time.perf_counter()
    try:
        if op.kind == "align":
            first, second = (spdtraj.io.load_trajectory(p) for p in op.argv)
            dq, warp = spdtraj.align_dq(spdtraj.TrajectoryPair(first, second), grid=GRID)
            rnd.align = (dq, warp.knots_x.copy(), warp.knots_y.copy())
            ok = True
            digest = hashlib.sha256(
                repr(dq).encode() + warp.knots_x.tobytes() + warp.knots_y.tobytes()
            ).hexdigest()
        else:
            with redirect_stdout(sys.stderr):
                ok = spdtraj.cli.main(op.argv) == 0
            digest = None  # hashed after the round, outside its timing
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        ok, digest = False, ""
    rnd.seconds[op.name] = time.perf_counter() - t0
    rnd.ok[op.name] = ok
    rnd.digest[op.name] = digest


def run_round(spdtraj, ops, tracer=None) -> Round:
    rnd = Round()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        for op in ops:
            run_op(spdtraj, op, rnd)
    finally:
        rnd.wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.remove()
            rnd.layers = tracer.snapshot()
    for op in ops:
        if rnd.digest[op.name] is None:
            try:
                rnd.digest[op.name] = files_digest(op.outputs) if rnd.ok[op.name] else ""
            except OSError:  # an output the command should have written is missing
                rnd.ok[op.name], rnd.digest[op.name] = False, ""
    return rnd


def end_to_end(rounds, ops, setup_times) -> dict:
    pairs = sum(op.pairs for op in ops)
    dist_ops = [op.name for op in ops if op.kind == "distance"]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(r.wall for r in rounds), "s"),
        "pairs_per_s": (statistics.median(
            pairs / sum(r.seconds[name] for name in dist_ops) for r in rounds
        ), "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer(setup_layers, traced, untraced, ops) -> dict:
    """Per-layer metrics: set-up stages from the traced set-up, the rest per round.

    Times are medians over the traced rounds, counts come from the first
    traced round (every traced round must give the same counts).
    """
    def med(get):
        return statistics.median(get(r) for r in traced)

    first = traced[0].layers
    calls, counts = first["calls"], first["counts"]
    su = setup_layers
    out = {}
    for key in ("alignment.warp_search", "alignment.resample", "alignment.features",
                "geometry.dist_unitdet", "geometry.log_euclidean"):
        out[f"{key}_calls"] = (calls.get(key, 0), "count")
        out[f"{key}_s"] = (med(lambda r: r.layers["total"].get(key, 0.0)), "s")
    out["alignment.refine_nonconverged"] = (counts.get("alignment.refine_nonconverged", 0), "count")
    align_ops = [op.name for op in ops if op.kind == "align"]
    out["alignment.align_dq_s"] = (med(lambda r: sum(r.seconds[n] for n in align_ops)), "s")
    for key in ("geometry.log_map", "geometry.transport_rotation", "geometry.normalize_det"):
        out[f"{key}_calls"] = (calls.get(key, 0), "count")
    for name in ("eigh", "eigvalsh", "solve", "svd"):
        out[f"linalg.{name}_calls"] = (calls.get(f"linalg.{name}", 0), "count")
    out["linalg.s"] = (med(lambda r: sum(
        v for k, v in r.layers["total"].items() if k.startswith("linalg."))), "s")
    for key in ("reduction.fit", "reduction.build_pairs", "reduction.reduce_trajectory",
                "analysis.distance_matrix", "analysis.cross_validate"):
        out[f"{key}_s"] = (med(lambda r: r.layers["total"].get(key, 0.0)), "s")
    out["reduction.fit_iterations"] = (counts.get("reduction.fit_iterations", 0), "count")
    out["reduction.pair_tensor_mb"] = (
        counts.get("reduction.pair_tensor_bytes", 0) / 1e6, "MB-computed")
    out["analysis.distance_matrix_self_s"] = (
        med(lambda r: r.layers["self"].get("analysis.distance_matrix", 0.0)), "s")
    out["analysis.pairs"] = (counts.get("analysis.pairs", 0), "count")
    for key in ("estimation.estimate_trajectory", "estimation.smooth_resample"):
        out[f"{key}_s"] = (su["total"].get(key, 0.0), "s")
    out["estimation.ledoit_wolf_calls"] = (su["calls"].get("estimation.ledoit_wolf", 0), "count")
    out["simgen.s"] = (su["total"].get("simgen", 0.0), "s")
    out["io.s"] = (su["total"].get("io", 0.0) + med(lambda r: r.layers["total"].get("io", 0.0)), "s")
    out["io.calls"] = (su["calls"].get("io", 0) + calls.get("io", 0), "count")
    out["io.bytes_written"] = (
        su["counts"].get("io.bytes_written", 0) + counts.get("io.bytes_written", 0), "bytes")
    out["cli.simulate_s"] = (su["cli_simulate_s"], "s")
    for kind in ("reduce", "distance", "classify"):
        names = [op.name for op in ops if op.kind == kind]
        out[f"cli.{kind}_s"] = (med(lambda r: sum(r.seconds[n] for n in names)), "s")
    out["trace.overhead_s"] = (
        statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced),
        "s",
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    import spdtraj  # the package import_cli() loaded from this checkout

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = work / "out"
    try:
        out.mkdir(parents=True)
        correct = True
        tracer = setup_layers = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer({m: sys.modules[f"spdtraj.{m}"] for m in (
                "alignment", "analysis", "cli", "estimation", "geometry", "io",
                "reduction", "simgen")})
            data = work / "data"
            tracer.install()
            t0 = time.perf_counter()
            with redirect_stdout(sys.stderr):
                rc = cli.main(SIMULATE[args.workload](args.seed, data))
            setup_seconds = time.perf_counter() - t0
            tracer.remove()
            if rc != 0:
                raise SystemExit(f"perfbench: set-up of {args.workload} failed (exit {rc})")
            setup_layers = tracer.snapshot()
            setup_layers["cli_simulate_s"] = setup_seconds
        else:
            dirs = [work / f"data{k}" for k in range(SETUP_REPEATS)]
            setup_times = [setup_in_child(args.workload, args.seed, d) for d in dirs]
            if len({data_digest(d) for d in dirs}) != 1:
                print("perfbench: set-up runs wrote different inputs", file=sys.stderr)
                correct = False
            data = dirs[0]

        ops = OPS[args.workload](data, out)
        rounds: list[Round] = []
        t_start = time.perf_counter()
        # whole rounds while another one would end less than half a round
        # past the time; traced runs alternate untraced and traced rounds and
        # need at least one of each
        while (
            not rounds
            or time.perf_counter() - t_start + 0.5 * rounds[-1].wall < args.seconds
            or (tracer is not None and len(rounds) < 2)
        ):
            trace_this = tracer is not None and len(rounds) % 2 == 1
            rounds.append(run_round(spdtraj, ops, tracer if trace_this else None))
        if tracer is None:  # before the checks load scipy into this process
            report = end_to_end(rounds, ops, setup_times)

        from checks import CHECKS

        try:
            problems = CHECKS[args.workload](data, out, args.seed, rounds[-1].align)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            # an output the checks need is missing or malformed
            problems = {op.name: [f"outputs unreadable: {e!r}"] for op in ops}
        for op_name, found in problems.items():
            for p in found:
                print(f"perfbench: check failed for {op_name}: {p}", file=sys.stderr)
        last = rounds[-1]
        attempted = failed = 0
        for rnd in rounds:
            for op in ops:
                attempted += 1
                if (not rnd.ok[op.name] or rnd.digest[op.name] != last.digest[op.name]
                        or problems.get(op.name)):
                    failed += 1

        if tracer is not None:
            traced = [r for r in rounds if r.layers is not None]
            untraced = [r for r in rounds if r.layers is None]
            if any(r.layers["calls"] != traced[0].layers["calls"]
                   or r.layers["counts"] != traced[0].layers["counts"] for r in traced):
                print("perfbench: traced rounds gave different counts", file=sys.stderr)
                correct = False
            report = per_layer(setup_layers, traced, untraced, ops)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        }
        walls = " ".join(f"{r.wall:.3f}" for r in rounds)
        print(f"perfbench: {args.workload} round seconds: {walls}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
