"""The benchmark's tracer wraps spdtraj names it looks up by string.

A rename in ``src/`` would make ``perfbench/run.py --trace 1`` fail with an
AttributeError, so every name it wraps must resolve.  A change that moves
work past a wrapped name would instead zero a per-layer metric silently, so
a traced run of tiny matrices must count each layer's calls exactly.
"""
import importlib
import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unitdet, sample_curve, smooth_unitdet_curve
from spdtraj import alignment
from spdtraj.estimation import CovarianceTrajectory

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("alignment", "analysis", "cli", "estimation", "geometry", "io", "reduction", "simgen")
LAYERS = (
    "alignment.warp_search",
    "alignment.features",
    "alignment.resample",
    "geometry.dist_unitdet",
)


def _tracer_module():
    # tracer.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module, name, key", _tracer_module().CROSSINGS)
def test_traced_name_resolves(module, name, key):
    assert callable(getattr(importlib.import_module(f"spdtraj.{module}"), name)), key


def test_tracer_counts_each_layer_and_removes_its_wrappers():
    tracer_mod = _tracer_module()
    mods = {m: importlib.import_module(f"spdtraj.{m}") for m in MODULES}
    wrapped = [(mods[consumer], name) for consumer, name, _ in tracer_mod.CROSSINGS]
    wrapped += [(mods["geometry"], "np"), (mods["cli"], "io")]
    before = [getattr(owner, name) for owner, name in wrapped]
    log = logging.getLogger(mods["alignment"].__name__)
    level, handlers = log.level, list(log.handlers)

    rng = np.random.default_rng(3)
    trajs = [sample_curve(smooth_unitdet_curve(rng, 3), 5) for _ in range(3)]
    points = [CovarianceTrajectory(matrices=random_unitdet(rng, 3)[None]) for _ in range(4)]
    runs = {
        "dq": (trajs, {"metric": "dq", "grid": 8}),
        "point dc": (points, {"metric": "dc"}),
        "logeuclidean": (trajs, {"metric": "logeuclidean"}),
    }
    tracer = tracer_mod.Tracer(mods)
    tracer.install()
    counts = {}
    try:
        for label, (items, kwargs) in runs.items():
            tracer.reset()
            mods["analysis"].distance_matrix(items, **kwargs)
            calls = tracer.snapshot()["calls"]
            counts[label] = tuple(calls.get(key, 0) for key in LAYERS)
    finally:
        tracer.remove()

    # (warp_search, features, resample, dist_unitdet): one warp-search
    # block for the 3 dq pairs, one start-point distance per pair, one
    # feature set per item.  The features resample as they go, so dq calls
    # no resample_trajectory; only logeuclidean resamples whole stacks
    assert counts == {
        "dq": (1, 3, 0, 3),
        "point dc": (0, 4, 0, 6),
        "logeuclidean": (0, 0, 3, 0),
    }
    assert all(getattr(owner, name) is old for (owner, name), old in zip(wrapped, before))
    assert (log.level, log.handlers) == (level, handlers)


def test_tracer_counts_the_record_of_a_capped_lane():
    # the tracer counts non-converged warp refinements by the prefix of
    # their DEBUG record: a lane stopped at its cap logs exactly one record,
    # and the tracer's handler counts it
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer({})
    rng = np.random.default_rng(3)
    f1, f2 = (
        alignment._trajectory_features(sample_curve(smooth_unitdet_curve(rng, 3), 12), 12, False, None)
        for _ in range(2)
    )
    gr = alignment._PairGrams.empty(1, 12)
    gr.fill(0, f1, f2)
    lanes = alignment._Lanes(12, 1, 1)
    lanes.add([0], [0], np.linspace(0.0, 1.0, 12)[None] ** 2)
    fg = alignment._cost_evaluator(gr)
    log = logging.getLogger(alignment.__name__)
    level, handler = log.level, tracer_mod._CountRecords(tracer)
    log.setLevel(logging.DEBUG)
    log.addHandler(handler)
    try:
        while len(lanes):
            lanes.advance(fg)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    assert lanes.nonconverged == 1
    assert tracer.counts == {"alignment.refine_nonconverged": 1}
