"""Per-layer counts and times for a traced round.

The tracer replaces, for the length of a traced round, the names that one
spdtraj module looks up in another (for example ``analysis._dq_from_features``)
with wrappers that count calls and time them, and gives ``geometry`` a copy
of ``numpy`` whose ``linalg`` kernels are wrapped the same way.  A few names
are wrapped inside their own module, where the layer's work is a helper of
that module (``estimation.ledoit_wolf``, ``reduction.build_pairs``).
Untraced rounds run the program unmodified.

Each wrapper pushes a frame on one stack, so a call's time is also charged
to the wrapped call that encloses it; a layer's self time is its time minus
that of the wrapped calls inside it.
"""
from __future__ import annotations

import logging
import os
import types
from collections import Counter, defaultdict
from time import perf_counter

# (consumer module, name it looks up, layer key); the consumer is where the
# wrapper is installed, so only calls that cross into the layer are counted
CROSSINGS = (
    ("analysis", "_dq_from_features", "alignment.warp_search"),
    ("analysis", "resample_trajectory", "alignment.resample"),
    ("analysis", "_trajectory_features", "alignment.features"),
    ("analysis", "_point_features", "alignment.features"),
    ("analysis", "log_euclidean_dist", "geometry.log_euclidean"),
    ("analysis", "reduce_trajectory", "reduction.reduce_trajectory"),
    ("alignment", "dist_unitdet", "geometry.dist_unitdet"),
    ("alignment", "log_map", "geometry.log_map"),
    ("alignment", "transport_rotation", "geometry.transport_rotation"),
    ("estimation", "normalize_det", "geometry.normalize_det"),
    ("reduction", "normalize_det", "geometry.normalize_det"),
    ("cli", "normalize_det", "geometry.normalize_det"),
    ("simgen", "normalize_det", "geometry.normalize_det"),
    ("estimation", "ledoit_wolf", "estimation.ledoit_wolf"),
    ("simgen", "estimate_trajectory", "estimation.estimate_trajectory"),
    ("simgen", "smooth_resample", "estimation.smooth_resample"),
    ("reduction", "build_pairs", "reduction.build_pairs"),
    ("cli", "fit", "reduction.fit"),
    ("cli", "distance_matrix", "analysis.distance_matrix"),
    ("cli", "cross_validate", "analysis.cross_validate"),
    ("cli", "gen_exp1", "simgen"),
    ("cli", "gen_exp2", "simgen"),
    ("cli", "gen_two_class", "simgen"),
)
LINALG = ("eigh", "eigvalsh", "solve", "svd")
NONCONVERGED = "warp refinement not converged"


class _CountRecords(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith(NONCONVERGED):
            self.tracer.counts["alignment.refine_nonconverged"] += 1


class Tracer:
    """Counts (``counts``) and seconds (``total``, ``child``) per layer key."""

    def __init__(self, spdtraj_modules: dict[str, types.ModuleType]):
        self.mods = spdtraj_modules
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # non-call counts: pairs, bytes, ...
        self._stack: list[list[float]] = []
        self._undo: list = []  # callables that undo install(), newest last
        self._handler = _CountRecords(self)

    def reset(self) -> None:
        self.calls.clear()
        self.total.clear()
        self.child.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": {k: v - self.child[k] for k, v in self.total.items()},
            "counts": dict(self.counts),
        }

    def _wrap(self, fn, key, after=None):
        stack, calls, total, child = self._stack, self.calls, self.total, self.child

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                total[key] += dt
                child[key] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, name, value) -> None:
        old = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def install(self) -> None:
        m = self.mods
        after = {
            "analysis.distance_matrix": self._count_pairs,
            "reduction.fit": self._count_iterations,
            "reduction.build_pairs": self._count_pair_tensor,
        }
        for consumer, name, key in CROSSINGS:
            fn = getattr(m[consumer], name)
            self._set(m[consumer], name, self._wrap(fn, key, after.get(key)))

        np = m["geometry"].np
        linalg = types.ModuleType(np.linalg.__name__)
        linalg.__dict__.update(vars(np.linalg))
        for name in LINALG:
            setattr(linalg, name, self._wrap(getattr(np.linalg, name), f"linalg.{name}"))
        shim = types.ModuleType(np.__name__)
        shim.__dict__.update(vars(np))
        shim.linalg = linalg
        self._set(m["geometry"], "np", shim)

        io = m["io"]
        io_shim = types.ModuleType(io.__name__)
        io_shim.__dict__.update(vars(io))
        for name, fn in vars(io).items():
            if isinstance(fn, types.FunctionType) and fn.__module__ == io.__name__ \
                    and not name.startswith("_"):
                # manifests hold timings and paths, so their size is left out
                data_file = name.startswith("save_") and name != "save_manifest"
                hook = self._count_bytes if data_file else None
                setattr(io_shim, name, self._wrap(fn, "io", hook))
        self._set(m["cli"], "io", io_shim)

        log = logging.getLogger(m["alignment"].__name__)
        level = log.level
        self._undo.append(lambda: log.setLevel(level))
        self._undo.append(lambda: log.removeHandler(self._handler))
        log.setLevel(logging.DEBUG)
        log.addHandler(self._handler)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _count_pairs(self, args, result) -> None:
        n = len(args[0])
        self.counts["analysis.pairs"] += n * (n - 1) // 2

    def _count_iterations(self, args, result) -> None:
        self.counts["reduction.fit_iterations"] += int(result.iterations)

    def _count_pair_tensor(self, args, result) -> None:
        # computed from K n^2 8 bytes, not measured
        self.counts["reduction.pair_tensor_bytes"] += result.count * result.dim**2 * 8

    def _count_bytes(self, args, result) -> None:
        self.counts["io.bytes_written"] += os.path.getsize(args[0])
