"""Outside-in tracer for one worker process.

The program is not instrumented. Instead, for the length of a traced job
the tracer replaces public functions at the module attribute where
their caller looks them up, so `ksetsplus.cli.main` runs unchanged and
every call through a wrapped name becomes a span (name, start, end,
parent). Counts are read at the same boundaries from values the program
already returns or keeps (moves per pass, the engine's op counters,
stored entries of a built measure). Only spans and a few integers are
kept, never the program's objects, so no object outlives its normal
lifetime and no free is moved out of the layer that pays it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs wrapped for a traced job, each with the
# per-layer time metric its self time is charged to. Spans the tracer
# opens itself ("job", "cli.main") are charged to cli.self_s.
WRAPPED = {
    ("io", "load_edge_list"): "io.parse_s",
    ("io", "load_dense_csv"): "io.parse_s",
    ("io", "read_partition_tsv"): "io.parse_s",
    ("io", "write_partition_tsv"): "io.write_s",
    ("io", "build_from_triples"): "measure.build_s",
    ("io", "symmetrize"): "measure.build_s",
    ("cli", "run"): "engine.run_self_s",
    ("cli", "induced_cohesion"): "transforms.cohesion_s",
    ("cli", "pairwise_isolation_check"): "verify.isolation_s",
    ("cli", "sbm_generate"): "experiments.generate_s",
    ("cli", "similarity_from_signed"): "experiments.similarity_s",
    ("cli", "edge_accuracy"): "experiments.accuracy_s",
    ("engine", "init_state"): "engine.init_s",
    ("engine", "run_pass"): "engine.pass_s",
    ("engine", "objective_value"): "engine.objective_s",
}
TIME_METRICS = sorted(set(WRAPPED.values()) | {"cli.self_s"})
COUNT_METRICS = (
    "io.input_mb",
    "measure.entries",
    "experiments.two_step_terms",
    "transforms.cohesion_calls",
    "engine.restarts",
    "engine.passes",
    "engine.moves",
    "engine.points_evaluated",
    "engine.ops_delta",
    "engine.ops_update",
)


class Tracer:
    """Spans and counts of the traced jobs run in this process."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def reset_job(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore the originals on exit."""
        originals = []
        try:
            for module_name, attr in WRAPPED:
                module = self._modules[module_name]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            before = _ops(args[0]) if name == "engine.run_pass" else None
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out, before)
            return out

        return traced

    def metrics(self) -> dict:
        """Self time per layer metric plus the counts, for the last job."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        job_s = 0.0
        for (name, start, end, parent), covered in zip(self.spans, child_time):
            key = _layer_of(name)
            out[key] += (end - start) - covered
            if parent < 0:
                job_s += end - start
        out["trace.job_s"] = job_s
        out.update(self.counts)
        return out


def _layer_of(name: str) -> str:
    module_name, _, attr = name.partition(".")
    return WRAPPED.get((module_name, attr), "cli.self_s")


def _ops(state) -> tuple[int, int]:
    return state.ops_delta, state.ops_update


def _count_load(counts, args, out, before):
    counts["io.input_mb"] += os.path.getsize(args[0]) / 2**20


def _count_build(counts, args, out, before):
    counts["measure.entries"] = max(counts["measure.entries"], out.m)


def _count_generate(counts, args, out, before):
    degree = np.bincount(np.concatenate([out.edge_i, out.edge_j]), minlength=out.n)
    counts["measure.entries"] = max(counts["measure.entries"], 2 * out.n_edges)
    counts["experiments.two_step_terms"] += int(np.dot(degree, degree))


def _count_cohesion(counts, args, out, before):
    counts["transforms.cohesion_calls"] += 1


def _count_init(counts, args, out, before):
    counts["engine.restarts"] += 1


def _count_pass(counts, args, out, before):
    state = args[0]
    ops_delta, ops_update = _ops(state)
    counts["engine.passes"] += 1
    counts["engine.moves"] += out
    counts["engine.points_evaluated"] += (ops_delta - before[0]) // state.k
    counts["engine.ops_delta"] += ops_delta - before[0]
    counts["engine.ops_update"] += ops_update - before[1]


_COUNTERS = {
    "io.load_edge_list": _count_load,
    "io.load_dense_csv": _count_load,
    "io.build_from_triples": _count_build,
    "io.symmetrize": _count_build,
    "cli.sbm_generate": _count_generate,
    "cli.induced_cohesion": _count_cohesion,
    "engine.init_state": _count_init,
    "engine.run_pass": _count_pass,
}
