"""The three workloads: CLI invocations per job and the check of each job.

A workload prepares its inputs from the seed (with `pinning`, the
inputs whose objectives pins.json should hold) and returns a list of
specs (each spec is one job: a list of `ksetsplus` argv lists run back
to back) and a checker. The checker takes one raw job record from the
worker and returns a Verdict. It recomputes what it can independently
of the program (the objective of the written partition, the accuracy
against the generated ground truth) and never trusts the program's own
report of success.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

K_SETS = 5
REL_TOL = 1e-9
SBM_ACCURACY_FLOOR = 0.95  # acceptance test c10's floor on the mean at p = 0.1


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    pin_key: str = ""
    objective: float = float("nan")
    accuracy: float = float("nan")
    entries: int = 0


@dataclass
class Prepared:
    specs: list[list[list[str]]]
    check: Callable[[dict, int], Verdict]  # (job record, spec index)
    # A check that cannot recompute the objective itself needs a pinned
    # value for every job; a job without one fails.
    needs_pin: bool = False
    # Floor on the mean accuracy over the specs (one round), if any.
    accuracy_floor: float | None = None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _steps_ok(record) -> str:
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    for step in record["steps"]:
        if step["code"] != 0:
            return f"{step['argv'][0]} exited {step['code']}: {step['stderr'].strip()}"
    return ""


def _read_partition(path: Path, n: int) -> np.ndarray:
    tokens = path.read_text(encoding="utf-8").split()
    labels = np.array(tokens[0::2], dtype=np.int64)
    if not np.array_equal(labels, np.arange(n)):
        raise ValueError(f"{path.name}: labels are not 0..{n - 1} in order")
    return np.array(tokens[1::2], dtype=np.int64)


def _cluster_output(record, step: int, workdir: Path, n: int):
    """(sidecar, assign, "") of the job's cluster step, or (None, None, reason)."""
    out = workdir / f"part-{record['job']}.tsv"
    if "converged=True" not in record["steps"][step]["stdout"]:
        return None, None, "cluster did not report converged=True"
    sidecar = json.loads(Path(str(out) + ".json").read_text(encoding="utf-8"))
    if sidecar.get("converged") is not True:
        return None, None, "sidecar has converged != true"
    return sidecar, _read_partition(out, n), ""


def sparse_edges(workdir: Path, seed: int, pinning: bool = False) -> Prepared:
    """`cluster` on a uniform random edge-list similarity, n=100k, m=1M."""
    n = inputs.SPARSE_N
    path = workdir / "edges.txt"
    i, j, v = inputs.sparse_edges(path, seed)
    step = [
        "cluster", "--input", str(path), "--n", str(n), "--kind", "similarity",
        "--k", str(K_SETS), "--seed", str(seed), "--restarts", "1",
        "--output", str(workdir / "part-{job}.tsv"),
    ]  # fmt: skip

    def check(record, spec: int) -> Verdict:
        reason = _steps_ok(record)
        if reason:
            return Verdict(False, reason)
        sidecar, assign, reason = _cluster_output(record, 0, workdir, n)
        if reason:
            return Verdict(False, reason)
        same = assign[i] == assign[j]
        per_set = np.bincount(assign[i[same]], weights=2.0 * v[same], minlength=K_SETS)
        expected = float(np.sum(per_set / np.bincount(assign, minlength=K_SETS)))
        if not close(sidecar["objective"], expected):
            return Verdict(False, f"objective {sidecar['objective']!r} != recomputed {expected!r}")
        return Verdict(
            True,
            pin_key=str(seed),
            objective=sidecar["objective"],
            accuracy=float(np.mean(same == (v > 0))),
            entries=sidecar["m"],
        )

    return Prepared([[step]], check)


def latency_dense(workdir: Path, seed: int, pinning: bool = False) -> Prepared:
    """`cluster` then `verify` on an asymmetric, triangle-violating RTT matrix."""
    n = inputs.LATENCY_N
    path = workdir / "latency.csv"
    raw, region = inputs.latency_csv(path, seed)
    d = (raw + raw.T) / 2.0  # what `--symmetrize` clusters
    n_grand_avg = float(d.sum()) / n
    shared = ["--input", str(path), "--format", "dense", "--kind", "distance", "--symmetrize"]
    part = str(workdir / "part-{job}.tsv")
    cluster = ["cluster", *shared, "--k", str(K_SETS), "--seed", str(seed), "--restarts", "3", "--output", part]
    verify = ["verify", *shared, "--partition", part]

    def check(record, spec: int) -> Verdict:
        reason = _steps_ok(record)
        if reason:
            return Verdict(False, reason)
        sidecar, assign, reason = _cluster_output(record, 0, workdir, n)
        if reason:
            return Verdict(False, reason)
        if "verification passed" not in record["steps"][1]["stdout"]:
            return Verdict(False, "verify did not pass")
        # sum_k gamma(S_k,S_k)/|S_k| under the induced cohesion reduces to
        # n * grand_avg(d) - sum_k d(S_k,S_k)/|S_k|.
        onehot = np.zeros((n, K_SETS))
        onehot[np.arange(n), assign] = 1.0
        within = np.diag(onehot.T @ d @ onehot)
        expected = n_grand_avg - float(np.sum(within / onehot.sum(axis=0)))
        if not close(sidecar["objective"], expected):
            return Verdict(False, f"objective {sidecar['objective']!r} != recomputed {expected!r}")
        return Verdict(
            True,
            pin_key=str(seed),
            objective=sidecar["objective"],
            accuracy=_pair_agreement(assign, region),
            entries=sidecar["m"],
        )

    return Prepared([[cluster, verify]], check)


def _pair_agreement(assign: np.ndarray, truth: np.ndarray) -> float:
    """Share of point pairs on which partition and truth agree about
    sameness (the Rand index)."""
    table = np.zeros((assign.max() + 1, truth.max() + 1))
    np.add.at(table, (assign, truth), 1.0)

    def pairs(counts):
        return float(np.sum(counts * (counts - 1) / 2.0))

    total = pairs(np.array([len(assign)]))
    both = pairs(table)
    disagree = pairs(table.sum(axis=1)) + pairs(table.sum(axis=0)) - 2.0 * both
    return (total - disagree) / total


def signed_sbm(workdir: Path, seed: int, pinning: bool = False) -> Prepared:
    """`sbm` at n=2000, c=10, p=0.1, k=2, 5 restarts, over graphs drawn
    from the pinned pool (over the whole pool when pinning)."""
    graph_seeds = inputs.sbm_graph_pool() if pinning else inputs.sbm_graph_seeds(seed)
    specs = [
        [[
            "sbm", "--n", "2000", "--c", "10", "--diff", "5", "--p", "0.1",
            "--k", "2", "--restarts", "5", "--seed", str(graph_seed),
        ]]
        for graph_seed in graph_seeds
    ]  # fmt: skip

    def check(record, spec: int) -> Verdict:
        reason = _steps_ok(record)
        if reason:
            return Verdict(False, reason)
        report = json.loads(record["steps"][0]["stdout"])
        if report["converged"] is not True:
            return Verdict(False, "sbm reported converged != true")
        return Verdict(
            True,
            pin_key=str(graph_seeds[spec]),
            objective=report["objective"],
            accuracy=report["edge_accuracy"],
            entries=2 * report["edges"],
        )

    # `sbm` writes no partition, so its objective cannot be recomputed
    # here: every graph comes from the pinned pool instead.
    return Prepared(specs, check, needs_pin=not pinning, accuracy_floor=SBM_ACCURACY_FLOOR)


WORKLOADS = {
    "sparse_edges": sparse_edges,
    "latency_dense": latency_dense,
    "signed_sbm": signed_sbm,
}
