"""Command-line surface.

Subcommands: cluster, verify, bench, sbm, sweep, geo. All randomness
flows from --seed, so identical invocations produce identical primary
outputs (bench timings excepted). Exit codes: 0 success, 1 verification
failure, 2 input error, 3 invalid parameter.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .engine import RunConfig, _converge, init_state, random_balanced_partition, run
from .errors import (
    ArityMismatch,
    InvalidProbability,
    KOutOfRange,
    KsetsError,
)
from .experiments import (
    SbmParams,
    accuracy_sweep,
    edge_accuracy,
    haversine_matrix,
    random_sparse_similarity,
    sbm_generate,
    similarity_from_signed,
)
from .measure import DataSet, Partition

# No command calls induced_cohesion: run() clusters a distance as -d.
# The name stays importable here because perfbench/spans.py wraps
# cli.induced_cohesion by name in every traced job, and counts its calls.
from .transforms import induced_cohesion  # noqa: F401
from .verify import pairwise_isolation_check

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_PARAM = 3

# glibc's mallopt parameter, and the size from which a block is mapped on
# its own: numpy's huge-page threshold, below every n^2 table and CSR array
# of the 1000-host and 100,000-point benchmark inputs.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20


@functools.cache
def _fix_mmap_threshold() -> None:
    """Map every block of _MMAP_THRESHOLD bytes or more on its own, once
    per process; a no-op where the C library has no mallopt.

    glibc raises its mmap threshold to the size of each large block freed,
    so after the first command a table or CSR array of a few MB comes from
    the brk heap, which keeps what it grew. Whether the next one's arrays fit
    in the holes then hangs on where small blocks (output strings, n-sized
    arrays) landed, so the same cluster-and-verify job on a 1000-host
    matrix peaked at 60, 67 or 75 MiB in identical processes. A fixed
    threshold unmaps each large array when it is freed, so peak memory is
    the arrays alive at once.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _load_measure(args):
    if args.format == "edges":
        return io.load_edge_list(args.input, kind=args.kind, n=args.n)
    return io.load_dense_csv(
        args.input,
        kind=args.kind,
        header=args.header,
        average_asymmetric=args.symmetrize,
    )


def _run_config(args) -> RunConfig:
    return RunConfig(
        k=args.k, seed=args.seed, restarts=args.restarts, max_passes=args.max_passes
    )


def _write_cluster_output(args, dataset: DataSet, result, extra=None):
    partition = result.partition.relabel_by_first_occurrence()
    io.write_partition_tsv(args.output, dataset, partition.assign)
    sidecar = {
        "schema": 1,
        "objective": result.objective,
        "passes": result.passes,
        "restarts": args.restarts,
        "converged": result.converged,
        "k": partition.k,
        "seed": args.seed,
        "n": dataset.n,
    }
    if extra:
        sidecar.update(extra)
    Path(str(args.output) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_cluster(args) -> int:
    measure, dataset = _load_measure(args)
    result = run(measure, _run_config(args))
    _write_cluster_output(args, dataset, result, extra={"m": measure.m})
    print(
        f"clustered {dataset.n} points into {args.k} sets: "
        f"objective={result.objective:.6g} passes={result.passes} "
        f"converged={result.converged}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    measure, dataset = _load_measure(args)
    labels, raw_assign = io.read_partition_tsv(args.partition)
    if len(raw_assign) != dataset.n:
        raise ArityMismatch(
            f"partition has {len(raw_assign)} rows, measure has {dataset.n} points"
        )
    for i, label in enumerate(labels):
        if label != dataset.label(i):
            raise ArityMismatch(
                f"partition row {i + 1} is labeled {label!r}, "
                f"point {i} is {dataset.label(i)!r}"
            )
    # Any integer ids: renumber them 0..K-1 before ordering the sets.
    ids = np.unique(raw_assign, return_inverse=True)[1]
    partition = Partition.from_assign(ids).relabel_by_first_occurrence()
    report = pairwise_isolation_check(measure, partition)
    if report.sigma_used is not None:
        print(f"sigma_used\t{report.sigma_used!r}")
    print("pairwise isolation slack matrix:")
    for row in report.slack:
        print("\t".join(f"{v:.6g}" for v in row))
    print(f"min_slack\t{report.min_slack!r}")
    if report.ok():
        print("verification passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAIL


def cmd_bench(args) -> int:
    # Every parameter is checked before the first graph is drawn.
    for n in args.n_list:
        RunConfig(k=args.k, seed=args.seed, max_passes=args.max_passes).validate(n)
    if not (np.isfinite(args.avg_degree) and args.avg_degree >= 0.0):
        raise InvalidProbability(
            f"avg_degree={args.avg_degree} must be finite and >= 0"
        )
    print("n\tm\tpasses\twall_time\ttime_per_pass_per_kn_plus_m")
    for n in args.n_list:
        g = random_sparse_similarity(n, args.avg_degree, seed=args.seed)
        state = init_state(g, random_balanced_partition(n, args.k, args.seed))
        start = time.perf_counter()
        passes = len(_converge(state, args.max_passes)[1])
        elapsed = time.perf_counter() - start
        unit = args.k * n + g.m
        per_pass = elapsed / passes
        print(f"{n}\t{g.m}\t{passes}\t{elapsed:.4f}\t{per_pass / unit:.3e}")
    return EXIT_OK


def cmd_sbm(args) -> int:
    if args.k != 2:
        raise KOutOfRange(f"edge accuracy is defined for k=2, got k={args.k}")
    params = SbmParams(n=args.n, c=args.c, diff=args.diff, p=args.p, seed=args.seed)
    config = _run_config(args)
    # Every setting is checked before the graph is drawn, probabilities first.
    params.probabilities()
    config.validate(args.n)
    graph = sbm_generate(params)
    if args.out_graph:
        io.write_signed_edges(args.out_graph, graph)
    similarity = similarity_from_signed(graph)
    result = run(similarity, config)
    accuracy = edge_accuracy(graph, result.partition, reference=args.reference)
    print(
        json.dumps(
            {
                "n_surviving": graph.n,
                "edges": graph.n_edges,
                "objective": result.objective,
                "passes": result.passes,
                "converged": result.converged,
                "edge_accuracy": accuracy,
                "reference": args.reference,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    p_grid = _parse_grid(args.p_grid)
    rows = accuracy_sweep(
        n=args.n,
        c_list=args.c_list,
        p_grid=p_grid,
        graphs_per_point=args.graphs,
        seed=args.seed,
        diff=args.diff,
        restarts=args.restarts,
        reference=args.reference,
    )
    if args.output == "-":
        io.write_sweep_tsv(sys.stdout, rows)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            io.write_sweep_tsv(fh, rows)
    return EXIT_OK


def cmd_geo(args) -> int:
    points, dataset = io.load_geo_csv(args.points)
    result = run(haversine_matrix(points), _run_config(args))
    _write_cluster_output(args, dataset, result)
    print(
        f"clustered {dataset.n} locations into {args.k} sets: "
        f"objective={result.objective:.6g}"
    )
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    """Either a comma list `0.1,0.2` or a range `start:stop:step` (inclusive)."""
    if ":" in spec:
        start, stop, step = (float(s) for s in spec.split(":"))
        if not (np.isfinite([start, stop]).all() and 0.0 < step < np.inf):
            raise ValueError(f"grid {spec!r} needs finite bounds and a positive step")
        out = []
        value = start
        while value <= stop + 1e-12:
            out.append(round(value, 10))
            if value + step == value:
                raise ValueError(
                    f"grid {spec!r}: step {step!r} does not advance past {value!r}"
                )
            value += step
        if not out:
            raise ValueError(f"grid {spec!r} is empty: start is above stop")
        return out
    return [float(s) for s in spec.split(",")]


def _int_list(spec: str) -> list[int]:
    return [int(s) for s in spec.split(",")]


def _float_list(spec: str) -> list[float]:
    return [float(s) for s in spec.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksetsplus",
        description="K-sets+ clustering for sparse symmetric measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_args(p, kinds):
        p.add_argument("--input", required=True, help="input measure file")
        p.add_argument("--format", choices=["edges", "dense"], default="edges")
        p.add_argument("--kind", choices=kinds, default=kinds[0])
        p.add_argument("--header", action="store_true", help="dense CSV has a label header row")
        p.add_argument("--n", type=int, default=None, help="point count override for edge lists")
        p.add_argument("--symmetrize", action="store_true", help="average a dense asymmetric matrix with its transpose")

    def add_run_args(p):
        p.add_argument("--k", type=int, required=True, help="number of sets")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=1)
        p.add_argument("--max-passes", type=int, default=100, dest="max_passes")

    p = sub.add_parser("cluster", help="partition a measure file")
    add_measure_args(p, ["similarity", "distance"])
    add_run_args(p)
    p.add_argument("--output", required=True, help="partition TSV; a .json sidecar is written next to it")

    p = sub.add_parser("verify", help="check pairwise isolation of a partition")
    add_measure_args(p, ["similarity", "distance", "cohesion"])
    p.add_argument("--partition", required=True, help="partition TSV to verify")

    p = sub.add_parser("bench", help="linear-scaling timing table")
    p.add_argument("--n-list", type=_int_list, default=[10000, 20000], dest="n_list")
    p.add_argument("--avg-degree", type=float, default=10.0, dest="avg_degree")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-passes", type=int, default=100, dest="max_passes")

    p = sub.add_parser("sbm", help="one signed two-block benchmark run")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--c", type=float, default=10.0)
    p.add_argument("--diff", type=float, default=5.0)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-passes", type=int, default=100, dest="max_passes")
    p.add_argument("--reference", choices=["truth", "observed"], default="truth")
    p.add_argument("--out-graph", default=None, dest="out_graph")

    p = sub.add_parser("sweep", help="edge-accuracy table over (c, p) cells")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--diff", type=float, default=5.0)
    p.add_argument("--c-list", type=_float_list, default=[6.0, 8.0, 10.0], dest="c_list")
    p.add_argument("--p-grid", default="0.01:0.2:0.01", dest="p_grid", help="comma list or start:stop:step")
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--reference", choices=["truth", "observed"], default="truth")
    p.add_argument("--output", default="-", help="TSV path or - for stdout")

    p = sub.add_parser("geo", help="cluster labeled lat/lon points")
    p.add_argument("--points", required=True, help="CSV of label,lat,lon")
    add_run_args(p)
    p.add_argument("--output", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each format reads only its own flags; a flag it would ignore is an error.
    fmt = getattr(args, "format", None)
    if fmt == "dense" and args.n is not None:
        parser.error("--n applies to --format edges only")
    for flag in ("header", "symmetrize"):
        if fmt == "edges" and getattr(args, flag):
            parser.error(f"--{flag} applies to --format dense only")
    _fix_mmap_threshold()
    try:
        # Found by name at each call, so a replaced cmd_* is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (KOutOfRange, InvalidProbability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except (KsetsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # The input is too large for this machine; exit 1 would read as a
        # failed verification.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
