"""ksetsplus benchmark: one workload, one seed, one line of JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse_edges --seed 1 --seconds 30 --trace 0

Steps: pin the environment; time `import ksetsplus.cli` in fresh
interpreters (setup_s); generate the workload's inputs from the seed in
this process; hand the jobs to worker.py, a fresh interpreter that runs
them through `ksetsplus.cli.main` for --seconds; check every job; print
the metrics. Times are rescaled to the speed of a reference loop timed
around each sample (reference.py), because the host's own speed drifts. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones from a traced run. Details (environment, every sample,
the spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import at_reference_speed, reference_s
from workloads import WORKLOADS, Verdict, close

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ksetsplus"
OUT = HERE / "out"
PINS = HERE / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # metric names and units
SETUP_SAMPLES = 9
# A run must end within 180 s; keep the worker well inside that.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def pinned_env() -> dict:
    """Worker environment: the package under test first on the path, one
    BLAS/OpenMP thread (at most nproc), fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def describe_env(env: dict) -> dict:
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "load_processes": 1,
        "machine": platform.machine(),
    }


def time_setup(env: dict) -> float:
    """Seconds from spawning a fresh interpreter to `ksetsplus.cli` imported."""
    code = "import ksetsplus.cli; print('ready', flush=True)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"importing ksetsplus.cli failed (exit {proc.returncode})")
    return ready - start


def run_worker(env: dict, plan: dict, workdir: Path, deadline: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=env, cwd=ROOT, timeout=max(1.0, deadline - time.perf_counter()),
        )  # fmt: skip
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge(jobs: list[dict], prepared, pins: dict) -> list:
    """Verdict per job: its own check, the pin for its key, agreement with
    the first job of the same spec and, where the workload sets one, the
    floor on the mean accuracy over its specs."""
    first: dict[int, Verdict] = {}
    verdicts = []
    for record in jobs:
        try:
            verdict = prepared.check(record, record["spec"])
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            verdict = Verdict(False, f"output unreadable: {exc!r}")
        if verdict.ok:
            pinned = pins.get(verdict.pin_key)
            earlier = first.setdefault(record["spec"], verdict)
            if pinned is None and prepared.needs_pin:
                verdict.ok, verdict.reason = False, f"no pinned objective for key {verdict.pin_key}"
            elif pinned is not None and not close(verdict.objective, pinned):
                verdict.ok, verdict.reason = False, f"objective {verdict.objective!r} != pinned {pinned!r}"
            elif not (close(verdict.objective, earlier.objective) and close(verdict.accuracy, earlier.accuracy)):
                verdict.ok, verdict.reason = False, "objective or accuracy differs between jobs"
        verdicts.append(verdict)
    if prepared.accuracy_floor is not None and first:
        mean = statistics.fmean(v.accuracy for v in first.values())
        for verdict in verdicts:
            if verdict.ok and mean < prepared.accuracy_floor:
                verdict.ok, verdict.reason = False, f"mean accuracy {mean} < {prepared.accuracy_floor}"
    return verdicts


def best_per_spec(jobs, verdicts, traced: bool) -> dict[int, dict]:
    """Fastest passing job of each spec."""
    best: dict[int, dict] = {}
    for record, verdict in zip(jobs, verdicts):
        if record["traced"] != traced or not verdict.ok:
            continue
        if record["spec"] not in best or record["seconds"] < best[record["spec"]]["seconds"]:
            best[record["spec"]] = record
    return best


def end_to_end(jobs, verdicts, setup, result) -> dict:
    """Medians over the passing untraced jobs of the run (the specs of a
    workload are jobs of one size), each job rescaled to reference speed,
    plus the per-spec outputs averaged."""
    passing = [(r, v) for r, v in zip(jobs, verdicts) if v.ok and not r["traced"]]
    job_s = [at_reference_speed(r["seconds"], r["ref_s"]) for r, _ in passing]
    per_spec = {r["spec"]: v for r, v in passing}
    return {
        "job_s": statistics.median(job_s),
        "entries_per_s": statistics.median(v.entries / s for (_, v), s in zip(passing, job_s)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "objective": statistics.fmean(v.objective for v in per_spec.values()),
        "edge_accuracy": statistics.fmean(v.accuracy for v in per_spec.values()),
    }


def per_layer(jobs, verdicts) -> dict:
    """Layer metrics of each spec's fastest traced job, averaged over specs."""
    traced = best_per_spec(jobs, verdicts, traced=True)
    plain = best_per_spec(jobs, verdicts, traced=False)
    rows = []
    for spec, record in traced.items():
        row = dict(record["layers"])
        row["trace.overhead_s"] = record["seconds"] - plain[spec]["seconds"]
        ops = row["engine.ops_delta"] + row["engine.ops_update"]
        row["engine.move_ratio"] = row["engine.moves"] / max(1, row["engine.points_evaluated"])
        row["engine.ns_per_op"] = row["engine.pass_s"] * 1e9 / max(1, ops)
        rows.append(row)
    return {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def record_pins(workload: str, verdicts):
    pins = load_pins()
    table = pins.setdefault(workload, {})
    for verdict in verdicts:
        table.setdefault(verdict.pin_key, verdict.objective)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-pins", action="store_true", help="pin the objectives of this seed (of the whole graph pool on signed_sbm) if all jobs pass")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"package source not found at {PACKAGE}")

    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        # Each set-up sample is bracketed by reference samples, and set-up is
        # sampled before and after the jobs, so that its median does not
        # hang on the host's speed at one moment.
        raw_setup, setup = [], []

        def sample_setup(count: int):
            before = reference_s()
            for _ in range(count):
                raw_setup.append(time_setup(env))
                after = reference_s()
                setup.append(at_reference_speed(raw_setup[-1], [before, after]))
                before = after

        sample_setup(SETUP_SAMPLES // 2)
        prepared = WORKLOADS[args.workload](workdir, args.seed, pinning=args.record_pins)
        plan = {
            "package": str(PACKAGE),
            "seconds": args.seconds,
            "trace": args.trace,
            "specs": prepared.specs,
        }
        result = run_worker(env, plan, workdir, started + WORKER_TIMEOUT_S)
        sample_setup(SETUP_SAMPLES - len(setup))
        verdicts = judge(result["jobs"], prepared, load_pins().get(args.workload, {}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not v.ok for v in verdicts)
    if failed == 0 and args.record_pins:
        record_pins(args.workload, verdicts)
    if failed:
        metrics = {}
    elif args.trace:
        metrics = per_layer(result["jobs"], verdicts)
    else:
        metrics = end_to_end(result["jobs"], verdicts, setup, result)
    listed = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed} if metrics else {},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": describe_env(env),
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "measured_s": result["measured_s"],
        "jobs": [
            {
                "spec": r["spec"], "traced": r["traced"], "seconds": r.get("seconds"), "ref_s": r["ref_s"],
                "ok": v.ok, "reason": v.reason, "objective": v.objective, "accuracy": v.accuracy,
                "layers": r.get("layers"), "spans": r.get("spans"),
            }
            for r, v in zip(result["jobs"], verdicts)
        ],
        "result": line,
    }  # fmt: skip
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for r, v in zip(result["jobs"], verdicts):
        if not v.ok:
            print(f"job {r['job']} (spec {r['spec']}) failed: {v.reason}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
