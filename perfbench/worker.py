"""Job runner: the one process that does the measured work.

Started by run.py in a fresh interpreter with the package under test on
PYTHONPATH, so its peak memory holds the program's work and not the
input generation. It reads a plan (JSON) naming the jobs and the time
budget, runs the jobs in-process through `ksetsplus.cli.main`, and
writes the raw samples back as JSON. It judges nothing: run.py checks
every job's outputs. It times the reference loop (reference.py) before
the first job and after every job, so each job is bracketed by two
reference samples.

Usage: python3 worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from reference import reference_s


def run_job(main, steps, job: int, tracer=None) -> dict:
    """Run one job's CLI invocations back to back; time the whole job."""
    argvs = [[arg.format(job=job) for arg in step] for step in steps]
    record = {"job": job, "steps": []}
    gc.collect()
    try:
        if tracer is None:
            start = time.perf_counter()
            for argv in argvs:
                record["steps"].append(_call(main, argv))
            record["seconds"] = time.perf_counter() - start
        else:
            tracer.reset_job()
            with tracer.installed(), tracer.span("job"):
                for argv in argvs:
                    with tracer.span("cli.main"):
                        record["steps"].append(_call(main, argv))
            layers = tracer.metrics()
            record["seconds"] = layers["trace.job_s"]
            record["layers"] = layers
            record["spans"] = tracer.spans
    except Exception:  # a crashing job is a failed job, not a crashed run
        record["error"] = traceback.format_exc()
    return record


def _call(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def peak_rss_kib() -> int:
    """Peak resident memory of this process since it exec'd. getrusage's
    ru_maxrss would do on its own, but on Linux it also carries over the
    resident size of the parent at fork, which holds the generated
    inputs; VmHWM belongs to this process image only."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import ksetsplus
    import ksetsplus.cli
    import ksetsplus.engine
    import ksetsplus.io

    package = Path(ksetsplus.__file__).resolve().parent
    if package != Path(plan["package"]).resolve():
        print(f"worker: imported ksetsplus from {package}, expected {plan['package']}", file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer({"cli": ksetsplus.cli, "engine": ksetsplus.engine, "io": ksetsplus.io})

    # One round runs every spec once (untraced, then traced in trace mode).
    # Rounds repeat while the next one is expected to end within budget,
    # so every spec gets the same number of samples.
    jobs: list[str] = []
    budget = plan["seconds"]
    start = time.perf_counter()
    ref_before = reference_s()
    while True:
        round_start = time.perf_counter()
        for spec_index, steps in enumerate(plan["specs"]):
            for traced in ([False, True] if tracer else [False]):
                record = run_job(ksetsplus.cli.main, steps, len(jobs), tracer if traced else None)
                ref_after = reference_s()
                record["spec"] = spec_index
                record["traced"] = traced
                record["ref_s"] = [ref_before, ref_after]
                ref_before = ref_after
                # Serialise at once: small objects kept alive between jobs
                # pin allocator arenas that the next job would reuse, and
                # peak memory then grows with the number of jobs run.
                jobs.append(json.dumps(record))
        now = time.perf_counter()
        if now - start + (now - round_start) > budget:
            break
    peak_kib = peak_rss_kib()
    measured_s = time.perf_counter() - start
    result = {"jobs": [json.loads(j) for j in jobs], "peak_rss_mb": peak_kib / 1024, "measured_s": measured_s}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
