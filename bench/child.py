"""One workload in one fresh process: set-up, then a closed loop of ops.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --t0 T [--setup-only]

run.py starts this with T = time.monotonic() read just before the spawn, so
setup_s covers interpreter start, imports and input generation.  The process
pins itself to one core.  Its last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
IMPORT_PROBES = 3


def pin_one_core() -> int:
    """Restrict this process (and what it starts) to the highest allowed core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_loop(workload, seconds: float, tracer=None, log=sys.stderr) -> dict:
    """Closed loop: op k + 1 starts only after op k and its check finish.

    Op 0 warms caches and lazy set-up: it is checked and counted as attempted
    but not timed.  The loop ends once the timed ops add up to `seconds`.
    Checks run outside the timed part.  An op fails when it raises or when
    its check reports a problem.
    """
    durations = []
    timed = 0.0
    failed = 0
    k = 0
    while True:
        span = None
        if tracer is not None:
            tracer.op = k
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            out = workload.op(k)
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
            tracer.op = None
        if error is None:
            try:
                problems = workload.check(k, out)
            except Exception as exc:  # unreadable output fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            failed += 1
            print(f"{workload.name} op {k} failed: " + "; ".join(problems[:5]), file=log)
        if k > 0:
            durations.append(elapsed)
            timed += elapsed
        k += 1
        if timed >= seconds:
            return {"attempted": k, "failed": failed, "durations": durations}


def import_probe(repeats: int = IMPORT_PROBES) -> list:
    """Seconds to import qicsim.cli, each time in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import qicsim.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                                 capture_output=True, text=True).stdout)
            for _ in range(repeats)]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cpu = pin_one_core()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    importlib.import_module(cls.imports)
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workload = cls(args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "cpu": cpu}
    if args.setup_only:
        workload.close()
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    try:
        result.update(run_loop(workload, args.seconds, tracer))
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        from tracer import per_op_summary

        spans_dir = OUT_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["layers"] = per_op_summary(tracer.records(), range(1, result["attempted"]))
        result["import_s"] = import_probe()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
