"""qicsim benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload qudit-capsule|lattice-chain|cli-paper|all \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (child.py) pinned to one core
with one BLAS thread.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported, with --trace 1 its per-layer metrics.  The last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"};
a fuller record goes to .bench_out/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SOURCE_DIR = ROOT / "src" / "qicsim"
RESULTS_DIR = ROOT / ".bench_out" / "results"
WORKLOAD_NAMES = tuple(WORKLOADS)
# Set-up is timed in this many fresh processes and reported as the median.
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list, timeout: float) -> dict:
    """Run child.py with args; return its JSON result.

    The child gets its own process group so that a timeout stops the CLI
    processes it started as well.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), *args,
                             "--t0", repr(t0)],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child {args[:2]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:2]} printed no result")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count()}


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def layer_value(name: str, layers: dict, import_s: list) -> float:
    """A per-layer metric from the traced child's per-op span summary.

    <span>.self_s, .calls, .wall_s are per-op figures; <span>.peak_mb is the
    largest allocation peak of one call.  A span that never ran reads 0.
    """
    if name == "cli.import_s":
        return statistics.median(import_s)
    span, _, kind = name.rpartition(".")
    entry = layers.get(span)
    if entry is None:
        return 0.0
    if kind == "peak_mb":
        return entry["peak_bytes"] / 2.0 ** 20
    return entry[kind]


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    started = time.monotonic()
    base = ["--workload", name, "--seed", str(seed)]
    setups = [spawn(base + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    child = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], remaining)
    setups.append(child["setup_s"])
    durations = child["durations"]
    ops_per_s = len(durations) / sum(durations)

    if trace:
        entries = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], child["layers"], child["import_s"])
                  for m in entries}
    else:
        entries = spec["end_to_end"]
        measured = {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s,
                    "op_p50_s": statistics.median(durations),
                    "peak_rss_mb": child["peak_rss_mb"]}
        values = {m["name"]: measured[m["name"]] for m in entries}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics, "setup_samples": setups,
              "durations": durations, "ops_per_s": ops_per_s, "cpu": child["cpu"],
              "peak_rss_mb": child["peak_rss_mb"], "environment": environment()}
    if trace:
        uneven = sorted(span for span, entry in child["layers"].items()
                        if len(set(entry["by_op"])) > 1)
        if uneven:
            print(f"{name}: call counts differ between ops for {uneven}", file=sys.stderr)
        result.update(spans_file=child["spans_file"], calls_differ_between_ops=uneven,
                      import_s=child["import_s"])
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SOURCE_DIR / "__init__.py").is_file():
        print(f"error: no qicsim sources under {SOURCE_DIR}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, spec))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in results:
        print(f"{r['workload']}: attempted {r['attempted']}, failed {r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{metric}": m
                   for r in results for metric, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
