"""Benchmark of fqec: four workloads, end-to-end metrics, a traced per-layer run.

Usage, from the root of the repository::

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Workloads (each stresses a different stage; see ``BENCHMARK.json``):

* ``search``   -- the unbudgeted criterion-10 brute-force search, streamed
  and written as ``fqec search --w-max 3`` does; DFS candidate enumeration.
* ``deform``   -- the Clifford deformation of ``tests/data/d2_nn_square.json``
  at sequence length 4; validation plus many shallow distance calls.
* ``distance`` -- ``min_distance`` at ``w_max`` 4 on full-rank stabilizer
  groups on 27 and 36 slots, where every weight is scanned in full.
* ``export``   -- ``fqec export`` of eight deformed fixtures; greedy
  planarity checks of the connectivity graphs.

Each pass runs in a fresh process (``worker.py``) with one worker, the CLI
default.  A run repeats passes until the next one would end after
``--seconds`` (at least two), then reports medians: ``wall_s`` of a pass,
``setup_s`` (importing fqec and loading the inputs with its own loaders,
sampled in every pass and in extra set-up-only processes) and the peak
resident memory of a pass process.  With ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer numbers of the traced
ones (``tracing.py``), the search's time to its first streamed encoding and
the tracing overhead.

Every pass's outputs are checked (``checks.py``) and hashed; all passes of
one invocation must produce the same bytes and work counters.  Stdout ends
with a detail line (environment, passes, digests, counters, check failures
and ``error_ratio``) and then the result line::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``--smoke`` shrinks every workload to a few seconds, for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("search", "deform", "distance", "export")
MIN_PASSES = 2
SETUP_PER_PASS = 3
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_unit(name: str) -> str:
    if "per_s" in name:
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_cover")):
        return "ratio"
    return "count"


def environment(root: str) -> dict:
    """Revision, interpreter, library versions, CPUs and load of this run."""
    import networkx

    revision = None  # a checkout without .git has none; src_sha256 still names the code
    try:
        toplevel, head = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if os.path.realpath(toplevel) == os.path.realpath(root):
            revision = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "fqec")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu_model = models[0] if models else None
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
    }


def run_worker(workdir: str, *, trace: bool = False, setup_only: bool = False) -> dict:
    """One pass (or set-up only) in a fresh process; its JSON record."""
    cmd = [sys.executable, WORKER, workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["fqec_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"pass imported fqec from {record['fqec_file']}, not from this checkout")
    record["traced"] = trace
    return record


def check_pass(log: checks.CheckLog, spec: dict, record: dict, euler: list[int] | None) -> None:
    """Check one pass's outputs and attach their digest to its record."""
    outputs = spec["outputs"]
    workload = spec["workload"]
    if workload in ("search", "deform"):
        checks.check_stream(log, outputs["stream"], spec["min_distance"])
        checks.check_front(log, outputs["front"])
        log.check(record["first_result_s"] is not None, "no encoding reached the stream")
    elif workload == "distance":
        checks.check_distance(log, outputs["results"], spec["w_max"])
    else:
        checks.check_csv(log, outputs["csv"], euler)
    record["digest"] = checks.output_digest([outputs[k] for k in sorted(outputs)])


def check_repeats(log: checks.CheckLog, passes: list[dict]) -> None:
    """Every pass of one invocation gives the first pass's bytes and counters."""
    first = passes[0]
    for index, record in enumerate(passes[1:], start=1):
        log.check(record["digest"] == first["digest"], f"pass {index}: output digest differs")
        log.check(record["counters"] == first["counters"], f"pass {index}: work counters differ")
    traced = [p for p in passes if p["traced"]]
    for index, record in enumerate(traced[1:], start=1):
        log.check(
            record["span_counters"] == traced[0]["span_counters"],
            f"traced pass {index}: span counters differ",
        )


def trace_pass(log: checks.CheckLog, workdir: str, workload: str, record: dict) -> dict[str, float]:
    """Check one traced pass's spans and return its per-layer numbers."""
    with open(os.path.join(workdir, "spans.json"), "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    rows = tracing.span_table(trace)
    problems = tracing.check_trace(rows, record["pass_start"], record["pass_end"])
    log.check(not problems, f"inconsistent trace: {problems}")
    metrics = tracing.layer_metrics(rows, workload, record["counters"])
    record["root_cover"] = tracing.root_cover(rows, record["pass_start"], record["pass_end"])
    record["missing_targets"] = trace["missing"]
    record["span_counters"] = {k: v for k, v in metrics.items() if per_layer_unit(k) == "count"}
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fqec", "__init__.py")):
        raise BenchError(f"no fqec package under {src}")
    sys.path.insert(0, src)
    import fqec

    if not os.path.abspath(fqec.__file__).startswith(src + os.sep):
        raise BenchError(f"imported fqec from {fqec.__file__}, not from {src}")
    env = environment(ROOT)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        spec = inputs.write_inputs(ROOT, workload, seed, smoke, workdir)
        euler = checks.euler_bounds(spec["front"]) if workload == "export" else None
        log = checks.CheckLog()
        run_worker(workdir, setup_only=True)  # warm the bytecode and file caches
        passes: list[dict] = []
        layers: list[dict[str, float]] = []
        setups: list[float] = []
        kinds = (False, True) if trace else (False,)  # a traced run repeats pairs
        start = time.perf_counter()
        while True:
            if not trace:
                # Set-up samples spread over the whole run: the machine's
                # speed drifts within seconds, so a median of samples taken
                # in one burst would reflect one moment.
                for _ in range(SETUP_PER_PASS):
                    setups.append(run_worker(workdir, setup_only=True)["setup_s"])
            for traced in kinds:
                record = run_worker(workdir, trace=traced)
                check_pass(log, spec, record, euler)
                if traced:
                    layers.append(trace_pass(log, workdir, workload, record))
                else:
                    setups.append(record["setup_s"])
                passes.append(record)
            units = len(passes) // len(kinds)
            elapsed = time.perf_counter() - start
            if units >= (1 if trace else MIN_PASSES) and elapsed * (units + 1) / units > seconds:
                break
        check_repeats(log, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    if trace:
        metrics = tracing.median_metrics(layers)
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        # Time to the first streamed encoding, from the untraced passes; only
        # the search has a first result far enough from its start to time.
        metrics["search_bruteforce.first_result_s"] = (
            statistics.median(p["first_result_s"] for p in plain) if workload == "search" else 0.0
        )
        metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
        metrics["trace.root_cover"] = statistics.median(p["root_cover"] for p in passes if p["traced"])
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env["loadavg_end"] = os.getloadavg()
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "environment": env,
        "error_ratio": log.error_ratio,
        "failures": log.failures[:20],
        "digest": passes[0]["digest"],
        "counters": passes[0]["counters"],
        "setup_samples": setups,
        "passes": [
            {k: v for k, v in p.items() if k not in ("fqec_file", "pass_start", "pass_end")}
            for p in passes
        ],
    }
    return result, detail


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few-second sizes for the tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
