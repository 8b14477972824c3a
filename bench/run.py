"""hypharm benchmark: seeded CLI job mixes, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
a traced re-run of the same jobs.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import harness
import workloads

SETUP_SAMPLES = 5
OUT = Path(__file__).resolve().parent / "out"
WORKER = Path(__file__).resolve().with_name("worker.py")
# Every worker of a run is killed this long after the run started.
TIMEOUT_S = 170
# Time of harness.calibrate() on the development machine when it ran fast
# (2 vCPUs, Python 3.11, numpy 2.4 with single-threaded OpenBLAS).  Times are
# reported at this reference speed: each raw time is divided by the kernel
# time measured next to it over this constant, so that the shared host's
# speed drifting (by up to 60%) does not read as a change of hypharm.  Raw
# values go to the result file.
KERNEL_REF_S = 0.0065
# Kernel times on each side of a job that set its speed (about 1 s each way).
WINDOW = 2


def _env() -> dict:
    env = dict(os.environ)
    for k in harness.BLAS_ENV:
        env[k] = harness.BLAS_THREADS
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process; return (set-up seconds, its result).

    The worker is killed at ``deadline`` (a ``perf_counter`` time), so that
    a hung job cannot keep the benchmark running.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + args,
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=harness.ROOT,
    )
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.  Job
    times cluster by job shape, so a single order statistic jumps between
    clusters from run to run; this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(u) + (b - 1) * math.log(1 - u)
            for u in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _failures(result: dict) -> list[dict]:
    return [j for j in result["jobs"] if j["error"]]


def _speed(kernel: list[float]) -> float:
    """How many times slower than the reference the host ran the kernel."""
    return statistics.median(kernel) / KERNEL_REF_S


def _scaled_times(result: dict) -> tuple[list[float], float]:
    """Job times at reference speed, and the loop wall time at that speed.

    Each job is scaled by the kernel times taken around it, because the
    host's speed changes within a run too.
    """
    kernel = result["kernel_s"]
    times = []
    for job in result["jobs"]:
        i = max(job["k"], 0)
        times.append(job["s"] / _speed(kernel[max(0, i - WINDOW): i + WINDOW + 1]))
    raw = sum(j["s"] for j in result["jobs"])
    return times, result["wall_s"] * sum(times) / raw


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict, dict]:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    setup, res = _worker(common, deadline)
    probes.append((setup, {"kernel_s": res["setup_kernel_s"]}))
    setups = [s / _speed(r["kernel_s"]) for s, r in probes]
    times, wall = _scaled_times(res)
    bad = _failures(res)
    passed = len(times) - len(bad)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (passed / wall, "jobs/s", len(times)),
        "job_p50_s": (_quantile(times, 0.5), "s", len(times)),
        "job_p90_s": (_quantile(times, 0.9), "s", len(times)),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", 1),
        "fail_frac": (len(bad) / len(times), "ratio", len(times)),
    }
    raw_times = [j["s"] for j in res["jobs"]]
    counts = {"attempted": len(times), "failed": len(bad), "errors": bad[:5],
              "speed": _speed(res["kernel_s"]),
              "raw": {"setup_s": statistics.median(s for s, _ in probes),
                      "jobs_per_s": passed / res["wall_s"],
                      "job_p50_s": _quantile(raw_times, 0.5),
                      "job_p90_s": _quantile(raw_times, 0.9)}}
    return metrics, res, counts


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> tuple[dict, dict, dict]:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    _, plain = _worker(common, deadline)
    n = len(plain["jobs"])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    _, traced = _worker(common + ["--max-jobs", str(n), "--trace-out", str(spans)], deadline)
    _, plain_wall = _scaled_times(plain)
    _, traced_wall = _scaled_times(traced)
    speed = traced["wall_s"] / traced_wall
    metrics = {k: (v / speed if unit == "s/job" else v, unit, n)
               for k, (v, unit) in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (1 - plain_wall / traced_wall, "ratio", n)
    failed = {i for r in (plain, traced) for i, j in enumerate(r["jobs"]) if j["error"]}
    counts = {"attempted": n, "failed": len(failed),
              "errors": (_failures(plain) + _failures(traced))[:5],
              "speed": speed, "self_sum_error_s": traced["self_sum_error_s"]}
    return metrics, traced, counts


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    metrics, res, counts = (per_layer if trace else end_to_end)(workload, seed, seconds,
                                                                deadline)
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": res["env"], **counts,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"== {workload} (seed {seed}, {counts['attempted']} jobs, "
          f"{counts['failed']} failed, host speed factor {counts['speed']:.3f})")
    for k, (v, u, n) in metrics.items():
        print(f"  {k:<42} {v:>14.6g} {u:<10} n={n}")
    for e in counts["errors"]:
        print(f"  FAILED {' '.join(e['argv'])}: {e['error']}")
    print(f"  env {json.dumps(res['env'])}")
    return metrics, counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.POOLS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        harness.add_src_path()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = sorted(workloads.POOLS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = perf_counter() + TIMEOUT_S
        metrics, counts = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        out["attempted"] += counts["attempted"]
        out["failed"] += counts["failed"]
        out["correct"] = out["correct"] and counts["failed"] == 0
        for k, (v, u, _) in metrics.items():
            # fail_frac is 0 when all is well; it travels as failed/attempted.
            if k == "fail_frac":
                continue
            key = k if len(names) == 1 else f"{name}.{k}"
            out["metrics"][key] = {"value": v, "unit": u}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
