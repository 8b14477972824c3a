"""One benchmark process: import hypharm, warm up, run the job loop.

Started by ``run.py`` as a fresh interpreter.  It prints ``ready`` once
``import hypharm`` and the warm-up job are done (the parent times that as
set-up), then runs the closed job loop, checks every output with the
oracle after the loop, and prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import harness

# Kernel timings taken right after set-up, to scale that set-up time.
SETUP_KERNEL_SAMPLES = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-jobs", type=int, help="run exactly this many jobs")
    ap.add_argument("--trace-out", help="trace the loop and write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    harness.add_src_path()
    import hypharm  # noqa: F401  (the import is part of the set-up being timed)

    rc, _, err = harness.run_job(harness.WARMUP)
    if rc != 0:
        print(f"warm-up job failed: {rc} {err}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        kernel = [harness.calibrate() for _ in range(SETUP_KERNEL_SAMPLES)]
        print(json.dumps({"kernel_s": kernel}))
        return 0

    import oracle
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()
    jobs, wall, kernel = harness.run_loop(
        workloads.rounds(args.workload, args.seed), args.seconds, args.max_jobs, tracer
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "kernel_s": kernel, "peak_rss_kb": peak_kb,
              "setup_kernel_s": kernel[:SETUP_KERNEL_SAMPLES], "env": harness.env_record()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        result["layers"] = tracing.layer_metrics(tracer, len(jobs))
        self_sums = tracing.job_self_times(tracer.spans)
        result["self_sum_error_s"] = max(
            abs(job[1] - sum(self_sums[i].values())) for i, job in enumerate(jobs)
        )
    check = oracle.Oracle()
    result["jobs"] = []
    for argv, seconds, rc, out, err, k in jobs:
        reason = check.check(argv, rc, out)
        if reason and err.strip():
            reason = f"{reason}; stderr: {err.strip()}"
        result["jobs"].append({"argv": argv, "s": seconds, "k": k, "error": reason})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
