"""Regenerate ``reference.json``, the oracle's pinned report fields.

Runs every job shape of every workload once at hypharm's default seed and
pins each report line (``oracle.pin``).  It then runs every shape again at a
second seed and requires the oracle to accept that run, so that no pinned
field depends on the seed.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import harness
import oracle
import workloads

DEFAULT_SEED = "7"
CHECK_SEED = "8"


def main() -> int:
    harness.add_src_path()
    jobs = {}
    shapes = [s for w in workloads.POOLS for s in workloads.pool(w)]
    for shape in shapes:
        argv = list(shape) + ["--seed", DEFAULT_SEED]
        rc, out, err = harness.run_job(argv)
        if rc != 0:
            print(f"{' '.join(argv)}: exit {rc}: {err}", file=sys.stderr)
            return 1
        jobs[" ".join(shape)] = [
            oracle.pin(k, t, shape[0]) for k, t in oracle.parse(out) if k not in oracle.IGNORED
        ]
    check = oracle.Oracle({"jobs": jobs})
    bad = 0
    for shape in shapes:
        for seed in (DEFAULT_SEED, CHECK_SEED):
            argv = list(shape) + ["--seed", seed]
            reason = check.check(argv, *harness.run_job(argv)[:2])
            if reason:
                bad += 1
                print(f"{' '.join(argv)}: {reason}", file=sys.stderr)
    if bad:
        return 1
    oracle.REFERENCE.write_text(
        json.dumps({"seed": int(DEFAULT_SEED), "tol": oracle.TOL, "jobs": jobs},
                   separators=(",", ":")) + "\n"
    )
    print(f"wrote {len(jobs)} job shapes to {oracle.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
