"""Tests of the benchmark itself: job lists, oracle, tracer.

    python3 -m pytest -q bench
"""

import shutil
import subprocess
import sys
from itertools import islice

import pytest

import harness
import oracle
import tracer as tracing
import workloads

harness.add_src_path()


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_same_seed_gives_same_job_list(workload):
    first = list(islice(workloads.rounds(workload, 11), 3))
    assert first == list(islice(workloads.rounds(workload, 11), 3))
    assert first != list(islice(workloads.rounds(workload, 12), 3))
    argvs = [tuple(a) for batch in first for a in batch]
    assert len(set(argvs)) == len(argvs)
    shapes = sorted(workloads.pool(workload))
    for batch in first:
        assert sorted(workloads.shape_of(a) for a in batch) == shapes


P2 = ["p2", "--family", "tree_radial", "--q", "2", "--radius", "24", "--seed", "5"]


def _edit(text, key, fn):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        k, _, rest = line.partition(" ")
        if k == key:
            lines[i] = f"{k} {fn(rest)}"
    return "\n".join(lines)


def test_oracle_accepts_a_good_report():
    rc, out, _ = harness.run_job(P2)
    check = oracle.Oracle()
    assert check.check(P2, rc, out) is None
    # The comparator reads numpy reprs and ignores the free-text certificate.
    wrapped = _edit(out, "upper_bound", lambda v: f"np.float64({v})")
    assert check.check(P2, rc, _edit(wrapped, "certificate", lambda v: "reworded")) is None


@pytest.mark.parametrize("key,corrupt", [
    ("status", lambda v: "holds"),
    ("certified_bound", lambda v: repr(float(v) + 1e-6)),
    ("section.11.lower", lambda v: repr(float(v) + 1e-6)),
    ("pass", lambda v: "false"),
])
def test_oracle_rejects_a_corrupted_report(key, corrupt):
    rc, out, _ = harness.run_job(P2)
    bad = _edit(out, key, corrupt)
    assert bad != out
    assert oracle.Oracle().check(P2, rc, bad) is not None


def test_oracle_rejects_a_wrong_character_value():
    argv = ["characters", "--family", "cyclic", "--n", "24", "--seed", "3"]
    rc, out, _ = harness.run_job(argv)
    assert oracle.Oracle().check(argv, rc, out) is None
    bad = _edit(out, "char.5.values", lambda v: v.replace("(1+0j)", "(1.000001+0j)", 1))
    assert bad != out
    assert oracle.Oracle().check(argv, rc, bad) is not None


def test_traced_self_times_sum_to_job_wall_time():
    from hypharm import norms, spectral

    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs, _, _ = harness.run_loop(workloads.rounds("amenability_products", 3), 0, 8, tracer)
    finally:
        tracer.uninstall()
    assert norms.characters is spectral.characters
    assert all(job[2] == 0 for job in jobs)
    per_job = tracing.job_self_times(tracer.spans)
    assert sorted(per_job) == list(range(len(jobs)))
    for i, (_, wall, *_) in enumerate(jobs):
        total = sum(per_job[i].values())
        assert per_job[i]["cli"] > 0
        assert abs(total - wall) <= 1e-3 + 0.02 * wall
    metrics = tracing.layer_metrics(tracer, len(jobs))
    assert {f"{layer}.self_s" for layer in tracing.LAYERS} <= set(metrics)
    assert metrics["spectral.characters.calls"][0] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sections", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
