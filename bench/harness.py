"""In-process job runner shared by the worker, the reference maker and tests."""

from __future__ import annotations

import io
import os
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP = ["characters", "--family", "conj", "--group", "s3"]
CALIBRATE_EVERY_S = 0.5
# Both commits of a comparison must run with the same BLAS threading; the
# benchmark pins it rather than inherit whatever the shell has.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def add_src_path() -> None:
    """Import hypharm from this checkout's ``src/``, not an installed copy."""
    if not (SRC / "hypharm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hypharm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_job(argv: list[str]):
    """Run one CLI job in-process; return ``(exit code, stdout, stderr)``.

    The exit code is a string naming the exception if the job raised.
    """
    from hypharm import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv + ["--format", "structured"])
    except SystemExit as exc:  # argparse rejects the argv
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # a job that raises is a failed job, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Time a fixed kernel that does not use hypharm.

    It mixes the kinds of work hypharm jobs do: dict and string handling in
    the interpreter, Fraction arithmetic and a small eigensolve.  Its time
    follows the host's speed, which drifts by more than half on a shared
    machine, so run.py reports job times at a reference kernel speed.
    """
    import numpy as np

    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(16000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    " ".join(str(i) for i in range(4000))
    acc = Fraction(0)
    for i in range(600):
        acc += Fraction(i % 11, 7) * Fraction(3, i % 5 + 1)
    m = np.random.default_rng(0).standard_normal((48, 48))
    for _ in range(2):
        np.linalg.eig(m)
    return perf_counter() - t0


def run_loop(rounds, seconds: float, max_jobs: int | None = None, tracer=None):
    """Closed loop over whole rounds of jobs.

    Runs rounds until ``seconds`` of job time have passed at a round
    boundary, or, with ``max_jobs``, exactly that many jobs.  Between jobs,
    at most every ``CALIBRATE_EVERY_S``, it times the :func:`calibrate`
    kernel.  Returns ``(jobs, wall, kernel)``: one ``(argv, seconds, exit
    code, stdout, stderr, k)`` per job, with ``k`` the index of the last
    kernel time taken before it, the loop's wall time without the kernel
    runs, and the kernel times.
    """
    jobs, kernel = [], []
    t0 = perf_counter()
    last = t0 - CALIBRATE_EVERY_S
    for batch in rounds:
        if max_jobs is None and perf_counter() - t0 - sum(kernel) >= seconds:
            break
        for argv in batch:
            if max_jobs is not None and len(jobs) >= max_jobs:
                break
            if perf_counter() - last >= CALIBRATE_EVERY_S:
                kernel.append(calibrate())
                last = perf_counter()
            if tracer is not None:
                tracer.start_job()
            ts = perf_counter()
            rc, out, err = run_job(argv)
            jobs.append((argv, perf_counter() - ts, rc, out, err, len(kernel) - 1))
        if max_jobs is not None and len(jobs) >= max_jobs:
            break
    return jobs, perf_counter() - t0 - sum(kernel), kernel


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def env_record() -> dict:
    """Versions and settings recorded with every result; nothing gates on them."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": _commit(),
        "src_lines": src_lines(),
    }

