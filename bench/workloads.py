"""Seeded job lists for the three benchmark workloads.

A job is the argv of one ``hypharm`` CLI call, without ``--format``.  A
workload is a pool of job shapes (argv without ``--seed``).  Its job stream
is a sequence of rounds; each round runs every shape of the pool once, in an
order shuffled by the workload seed, and gives every job a hypharm ``--seed``
not used before in the stream.  The stream is therefore a pure function of
the workload seed, no argv repeats, and every round does the same mix of
work, so a run that stops at a round boundary measures a stable mix.
"""

from __future__ import annotations

import itertools
import random

# The six named built-in groups plus two cyclic groups give eight groups.
GROUPS = ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")

# Number of conjugacy classes (= |Conj(G)| = |Irr(G)|), from the character
# tables of these groups; the oracle uses it as a closed form for sizes.
CLASS_COUNT = {"s3": 3, "s4": 5, "a4": 4, "d4": 5, "q8": 5, "klein": 4, "z5": 5, "z6": 6}

SECTION_FAMILIES = (
    ("--family", "tree_radial", "--q", "2"),
    ("--family", "tree_radial", "--q", "3"),
    ("--family", "su2_fusion"),
    ("--family", "suq2_fusion", "--q", "1/2"),
)

WHY = {
    "finite_spectral": (
        "characters, norms (with and without --mcb) and quantum --group on "
        "Conj/Irr of 8 groups and Z_n, n=16..96: one diagonalization per job, "
        "report formatting; the largest Z_n sets the tail"
    ),
    "sections": (
        "p2, deform, verify, quantum --q and truncated amenability on "
        "tree_radial, su2 and suq2 sections: Fraction builders, float axiom "
        "checks, Schur bound; never calls characters()"
    ),
    "amenability_products": (
        "finite amenability and exact product verification: the same product "
        "table diagonalized again and again in a job, Fraction arithmetic in core"
    ),
}


def _table(fam: str, g: str, suffix: str = "") -> tuple[str, ...]:
    if fam == "cyclic":
        return (f"--family{suffix}", "cyclic", f"--n{suffix}", g)
    return (f"--family{suffix}", fam, f"--group{suffix}", g)


def _finite_spectral() -> list[tuple[str, ...]]:
    pool = []
    for i, g in enumerate(GROUPS):
        for fam in ("conj", "irr"):
            t = _table(fam, g)
            pool.append(("characters",) + t)
            pool.append(("norms",) + t + ("--random", str(2 + i % 3)))
            pool.append(("norms",) + t + ("--random", "2", "--mcb"))
        pool.append(("quantum", "--group", g))
    for n in (16, 24, 32, 48, 64, 96):
        pool.append(("characters",) + _table("cyclic", str(n)))
    for n in (16, 24, 32):
        pool.append(("norms",) + _table("cyclic", str(n)) + ("--random", "3"))
    pool.append(("norms",) + _table("cyclic", "16") + ("--random", "1", "--mcb"))
    return pool


def _sections() -> list[tuple[str, ...]]:
    pool = []
    for fam in SECTION_FAMILIES:
        for r in (24, 36, 48, 60):
            pool.append(("p2",) + fam + ("--radius", str(r)))
        for r in (12, 20, 28):
            pool.append(("deform",) + fam + ("--radius", str(r)))
        for r in (8, 12, 16):
            pool.append(("verify",) + fam + ("--radius", str(r)))
        # --radii must stay below a third of the section radius.
        for r, radii in ((24, "2,4,7"), (30, "3,6,9")):
            pool.append(("amenability",) + fam + ("--radius", str(r), "--radii", radii))
    for q in ("1", "1/2", "2/3"):
        for r in (8, 12, 16):
            pool.append(("quantum", "--q", q, "--radius", str(r)))
    return pool


# Product factors, all of size 3 to 5, so every pair has size <= 25.
_FACTORS = (("conj", "s3"), ("irr", "s3"), ("conj", "klein"), ("irr", "a4"),
            ("irr", "d4"), ("conj", "q8"))


def _amenability_products() -> list[tuple[str, ...]]:
    pool = []
    for g in ("s3", "s4", "a4", "d4", "q8", "klein", "z5"):
        for fam in ("conj", "irr"):
            pool.append(("amenability",) + _table(fam, g))
    for n in (3, 4, 5, 6):
        pool.append(("amenability",) + _table("cyclic", str(n)))
    for (f1, g1), (f2, g2) in itertools.combinations_with_replacement(_FACTORS, 2):
        pool.append(("product",) + _table(f1, g1) + _table(f2, g2, "2"))
    return pool


POOLS = {
    "finite_spectral": _finite_spectral,
    "sections": _sections,
    "amenability_products": _amenability_products,
}


def pool(workload: str) -> list[tuple[str, ...]]:
    """The job shapes of one round of ``workload``."""
    if workload not in POOLS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(POOLS)}")
    return POOLS[workload]()


def rounds(workload: str, seed: int):
    """Yield the rounds of ``workload`` for ``seed``: lists of argv lists."""
    shapes = pool(workload)
    rng = random.Random(seed)
    used: set[int] = set()
    while True:
        order = list(shapes)
        rng.shuffle(order)
        batch = []
        for shape in order:
            s = rng.randrange(1, 2**31)
            while s in used:
                s = rng.randrange(1, 2**31)
            used.add(s)
            batch.append(list(shape) + ["--seed", str(s)])
        yield batch


def shape_of(argv: list[str]) -> tuple[str, ...]:
    """The job shape of ``argv``: the argv with its ``--seed`` pair removed."""
    out = list(argv)
    i = out.index("--seed")
    del out[i : i + 2]
    return tuple(out)
