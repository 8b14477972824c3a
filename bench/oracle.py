"""Output oracle for benchmark jobs.

A job passes only if its exit code is 0, its structured report says
``pass true``, the closed forms below hold, and every report field matches
the committed reference (``reference.json``, made by ``make_reference.py``
at hypharm's default seed) within ``TOL``.  The closed forms do not depend
on the program's own checks:

* ``characters``: ``count`` is the table size, Sum plancherel = 1;
* ``p2``: ``tree_radial`` q fails with certified bound 2 sqrt(q)/(q+1),
  ``suq2_fusion`` q fails at 2q/(1+q^2) (0.8 at q = 1/2), ``su2_fusion``
  holds or is inconclusive;
* ``quantum``: ``kac`` is true exactly when q = 1 or the ring comes from a
  group;
* ``product``: ``size`` is n1 n2;
* ``norms``: the random functions are regenerated from the job seed; on
  cyclic tables ``norm_a`` is the l1 norm of the discrete Fourier transform,
  on the others it is at least the sup norm; the A, B_lambda, MA (and Mcb)
  norms agree.

The comparator reads ``x`` and ``np.float64(x)`` alike, ignores the
free-text ``certificate`` line, and checks the ``seed`` line against the
job's own seed.  Fields of ``norms`` reports that belong to the random
functions (``u<k>.*``) depend on the seed, so the reference pins only their
shape there.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import CLASS_COUNT, shape_of

TOL = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")
# Value lists longer than this are pinned by a fingerprint, not token by token.
VERBATIM_MAX = 16
IGNORED = ("certificate", "seed")

_WRAPPED = re.compile(r"^np\.\w+\((.*)\)$")
_RATIONAL = re.compile(r"^-?\d+/\d+$")
_SEED_DEPENDENT = re.compile(r"^u\d+\.")


def number(tok: str):
    """The numeric value of a report token, or None if it is not a number."""
    m = _WRAPPED.match(tok)
    if m:
        tok = m.group(1)
    if _RATIONAL.match(tok):
        return complex(Fraction(tok))
    if tok in ("true", "false"):
        return None
    try:
        return complex(tok)
    except ValueError:
        return None


def parse(text: str) -> list[tuple[str, list[str]]]:
    """Split a structured report into ``(key, tokens)`` pairs."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 2 or lines[0] != "hypharm-report v1" or lines[-1] != "end":
        raise ValueError("not a structured report")
    out = []
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        out.append((key, rest.split(" ")))
    return out


def _close(a: complex, b: complex, scale: float) -> bool:
    if a != a or b != b:  # nan
        return a != a and b != b
    return abs(a - b) <= TOL * max(1.0, scale)


def _fingerprint(values: list[complex]) -> list[list[float]]:
    n = len(values)
    s = sum(values)
    w = sum((i + 1) / n * v for i, v in enumerate(values))
    mag = sum(abs(v) for v in values)
    return [[s.real, s.imag], [w.real, w.imag], [mag, 0.0]]


def pin(key: str, toks: list[str], command: str) -> list:
    """The reference entry for one report line."""
    if command == "norms" and _SEED_DEPENDENT.match(key):
        return [key, "n", len(toks)]
    nums = [number(t) for t in toks]
    if len(toks) > VERBATIM_MAX and all(v is not None for v in nums):
        return [key, "fp", [len(toks), _fingerprint(nums)]]
    return [key, "v", toks]


def _matches(entry: list, key: str, toks: list[str]) -> str | None:
    """None if ``toks`` matches the reference entry, else the reason."""
    rkey, kind, data = entry
    if key != rkey:
        return f"key {key!r} where the reference has {rkey!r}"
    if kind == "n":
        return None if len(toks) == data else f"{key}: {len(toks)} values, want {data}"
    if kind == "fp":
        nums = [number(t) for t in toks]
        if len(toks) != data[0] or any(v is None for v in nums):
            return f"{key}: {len(toks)} values, want {data[0]} numbers"
        got = _fingerprint(nums)
        scale = data[1][2][0]
        for g, w in zip(got, data[1]):
            if not _close(complex(*g), complex(*w), scale):
                return f"{key}: fingerprint {g} differs from reference {w}"
        return None
    if len(toks) != len(data):
        return f"{key}: {len(toks)} values, want {len(data)}"
    for t, w in zip(toks, data):
        a, b = number(t), number(w)
        if a is None or b is None:
            if t != w:
                return f"{key}: {t!r} differs from reference {w!r}"
        elif not _close(a, b, abs(b)):
            return f"{key}: {t} differs from reference {w}"
    return None


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _size(argv: list[str], suffix: str = "") -> int:
    if _opt(argv, f"--family{suffix}") == "cyclic":
        return int(_opt(argv, f"--n{suffix}"))
    return CLASS_COUNT[_opt(argv, f"--group{suffix}")]


def _random_functions(n: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]


def _closed_forms(argv: list[str], fields: dict[str, list[str]]) -> str | None:
    cmd = argv[0]

    def one(key):
        return number(fields[key][0])

    if cmd == "characters":
        n = _size(argv)
        if int(fields["count"][0]) != n:
            return f"count {fields['count'][0]} != table size {n}"
        total = sum(one(f"char.{i}.plancherel").real for i in range(n))
        if abs(total - 1.0) > TOL:
            return f"plancherel weights sum to {total!r}"
    elif cmd == "p2":
        fam, status = _opt(argv, "--family"), fields["status"][0]
        q = float(Fraction(_opt(argv, "--q", "1")))
        want = {"tree_radial": 2 * math.sqrt(q) / (q + 1),
                "suq2_fusion": 2 * q / (1 + q * q)}.get(fam)
        if want is None:
            if status not in ("holds", "inconclusive"):
                return f"{fam}: status {status}, want holds or inconclusive"
        elif status != "fails":
            return f"{fam}: status {status}, want fails"
        elif abs(one("certified_bound").real - want) > TOL:
            return f"certified_bound {fields['certified_bound'][0]} != {want!r}"
    elif cmd == "quantum":
        want = "--group" in argv or Fraction(_opt(argv, "--q", "1")) == 1
        if fields["kac"][0] != ("true" if want else "false"):
            return f"kac {fields['kac'][0]}, want {want}"
    elif cmd == "product":
        want = _size(argv) * _size(argv, "2")
        if int(fields["size"][0]) != want:
            return f"size {fields['size'][0]} != {want}"
    elif cmd == "norms":
        n = _size(argv)
        us = _random_functions(n, int(_opt(argv, "--random")), int(_opt(argv, "--seed")))
        for k, u in enumerate(us):
            a, b, ma = (one(f"u{k}.norm_{x}").real for x in ("a", "blambda", "ma"))
            scale = max(1.0, a)
            if abs(a - b) > TOL * scale or abs(b - ma) > TOL * scale:
                return f"u{k}: norms differ: A {a!r}, B {b!r}, MA {ma!r}"
            if f"u{k}.norm_mcb" in fields and abs(one(f"u{k}.norm_mcb").real - ma) > TOL * scale:
                return f"u{k}: Mcb norm differs from MA norm"
            if _opt(argv, "--family") == "cyclic":
                want = float(np.abs(np.fft.fft(u) / n).sum())
                if abs(a - want) > TOL * scale:
                    return f"u{k}: norm_a {a!r} != Fourier l1 norm {want!r}"
            elif a < float(np.abs(u).max()) * (1 - TOL):
                return f"u{k}: norm_a {a!r} below the sup norm"
    return None


class Oracle:
    """Checks job outputs against closed forms and the committed reference."""

    def __init__(self, reference: dict | None = None):
        if reference is None:
            reference = json.loads(REFERENCE.read_text())
        self.jobs = reference["jobs"]

    def check(self, argv: list[str], rc, stdout: str) -> str | None:
        """None if the job passed, else the reason it failed."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            report = parse(stdout)
        except ValueError as exc:
            return str(exc)
        fields = dict(report)
        if fields.get("pass") != ["true"]:
            return f"pass {fields.get('pass')}"
        if fields.get("command") != [argv[0]]:
            return f"command {fields.get('command')}"
        if fields.get("seed") != [_opt(argv, "--seed")]:
            return f"seed {fields.get('seed')} is not the job seed"
        try:
            reason = _closed_forms(argv, fields)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            reason = f"report lacks a field: {exc!r}"
        if reason:
            return reason
        ref = self.jobs.get(" ".join(shape_of(argv)))
        if ref is None:
            return "no reference for this job shape"
        lines = [(k, t) for k, t in report if k not in IGNORED]
        if len(lines) != len(ref):
            return f"{len(lines)} report lines, reference has {len(ref)}"
        for entry, (key, toks) in zip(ref, lines):
            reason = _matches(entry, key, toks)
            if reason:
                return reason
        return None
