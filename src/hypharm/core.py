"""Discrete hypergroup tables and their convolution calculus.

A discrete hypergroup is a set with an identity ``e``, an involution
``x -> x~`` and a product that sends each pair of points to a probability
measure: ``x . y = sum_z c^z_{x,y} delta_z``.  This module stores finite
tables (or finite sections of infinite ones) of the structure constants
``c^z_{x,y}``, computes Haar weights ``lam(x) = 1 / c^e_{x,x~}``, and
implements the weighted convolution

    (f ._lam g)(x) = sum_y lam(y) f(y) g(y~ . x)
                   = (1/lam(x)) sum_{y,z} lam(y) lam(z) f(y) g(z) c^x_{y,z},

left translation, involution and axiom verification.

Two arithmetic modes are supported.  Tables derived from group Cayley
tables carry exact :class:`fractions.Fraction` entries and all checks are
exact; spectral constructions carry floats and every verifier takes an
explicit tolerance (default ``1e-9``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FileFormatError, TruncationOverflow, ZeroDiagonal
from .view import EXACT_FLOAT, TableView, axiom_defects, haar_defect

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 7

Value = object  # Fraction or float; complex for function values


def _is_exact(v) -> bool:
    return isinstance(v, (Fraction, int))


@dataclass(frozen=True)
class NNTail:
    """Tail bounds for graded (N-indexed) truncated families.

    For elements of grade ``n >= start`` (grade = element index), the row of
    the designated generator at ``n`` is supported on grades
    ``{n-1, n, n+1}`` with coefficients bounded by ``alpha_sup``,
    ``diag_sup`` and ``beta_sup``.  ``exact`` marks families whose tail
    coefficients are exactly constant and equal to the bounds.  These bounds
    feed the Schur-test certificates used by the (P2) checker; they describe
    the infinite table beyond the stored ball and are supplied by builders,
    never inferred from the section.
    """

    alpha_sup: float
    diag_sup: float
    beta_sup: float
    start: int = 1
    exact: bool = False


class HFunction:
    """Finitely supported function on hypergroup element indices."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Value] | Iterable[tuple[int, Value]] = ()):
        vals = dict(values.items() if isinstance(values, Mapping) else values)
        self.values = {i: v for i, v in vals.items() if v != 0}

    @classmethod
    def delta(cls, x: int) -> "HFunction":
        return cls({x: 1})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def __getitem__(self, i: int):
        return self.values.get(i, 0)

    def __iter__(self):
        return iter(sorted(self.values.items()))

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, HFunction):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        items = ", ".join(f"{i}: {v}" for i, v in self)
        return f"HFunction({{{items}}})"

    def scaled(self, a) -> "HFunction":
        return HFunction({i: a * v for i, v in self.values.items()})

    def plus(self, other: "HFunction") -> "HFunction":
        out = dict(self.values)
        for i, v in other.values.items():
            out[i] = out.get(i, 0) + v
        return HFunction(out)

    def to_dense(self, n: int) -> list:
        out = [0] * n
        for i, v in self.values.items():
            out[i] = v
        return out

    def max_abs_diff(self, other: "HFunction") -> float:
        keys = set(self.values) | set(other.values)
        if not keys:
            return 0.0
        return max(float(abs(self[k] - other[k])) for k in keys)


class HypergroupTable:
    """Structure constants of a finite (or truncated) discrete hypergroup.

    Rows are stored sparsely as ``(x, y) -> ((z, c^z_{x,y}), ...)``; for
    commutative tables only ``x <= y`` is stored and the rest is filled by
    commutativity.  Element ordering is fixed at construction with the
    identity first.  Truncated tables record a ball radius; any access to a
    missing row raises :class:`TruncationOverflow` rather than clipping.
    """

    def __init__(
        self,
        name: str,
        size: int,
        involution: Sequence[int],
        rows: Mapping[tuple[int, int], Iterable[tuple[int, Value]]],
        *,
        identity: int = 0,
        haar: Sequence[Value] | None = None,
        commutative: bool = True,
        truncated: bool = False,
        radius: int | None = None,
        tail: NNTail | None = None,
        generator: int | None = None,
        elements: Sequence[str] | None = None,
    ):
        if size <= 0:
            raise ValueError("size must be positive")
        if not 0 <= identity < size:
            raise ValueError("identity index out of range")
        inv = tuple(int(i) for i in involution)
        if sorted(inv) != list(range(size)):
            raise ValueError("involution is not a permutation")
        if any(inv[inv[i]] != i for i in range(size)):
            raise ValueError("involution is not involutive")
        self.name = name
        self.size = size
        self.identity = identity
        self.involution = inv
        self.commutative = commutative
        self.truncated = truncated
        self.radius = radius
        self.tail = tail
        self.generator = generator if generator is not None else (1 if size > 1 else 0)
        self.elements = tuple(elements) if elements is not None else tuple(
            f"x{i}" for i in range(size)
        )
        if len(self.elements) != size:
            raise ValueError("wrong number of element labels")

        store: dict[tuple[int, int], tuple[tuple[int, Value], ...]] = {}
        exact = True
        for (x, y), entries in rows.items():
            if not (0 <= x < size and 0 <= y < size):
                raise ValueError(f"row index ({x},{y}) out of range")
            key = (min(x, y), max(x, y)) if commutative else (x, y)
            cleaned = tuple(sorted((int(z), v) for z, v in entries if v != 0))
            for z, v in cleaned:
                if not 0 <= z < size:
                    raise ValueError(f"support index {z} out of range in row {key}")
                if not _is_exact(v):
                    exact = False
            if key in store and store[key] != cleaned:
                raise ValueError(f"conflicting data for row {key}")
            store[key] = cleaned
        self.rows = store
        self.exact = exact

        if not truncated:
            missing = next(((x, y) for x in range(size) for y in range(size)
                            if self._key(x, y) not in store), None)
            if missing:
                raise ValueError(f"finite table is missing rows, e.g. {missing}")

        if haar is not None:
            self._haar = tuple(haar)
            if len(self._haar) != size:
                raise ValueError("wrong number of Haar weights")
        else:
            self._haar = None
        self._view = None

    @property
    def view(self) -> TableView:
        """The cached numeric form of the table, built on first use."""
        if self._view is None:
            self._view = TableView(self)
        return self._view

    # -- basic access ---------------------------------------------------

    def _key(self, x: int, y: int) -> tuple[int, int]:
        return (min(x, y), max(x, y)) if self.commutative else (x, y)

    def has_row(self, x: int, y: int) -> bool:
        return self._key(x, y) in self.rows

    def row(self, x: int, y: int) -> tuple[tuple[int, Value], ...]:
        """Sparse probability vector of the product ``x . y``."""
        if not (0 <= x < self.size and 0 <= y < self.size):
            raise IndexError(f"element index out of range: ({x},{y})")
        key = self._key(x, y)
        try:
            return self.rows[key]
        except KeyError:
            raise TruncationOverflow(
                f"{self.name}: product {x}.{y} leaves the stored section"
            ) from None

    def coeff(self, x: int, y: int, z: int):
        for w, v in self.row(x, y):
            if w == z:
                return v
        return Fraction(0) if self.exact else 0.0

    @property
    def haar(self) -> tuple:
        """Haar weights lam(x) = 1 / c^e_{x,x~}, lam(e) = 1."""
        if self._haar is None:
            self._haar = tuple(self._haar_from_rows())
        return self._haar

    def _haar_from_rows(self):
        out = []
        for x in range(self.size):
            c = self.coeff(x, self.involution[x], self.identity)
            if c == 0:
                raise ZeroDiagonal(
                    f"{self.name}: c^e_{{{x},{self.involution[x]}}} = 0"
                )
            out.append(1 / c if not _is_exact(c) else Fraction(1, 1) / c)
        return out

    def __repr__(self):
        kind = "truncated" if self.truncated else "finite"
        return f"HypergroupTable({self.name!r}, size={self.size}, {kind})"

    def relabeled(self, name: str) -> "HypergroupTable":
        return HypergroupTable(
            name,
            self.size,
            self.involution,
            dict(self.rows),
            identity=self.identity,
            haar=self._haar,
            commutative=self.commutative,
            truncated=self.truncated,
            radius=self.radius,
            tail=self.tail,
            generator=self.generator,
            elements=self.elements,
        )


# -- convolution calculus ----------------------------------------------


def convolve_point(H: HypergroupTable, x: int, y: int) -> HFunction:
    """Probability vector z -> c^z_{x,y} of the point product x . y."""
    return HFunction(H.row(x, y))


def convolve_functions(H: HypergroupTable, f: HFunction, g: HFunction) -> HFunction:
    """Weighted convolution f ._lam g.

    Computed through the adjoint identity lam(y) c^z_{x,y} = lam(z) c^y_{x~,z}
    so that only rows (y, z) with y in supp f, z in supp g are touched:

        (f ._lam g)(x) = (1/lam(x)) sum_{y,z} lam(y) lam(z) f(y) g(z) c^x_{y,z}.
    """
    lam = H.haar
    acc: dict[int, Value] = {}
    for y, fy in f.values.items():
        wy = lam[y] * fy
        for z, gz in g.values.items():
            w = wy * lam[z] * gz
            for (xz, c) in H.row(y, z):
                acc[xz] = acc.get(xz, 0) + w * c
    return HFunction({x: v / lam[x] for x, v in acc.items()})


def translate(H: HypergroupTable, x: int, f: HFunction) -> HFunction:
    """Left translation L_x f(y) = f(x~ . y) = sum_z c^z_{x~,y} f(z)."""
    lam = H.haar
    acc: dict[int, Value] = {}
    for z, fz in f.values.items():
        w = lam[z] * fz
        for (y, c) in H.row(x, z):
            acc[y] = acc.get(y, 0) + w * c / lam[y]
    return HFunction(acc)


def involute(H: HypergroupTable, f: HFunction) -> HFunction:
    """f~(x) = conj(f(x~)); the modular function is 1 (commutative case)."""
    out = {}
    for i, v in f.values.items():
        out[H.involution[i]] = v.conjugate() if isinstance(v, complex) else v
    return HFunction(out)


def l1_norm(H: HypergroupTable, f: HFunction) -> float:
    return float(sum(H.haar[i] * abs(v) for i, v in f.values.items()))


def l2_norm(H: HypergroupTable, f: HFunction) -> float:
    return math.sqrt(float(sum(H.haar[i] * abs(v) ** 2 for i, v in f.values.items())))


# -- axiom verification -------------------------------------------------


@dataclass
class AxiomCheck:
    passed: bool
    violation: float


@dataclass
class AxiomReport:
    """Per-axiom pass/fail with the largest violation magnitude found."""

    table: str
    mode: str
    tol: float
    checks: dict[str, AxiomCheck] = field(default_factory=dict)
    triples_checked: int = 0
    triples_skipped: int = 0

    HYPERGROUP_AXIOMS = (
        "probability",
        "associativity",
        "identity",
        "involution",
        "support",
    )

    @property
    def passed(self) -> bool:
        return all(self.checks[a].passed for a in self.HYPERGROUP_AXIOMS)

    @property
    def commutative(self) -> bool:
        return self.checks["commutativity"].passed

    def lines(self) -> list[str]:
        out = [f"axiom report for {self.table} ({self.mode} mode, tol={self.tol:g})"]
        for name, chk in self.checks.items():
            status = "pass" if chk.passed else "FAIL"
            out.append(f"  {name:<14} {status}  max violation {chk.violation:.3g}")
        out.append(
            f"  associativity triples checked={self.triples_checked}"
            f" skipped={self.triples_skipped}"
        )
        out.append(f"  hypergroup axioms: {'pass' if self.passed else 'FAIL'}")
        return out


def _iter_pairs(H: HypergroupTable):
    for (x, y) in H.rows:
        yield x, y
        if H.commutative and x != y:
            yield y, x


def _verify_axioms_loop(H: HypergroupTable, tol: float = DEFAULT_TOL) -> AxiomReport:
    """:func:`verify_axioms` by Python loops over the stored rows.

    The exact path for tables whose numerators are too large for float64,
    and the reference the array path is tested against.
    """
    report = AxiomReport(H.name, "rational" if H.exact else "float", tol)
    e = H.identity

    viol = 0
    for x, y in _iter_pairs(H):
        row = H.row(x, y)
        s = sum(v for _, v in row)
        viol = max(viol, abs(s - 1), max((abs(min(v, 0)) for _, v in row), default=0))
    report.checks["probability"] = AxiomCheck(float(viol) <= tol, float(viol))

    viol = 0
    if not H.commutative:
        for (x, y) in list(H.rows):
            if H.has_row(y, x):
                a = dict(H.row(x, y))
                b = dict(H.row(y, x))
                for z in set(a) | set(b):
                    viol = max(viol, abs(a.get(z, 0) - b.get(z, 0)))
    report.checks["commutativity"] = AxiomCheck(float(viol) <= tol, float(viol))

    viol = 0
    for x in range(H.size):
        if H.has_row(e, x):
            d = dict(H.row(e, x))
            viol = max(viol, abs(d.get(x, 0) - 1))
            viol = max(viol, sum(abs(v) for z, v in d.items() if z != x))
        if not H.commutative and H.has_row(x, e):
            d = dict(H.row(x, e))
            viol = max(viol, abs(d.get(x, 0) - 1))
            viol = max(viol, sum(abs(v) for z, v in d.items() if z != x))
    report.checks["identity"] = AxiomCheck(float(viol) <= tol, float(viol))

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    viol = 0
    for x, y in _iter_pairs(H):
        xi, yi = H.involution[x], H.involution[y]
        if not H.has_row(yi, xi):
            continue
        mirror = dict(H.row(yi, xi))
        for z, v in H.row(x, y):
            viol = max(viol, abs(v - mirror.get(H.involution[z], 0)))
    report.checks["involution"] = AxiomCheck(float(viol) <= tol, float(viol))

    # support law: e in supp(x.y) iff y = x~
    viol = 0
    for x, y in _iter_pairs(H):
        ce = dict(H.row(x, y)).get(e, 0)
        if y == H.involution[x]:
            if ce <= 0:
                viol = max(viol, 1.0)
        else:
            viol = max(viol, abs(ce))
    report.checks["support"] = AxiomCheck(float(viol) <= tol, float(viol))

    # associativity of the measure algebra on all triples inside the section
    viol = 0
    checked = skipped = 0
    for x in range(H.size):
        for y in range(H.size):
            if not H.has_row(x, y):
                skipped += H.size
                continue
            for z in range(H.size):
                try:
                    left: dict[int, Value] = {}
                    for w, c in H.row(x, y):
                        for v, c2 in H.row(w, z):
                            left[v] = left.get(v, 0) + c * c2
                    right: dict[int, Value] = {}
                    for w, c in H.row(y, z):
                        for v, c2 in H.row(x, w):
                            right[v] = right.get(v, 0) + c * c2
                except TruncationOverflow:
                    skipped += 1
                    continue
                checked += 1
                for v in set(left) | set(right):
                    viol = max(viol, abs(left.get(v, 0) - right.get(v, 0)))
    report.checks["associativity"] = AxiomCheck(float(viol) <= tol, float(viol))
    report.triples_checked = checked
    report.triples_skipped = skipped
    return report


def verify_axioms(H: HypergroupTable, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check the hypergroup axioms on every stored row and triple.

    Failures are report entries, not exceptions.  In rational mode all
    comparisons are exact and violations are reported as exact zeros.
    Commutativity is reported alongside the axioms but does not enter the
    overall pass flag (group tables of nonabelian groups are hypergroups).

    The checks run on the table's :class:`TableView`.  Rational tables run
    on integer numerators held in float64, where every sum is exact; a
    rational table whose numerators exceed that range (see
    :meth:`TableView.exact`) runs the Fraction loop instead.
    """
    V = H.view
    if H.exact:
        ex = V.exact()
        if ex is None:
            return _verify_axioms_loop(H, tol)
        c, den = ex
    else:
        c, den = V.c, 1
    report = AxiomReport(H.name, "rational" if H.exact else "float", tol)
    worst, checked = axiom_defects(V, c, float(den))
    for name, w in worst.items():
        scale = den * den if name == "associativity" else den
        viol = float(Fraction(int(w), scale)) if H.exact else float(w)
        report.checks[name] = AxiomCheck(viol <= tol, viol)
    report.triples_checked = checked
    report.triples_skipped = H.size**3 - checked
    return report


def _haar_defect_loop(H: HypergroupTable):
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}|, by Python loops."""
    lam = H.haar
    worst = 0
    for x, y in _iter_pairs(H):
        xi = H.involution[x]
        for z, c in H.row(x, y):
            if not H.has_row(xi, z):
                continue
            mirror = dict(H.row(xi, z)).get(y, 0)
            worst = max(worst, abs(lam[y] * c - lam[z] * mirror))
    return worst


def _haar_defect(H: HypergroupTable):
    """:func:`_haar_defect_loop` on the table's :class:`TableView`.

    Rational tables with rational weights run on integer numerators over
    the common denominator; the Fraction loop takes the cases whose
    products of numerators leave the exact float64 range.
    """
    V = H.view
    if not H.exact:
        return float(haar_defect(V, V.c, V.lam))
    ex = V.exact()
    if ex is not None and all(_is_exact(v) for v in H.haar):
        c, den = ex
        lam_den = math.lcm(*{v.denominator for v in H.haar})
        lam = [v.numerator * (lam_den // v.denominator) for v in H.haar]
        if 2 * max(map(abs, lam)) * int(np.abs(c).max(initial=0)) <= EXACT_FLOAT:
            worst = haar_defect(V, c, np.array(lam, dtype=float))
            return Fraction(int(worst), lam_den * den)
    return _haar_defect_loop(H)


def haar_weights(H: HypergroupTable, tol: float = DEFAULT_TOL) -> tuple:
    """Haar weights, with left invariance checked rather than assumed.

    Verifies lam(e) = 1 and the adjoint identity
    lam(y) c^z_{x,y} = lam(z) c^y_{x~,z} on every stored triple of the
    section (the identity making the regular representation a
    *-representation on l2(lam)).
    """
    lam = H.haar
    if abs(lam[H.identity] - 1) > tol:
        raise ZeroDiagonal(f"{H.name}: lam(e) = {lam[H.identity]} != 1")
    worst = _haar_defect(H)
    if float(worst) > tol:
        raise ZeroDiagonal(
            f"{H.name}: Haar invariance identity violated by {float(worst):.3g}"
        )
    return lam


# -- hypergroup file format ---------------------------------------------
#
# One document per table::
#
#     hypergroup v1
#     name <token>
#     size <n>
#     identity <index>
#     involution <i0> <i1> ... <i(n-1)>
#     commutative <0|1>
#     truncated <0|1>
#     radius <R>                  (truncated tables only)
#     tail <alpha> <diag> <beta> <start> <exact 0|1>   (optional)
#     generator <index>           (optional)
#     elements <label0> ... <label(n-1)>   (optional)
#     haar <w0> ... <w(n-1)>      (optional)
#     triples
#     <x> <y> <z> <value>
#     ...
#     end
#
# Values are either exact rationals "p/q" (or integers) or Python float
# reprs; round-tripping is bit-exact in rational mode.


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def parse_number(tok: str):
    """An exact Fraction for ``p/q`` and integer tokens, else a float."""
    if "/" in tok:
        return Fraction(tok)
    try:
        return Fraction(int(tok))
    except ValueError:
        return float(tok)


def save_table(H: HypergroupTable, path: str) -> None:
    lines = ["hypergroup v1"]
    lines.append(f"name {H.name}")
    lines.append(f"size {H.size}")
    lines.append(f"identity {H.identity}")
    lines.append("involution " + " ".join(str(i) for i in H.involution))
    lines.append(f"commutative {int(H.commutative)}")
    lines.append(f"truncated {int(H.truncated)}")
    if H.truncated and H.radius is not None:
        lines.append(f"radius {H.radius}")
    if H.tail is not None:
        t = H.tail
        lines.append(
            f"tail {_format_value(t.alpha_sup)} {_format_value(t.diag_sup)} "
            f"{_format_value(t.beta_sup)} {t.start} {int(t.exact)}"
        )
    lines.append(f"generator {H.generator}")
    lines.append("elements " + " ".join(H.elements))
    lines.append("haar " + " ".join(_format_value(v) for v in H.haar))
    lines.append("triples")
    for (x, y) in sorted(H.rows):
        for z, v in H.rows[(x, y)]:
            lines.append(f"{x} {y} {z} {_format_value(v)}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_REQUIRED = object()


class LineFile:
    """The tokenized lines of a hypharm input file.

    Unless ``magic`` is None, the first significant line starts with the
    tokens of ``magic``; its other tokens form the header entry named by
    the first magic token.
    Blank lines and ``#`` comments are skipped.  With a ``body`` marker,
    ``key value ...`` header lines precede it and body lines follow it up
    to ``end``; without one, every later line is body.  Lines keep their
    numbers in the file, and every lookup or conversion error raises
    :class:`FileFormatError` naming its line.
    """

    def __init__(self, path: str, magic: str | None, body: str | None = None):
        with open(path) as fh:
            raw = fh.readlines()
        self.header_end = self.end = len(raw) + 1
        lines = [(ln, t) for ln, t in enumerate((r.split() for r in raw), start=1)
                 if t and not t[0].startswith("#")]
        self.header = {}
        if magic is not None:
            ln, toks = lines[0] if lines else (self.end, [])
            m = magic.split()
            if toks[: len(m)] != m:
                raise FileFormatError(f"missing '{magic}' header", line=ln)
            self.header[m[0]] = (ln, toks[len(m):])
            lines = lines[1:]
        self.body: list[tuple[int, list[str]]] = []
        in_body = body is None
        for ln, toks in lines:
            if in_body and body and toks == ["end"]:
                self.end = ln
                break
            if in_body:
                self.body.append((ln, toks))
            elif toks == [body]:
                in_body, self.header_end = True, ln
            elif toks[0] in self.header:
                raise FileFormatError(f"duplicate header line '{toks[0]}'", line=ln)
            else:
                self.header[toks[0]] = (ln, toks[1:])
        else:
            if body:
                missing = "end" if in_body else body
                raise FileFormatError(f"missing '{missing}' line", line=self.end)

    @contextmanager
    def at(self, line: int):
        """Report value, arithmetic and lookup errors raised inside as ``line``'s."""
        try:
            yield
        except (ValueError, ArithmeticError, LookupError) as exc:
            raise FileFormatError(f"{type(exc).__name__}: {exc}", line=line) from None

    def values(self, key: str, conv=str, count: int | None = None, default=_REQUIRED):
        """Header line ``key``'s values, each converted by ``conv``.

        ``conv`` may be a tuple with one converter per value.  Without a
        ``default``, a missing line is an error at the end of the header.
        """
        if key not in self.header:
            if default is _REQUIRED:
                raise FileFormatError(f"missing header line '{key}'", line=self.header_end)
            return default
        ln, toks = self.header[key]
        convs = conv if isinstance(conv, tuple) else (conv,) * (count or len(toks))
        if len(toks) != len(convs):
            raise FileFormatError(f"'{key}' needs {len(convs)} values, got {len(toks)}", line=ln)
        with self.at(ln):
            return [c(t) for c, t in zip(convs, toks)]

    def value(self, key: str, conv=str, default=_REQUIRED):
        """The one value of header line ``key``, converted by ``conv``."""
        values = self.values(key, conv, 1, default)
        return values if values is default else values[0]


def int_in(lo: int, hi: float = math.inf):
    """Converter for an integer token in ``range(lo, hi)``."""

    def conv(tok: str) -> int:
        i = int(tok)
        if not lo <= i < hi:
            raise ValueError(f"{i} is outside [{lo}, {hi})")
        return i

    return conv


def _flag(tok: str) -> bool:
    return bool(int(tok))


def _real(tok: str) -> float:
    return float(parse_number(tok))


def load_table(path: str) -> HypergroupTable:
    f = LineFile(path, "hypergroup v1", body="triples")
    size = f.value("size", int_in(1))
    index = int_in(0, size)
    rows: dict[tuple[int, int], dict[int, Value]] = {}
    for ln, toks in f.body:
        with f.at(ln):
            if len(toks) != 4:
                raise ValueError("triple line needs 'x y z value'")
            x, y, z = (index(t) for t in toks[:3])
            row = rows.setdefault((x, y), {})
            if z in row:
                raise FileFormatError(f"duplicate triple {x} {y} {z}", line=ln)
            row[z] = parse_number(toks[3])
    tail = f.values("tail", (_real, _real, _real, int, _flag), default=None)
    with f.at(f.end):
        return HypergroupTable(
            f.value("name", default="table"),
            size,
            f.values("involution", index, count=size),
            {key: row.items() for key, row in rows.items()},
            identity=f.value("identity", index, 0),
            haar=f.values("haar", parse_number, count=size, default=None),
            commutative=f.value("commutative", _flag, True),
            truncated=f.value("truncated", _flag, False),
            radius=f.value("radius", int, None),
            tail=NNTail(*tail) if tail else None,
            generator=f.value("generator", index, None),
            elements=f.values("elements", count=size, default=None),
        )
