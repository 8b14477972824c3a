"""Discrete hypergroup tables and their weighted convolution.

A discrete hypergroup is a set with an identity ``e``, an involution
``x -> x~`` and a product that sends each pair of points to a probability
measure: ``x . y = sum_z c^z_{x,y} delta_z``.  This module stores finite
tables (or finite sections of infinite ones) of the structure constants
``c^z_{x,y}``, computes Haar weights ``lam(x) = 1 / c^e_{x,x~}``, verifies
the axioms, reads and writes the hypergroup file format, and implements
the weighted convolution

    (f ._lam g)(x) = sum_y lam(y) f(y) g(y~ . x)
                   = (1/lam(x)) sum_{y,z} lam(y) lam(z) f(y) g(z) c^x_{y,z}.

A function on a table is a length-``n`` numpy array: :func:`convolve` is
the convolution of two such arrays, one ``bincount`` over the entries of
the table's :class:`~hypharm.view.TableView`, and the library's only one.
The tests check it against an exact calculus that convolves Fraction
rows one product at a time.

Two arithmetic modes are supported.  Tables derived from group Cayley
tables carry exact :class:`fractions.Fraction` entries and all checks are
exact; spectral constructions carry floats and every verifier takes an
explicit tolerance (default ``1e-9``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FileFormatError, TruncationOverflow, ZeroDiagonal
from .view import (TableView, axiom_defects, exact_defects, exact_haar_defect, haar_sides,
                   int_array)

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 7

Value = object  # Fraction or float; complex for function values


def _is_exact(v) -> bool:
    return isinstance(v, (Fraction, int))


def _entries(rows: Mapping[tuple[int, int], Iterable[tuple[int, Value]]], n: int) -> tuple:
    """The rows as the entries ``x, y, z, value, scale`` of a :class:`TableView`.

    Exact values (every nonzero one a Fraction or an int) become integers N
    over their common denominator D, with every one of the ``n`` scales D;
    other values are floats.  An empty row becomes one zero entry, so that
    it stays stored.
    """
    x, y, z, vals = [], [], [], []
    for (a, b), row in rows.items():
        for w, v in tuple(row) or ((0, 0),):
            x.append(a)
            y.append(b)
            z.append(w)
            vals.append(v)
    if all(_is_exact(v) for v in vals if v != 0):
        D = math.lcm(*{v.denominator for v in vals if v})
        return x, y, z, int_array([v.numerator * (D // v.denominator) if v else 0
                                   for v in vals]), [D] * n
    return x, y, z, np.array(vals, dtype=float), None


@dataclass(frozen=True)
class NNTail:
    """Tail bounds for graded (N-indexed) truncated families.

    For elements of grade ``n >= start`` (grade = element index), the row of
    the designated generator at ``n`` is supported on grades
    ``{n-1, n, n+1}`` with coefficients bounded by ``alpha_sup``,
    ``diag_sup`` and ``beta_sup``.  ``exact`` marks families whose tail
    coefficients are exactly constant and equal to the bounds.  These bounds
    feed the Schur-test certificates used by the (P2) checker; they describe
    the infinite table beyond the stored ball.  The builders of
    ``tree_radial``, ``su2_fusion`` and ``suq2_fusion`` and the su2-type
    fusion rings give them in closed form, and a table file may state
    them.  The Voit deformation of a section infers its tail from the
    section's last rows (:func:`hypharm.spectral._deformed_tail`): it checks
    that up to 8 of them are monotone and assumes they stay so beyond the
    radius, so a deformed table's bounds, and the Schur bounds drawn from
    them, are not certificates.
    """

    alpha_sup: float
    diag_sup: float
    beta_sup: float
    start: int = 1
    exact: bool = False


class HypergroupTable:
    """Structure constants of a finite (or truncated) discrete hypergroup.

    A row is the sparse product ``(x, y) -> ((z, c^z_{x,y}), ...)``; for
    commutative tables :attr:`rows` keeps only ``x <= y`` and the rest
    follows by commutativity.  Element ordering is fixed at construction
    with the identity first.  Truncated tables record a ball radius R, with
    ``2 <= R <= size`` (else ValueError); any access to a missing row raises
    :class:`TruncationOverflow` rather than clipping.

    A table holds its :class:`TableView` from construction and takes its
    size, identity, involution, commutativity and exactness from it; the
    view's constructor checks them.  The builders give a table its view;
    :meth:`from_rows` builds one from rows.  The arguments after the view
    are what a view does not hold: the truncation radius and tail, the
    generator, the element labels, and the Haar weights of a section (it
    does not store every x.x~) or of a fusion ring; other tables read
    theirs from the view (:attr:`haar`).  The Fraction rows serve
    :meth:`row`, read by the ``quantum`` command for one product of the
    d-table (``d22.row``), and the file writer; no other module, and neither
    :func:`verify_axioms`, :func:`haar_weights` nor :func:`convolve`,
    reads them.  The table reads them from the view as they are asked
    for, and builds the whole ``rows`` dict only when ``rows`` is read.
    """

    def __init__(
        self,
        name: str,
        view: TableView,
        *,
        haar: Sequence[Value] | None = None,
        truncated: bool = False,
        radius: int | None = None,
        tail: NNTail | None = None,
        generator: int | None = None,
        elements: Sequence[str] | None = None,
    ):
        size = view.n
        self.name = name
        self.view = view
        self.size = size
        self.identity = view.identity
        self.involution = tuple(view.inv.tolist())
        self.commutative = view.commutative
        self.exact = view.rational
        self.truncated = truncated
        self.radius = radius
        self.tail = tail
        self.generator = generator if generator is not None else (1 if size > 1 else 0)
        self.elements = tuple(elements) if elements is not None else tuple(
            f"x{i}" for i in range(size)
        )
        if len(self.elements) != size:
            raise ValueError("wrong number of element labels")

        self._haar = None
        if haar is not None:
            self._haar = tuple(haar)
            if len(self._haar) != size:
                raise ValueError("wrong number of Haar weights")
        # a section's bounds compress it to balls of up to its radius, at least 2
        if truncated and not (radius is not None and 2 <= radius <= size):
            raise ValueError(f"a section of {size} points needs a radius R with "
                             f"2 <= R <= {size}, got {radius}")
        if not (truncated or view.has_row.all()):
            missing = tuple(np.argwhere(~view.has_row)[0].tolist())
            raise ValueError(f"finite table is missing rows, e.g. {missing}")
        self._rows = None
        self._read = {}  # the rows read so far

    @classmethod
    def from_rows(
        cls,
        name: str,
        size: int,
        involution: Sequence[int],
        rows: Mapping[tuple[int, int], Iterable[tuple[int, Value]]],
        *,
        identity: int = 0,
        commutative: bool = True,
        **meta,
    ) -> "HypergroupTable":
        """The table of ``rows``, turned into entries (:func:`_entries`) for its view.

        ``meta`` are the keyword arguments of the constructor.
        """
        view = TableView(size, identity, involution, commutative, *_entries(rows, size))
        return cls(name, view, **meta)

    @property
    def rows(self) -> dict[tuple[int, int], tuple[tuple[int, Value], ...]]:
        """The stored rows, built from the view on first use."""
        if self._rows is None:
            self._rows = self.view.rows()
        return self._rows

    # -- basic access ---------------------------------------------------

    def _key(self, x: int, y: int) -> tuple[int, int]:
        return (min(x, y), max(x, y)) if self.commutative else (x, y)

    def has_row(self, x: int, y: int) -> bool:
        return 0 <= x < self.size and 0 <= y < self.size and bool(self.view.has_row[x, y])

    def row(self, x: int, y: int) -> tuple[tuple[int, Value], ...]:
        """Sparse probability vector of the product ``x . y``."""
        if not (0 <= x < self.size and 0 <= y < self.size):
            raise IndexError(f"element index out of range: ({x},{y})")
        key = self._key(x, y)
        rows = self._read if self._rows is None else self._rows
        if key not in rows:
            if not self.has_row(x, y):
                raise TruncationOverflow(f"{self.name}: product {x}.{y} leaves the stored section")
            rows[key] = self.view.row(*key)
        return rows[key]

    @property
    def haar(self) -> tuple:
        """Haar weights lam(x) = 1 / c^e_{x,x~}, lam(e) = 1.

        Unless given at construction, they are read from the view: of an
        N-form ``lam(x) = s_x s_x~ / (N^e_{x,x~} s_e)`` as Fractions
        (:meth:`TableView.haar_ratios`), of a float table ``1 / c^e_{x,x~}``.
        Raises :class:`TruncationOverflow` for the first x whose product
        x.x~ is not stored, and :class:`ZeroDiagonal` for the first whose
        product has no mass at e.
        """
        if self._haar is None:
            V, inv = self.view, self.involution
            mine = (V.z == self.identity) & (V.y == V.inv[V.x])  # the entries c^e_{x,x~}
            at = np.full(self.size, -1)
            at[V.x[mine]] = np.flatnonzero(mine)
            if (bad := np.flatnonzero(at < 0)).size:
                x = int(bad[0])
                if not V.has_row[x, inv[x]]:
                    raise TruncationOverflow(
                        f"{self.name}: product {x}.{inv[x]} leaves the stored section")
                raise ZeroDiagonal(f"{self.name}: c^e_{{{x},{inv[x]}}} = 0")
            self._haar = (tuple(map(Fraction, *V.haar_ratios(at))) if V.rational
                          else tuple(1 / c for c in V.c[at].tolist()))
        return self._haar

    @cached_property
    def lam(self) -> np.ndarray:
        """The Haar weights in float64, read-only.

        Raises ValueError, naming the table, when an exact weight is beyond
        float64's range.
        """
        try:
            lam = np.array([float(v) for v in self.haar])
        except OverflowError:
            raise ValueError(f"{self.name}: Haar weights beyond the range of float64") from None
        lam.flags.writeable = False
        return lam

    @cached_property
    def generator_rows(self) -> tuple[np.ndarray, ...]:
        """The stored rows g.y of the generator g, read once from the view.

        Returns the y of every stored row, ascending, and the rows' entries
        as read-only arrays ``(y, z, c)``, sorted by (y, z), with ``c`` in
        float64.
        """
        V, g = self.view, self.generator
        lo, hi = np.searchsorted(V.x, [g, g + 1])
        first, last = np.searchsorted(V.px, [g, g + 1])
        c = V.floats(slice(lo, hi))
        c.flags.writeable = False
        return V.py[first:last], V.y[lo:hi], V.z[lo:hi], c

    def __repr__(self):
        kind = "truncated" if self.truncated else "finite"
        return f"HypergroupTable({self.name!r}, size={self.size}, {kind})"

    def relabeled(self, name: str) -> "HypergroupTable":
        return HypergroupTable(
            name,
            self.view,
            haar=self._haar,
            truncated=self.truncated,
            radius=self.radius,
            tail=self.tail,
            generator=self.generator,
            elements=self.elements,
        )


# -- convolution --------------------------------------------------------


def convolve(H: HypergroupTable, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The weighted convolution of two length-``n`` arrays, in float64.

        (f ._lam g)(x) = (1/lam(x)) sum_{y,z} lam(y) lam(z) f(y) g(z) c^x_{y,z}

    is one ``bincount`` over the entries of ``H.view`` (the real and the
    imaginary part apart).  Raises :class:`TruncationOverflow` when a product
    ``y.z`` with ``f(y) g(z) != 0`` is not stored.
    """
    V, lam = H.view, H.lam
    f, g = np.asarray(f), np.asarray(g)
    if f.shape != (H.size,) or g.shape != (H.size,):
        raise ValueError("function length does not match the table")
    missing = np.outer(f != 0, g != 0) & ~V.has_row
    if missing.any():
        y, z = np.argwhere(missing)[0].tolist()
        raise TruncationOverflow(f"{H.name}: product {y}.{z} leaves the stored section")
    w = (lam * f)[V.x] * (lam * g)[V.y] * V.c
    if np.iscomplexobj(w):
        out = np.bincount(V.z, w.real, H.size) + 1j * np.bincount(V.z, w.imag, H.size)
    else:
        out = np.bincount(V.z, w, H.size)
    return out / lam


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


def verify_axioms(H: HypergroupTable, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Check the hypergroup axioms on every stored row and triple.

    Failures are report entries, not exceptions.  In rational mode all
    comparisons are exact and violations are reported as exact zeros.
    Commutativity is reported alongside the axioms but does not enter the
    overall pass flag (group tables of nonabelian groups are hypergroups).

    The checks run on the table's :class:`TableView`.  Float tables run in
    float64.  An exact table's view holds integers N with
    ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` (see :mod:`hypharm.view`),
    and its checks take one exact path that reads no Fraction row
    (:func:`hypharm.view.exact_defects`): the checks on single entries are
    identities in integers on N times reduced per-point rationals, and
    associativity runs on N, in float64 while every sum is exact and
    modulo primes beyond that.  A product of two exact factors
    (:meth:`hypharm.view.TableView.product`) runs the single-entry checks
    on itself and takes associativity from the factors,
    ``N = N1 (x) N2``, with ``n1**3 n2**3`` triples checked; a failing
    factor sends it to the full check on N.  Whatever fails is sized
    exactly: the failing entries in Fractions, the flagged triples in
    integers from N.
    """
    V = H.view
    found = exact_defects(V) if H.exact else axiom_defects(V, V.c)
    report = AxiomReport(H.name, "rational" if H.exact else "float", tol)
    worst, checked = found
    for name, w in worst.items():
        viol = float(w)
        report.checks[name] = AxiomCheck(viol <= tol, viol)
    report.triples_checked = checked
    report.triples_skipped = H.size**3 - checked
    return report


def _haar_defect(H: HypergroupTable):
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples.

    Exact on N and per-point rationals (:func:`hypharm.view.exact_haar_defect`)
    for an exact table with exact weights; else in floats, each triple's
    defect divided by the larger of 1 and its two terms' absolute values.
    """
    V = H.view
    if H.exact and all(_is_exact(v) for v in H.haar):
        return exact_haar_defect(V, H.haar)
    left, right = haar_sides(V, V.c, H.lam)
    d = np.abs(left - right)
    d /= np.maximum(1, np.maximum(np.abs(left), np.abs(right)))
    return float(d.max(initial=0))


def haar_weights(H: HypergroupTable, tol: float = DEFAULT_TOL) -> tuple:
    """Haar weights, with left invariance checked rather than assumed.

    Verifies lam(e) = 1, the adjoint identity
    lam(y) c^z_{x,y} = lam(z) c^y_{x~,z} on every stored triple of the
    section (the identity making the regular representation a
    *-representation on l2(lam)): exactly, or in floats within ``tol``
    times the larger of 1 and the two sides' absolute values, since float
    weights may reach 1e306; and then lam(x) > 0 for every x.
    """
    lam = H.haar
    # a verdict of NaN compares false: pass only on evidence, worst <= tol
    if not abs(lam[H.identity] - 1) <= tol:
        raise ZeroDiagonal(f"{H.name}: lam(e) = {lam[H.identity]} != 1")
    worst = _haar_defect(H)
    if not float(worst) <= tol:
        raise ZeroDiagonal(
            f"{H.name}: Haar invariance identity violated by {float(worst):.3g}"
        )
    # no stored triple constrains a weight at the boundary of a section
    if (x := next((x for x, w in enumerate(lam) if not w > 0), None)) is not None:
        raise ZeroDiagonal(f"{H.name}: lam({x}) = {lam[x]} is not > 0")
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
#     radius <R>                  (truncated tables only, 2 <= R <= n)
#     tail <alpha> <diag> <beta> <start> <exact 0|1>   (optional; bounds >= 0, start <= n)
#     generator <index>           (optional)
#     elements <label0> ... <label(n-1)>   (optional)
#     haar <w0> ... <w(n-1)>      (optional; each > 0)
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
    if H.truncated:
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


def _finite(tok: str):
    """:func:`parse_number` of a token that must be a finite number."""
    v = parse_number(tok)
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{tok!r} is not a finite number")
    return v


def _sup(tok: str) -> float:
    """A tail bound, a sup of absolute values: a finite number >= 0."""
    if not (v := float(_finite(tok))) >= 0:
        raise ValueError(f"tail bound {tok} is negative")
    return v


def _weight(tok: str):
    """A Haar weight: a finite number > 0."""
    if not (v := _finite(tok)) > 0:
        raise ValueError(f"Haar weight {tok} is not > 0")
    return v


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
            row[z] = _finite(toks[3])
    tail = f.values("tail", (_sup, _sup, _sup, int_in(0, size + 1), _flag), default=None)
    truncated = f.value("truncated", _flag, False)
    # a section's bounds compress it to balls of up to its radius, at least 2
    radius = f.value("radius", int_in(2, size + 1)) if truncated else f.value("radius", int, None)
    with f.at(f.end):
        return HypergroupTable.from_rows(
            f.value("name", default="table"),
            size,
            f.values("involution", index, count=size),
            {key: row.items() for key, row in rows.items()},
            identity=f.value("identity", index, 0),
            haar=f.values("haar", _weight, count=size, default=None),
            commutative=f.value("commutative", _flag, True),
            truncated=truncated,
            radius=radius,
            tail=NNTail(*tail) if tail else None,
            generator=f.value("generator", index, None),
            elements=f.values("elements", count=size, default=None),
        )
