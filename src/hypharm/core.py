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

A function on a table is a length-``n`` numpy array wherever it is
computed with numerically: :func:`convolve` is the convolution of two such
arrays, on the table's :class:`~hypharm.view.TableView`.  :class:`HFunction`
(finitely supported, values exact when they are Fractions) with
:func:`convolve_point`, :func:`convolve_functions`, :func:`translate`,
:func:`involute` and :func:`l1_norm` is the exact calculus, and the
reference that :func:`convolve` is tested against.

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
from .view import TableView, axiom_defects, exact_defects, haar_defect, int_array, max_abs

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
    the infinite table beyond the stored ball and are supplied by builders,
    never inferred from the section.
    """

    alpha_sup: float
    diag_sup: float
    beta_sup: float
    start: int = 1
    exact: bool = False


class HFunction:
    """Finitely supported function on hypergroup element indices.

    The values are kept as given, so Fraction values stay exact under
    :func:`convolve_functions` and :func:`translate`.
    """

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Value] | Iterable[tuple[int, Value]] = ()):
        vals = dict(values.items() if isinstance(values, Mapping) else values)
        self.values = {i: v for i, v in vals.items() if v != 0}

    @classmethod
    def delta(cls, x: int) -> "HFunction":
        return cls({x: 1})

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


class HypergroupTable:
    """Structure constants of a finite (or truncated) discrete hypergroup.

    Rows are stored sparsely as ``(x, y) -> ((z, c^z_{x,y}), ...)``; for
    commutative tables only ``x <= y`` is stored and the rest is filled by
    commutativity.  Element ordering is fixed at construction with the
    identity first.  Truncated tables record a ball radius; any access to a
    missing row raises :class:`TruncationOverflow` rather than clipping.

    A table holds its :class:`TableView` from construction and takes its
    size, identity, involution, commutativity and exactness from it; the
    view's constructor checks them.  The builders give a table its view;
    :meth:`from_rows` builds one from rows.  The arguments after the view
    are what a view does not hold: the truncation radius and tail, the
    generator, the element labels, and the Haar weights of a section (it
    does not store every x.x~) or of a fusion ring; other tables read
    theirs from the view (:attr:`haar`).  The Fraction rows serve the exact
    calculus, the loop oracles and the file writer: the table reads them
    from the view as they are asked for, and builds the whole ``rows`` dict
    only when ``rows`` itself is read.
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


def convolve(H: HypergroupTable, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`convolve_functions` on length-``n`` arrays, in float64.

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

    The exact path that reports a nonzero associativity defect whose size
    the array checks do not know, and the reference the array paths are
    tested against.
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

    The checks run on the table's :class:`TableView`.  Float tables run in
    float64.  An exact table's view holds integers N with
    ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` (see :mod:`hypharm.view`),
    and its checks take one exact path
    (:func:`hypharm.view.exact_defects`): the checks on single entries run
    once on the exact integer numerators of c, and associativity on N, in
    float64 while every sum is exact and modulo primes beyond that.  A
    product of two exact factors (:meth:`hypharm.view.TableView.product`)
    runs the single-entry checks on itself and takes associativity from the
    factors, ``N = N1 (x) N2``, with ``n1**3 n2**3`` triples checked; a
    failing factor sends it to the full check on N.  A nonzero
    associativity defect of N gives c's when the scales are uniform (rows
    given as Fractions); any other, and any the residues show, is reported
    by the Fraction loop.
    """
    V = H.view
    if not H.exact:
        found = axiom_defects(V, V.c)
    elif (found := exact_defects(V)) is None:
        return _verify_axioms_loop(H, tol)
    report = AxiomReport(H.name, "rational" if H.exact else "float", tol)
    worst, checked = found
    for name, w in worst.items():
        viol = float(w)
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

    An exact table with exact weights runs once on integers: the exact
    numerators of c over their common denominator and those of the weights
    over theirs.  Float tables or weights run in floats.
    """
    V = H.view
    if not (H.exact and all(_is_exact(v) for v in H.haar)):
        return float(haar_defect(V, V.c, H.lam))
    lam_den = math.lcm(*{v.denominator for v in H.haar})
    lam = int_array([v.numerator * (lam_den // v.denominator) for v in H.haar])
    num, den = V.numerators
    if 2 * max_abs(lam) * max_abs(num) >= 2**63:  # the differences leave int64
        num, lam = num.astype(object), lam.astype(object)
    return Fraction(int(haar_defect(V, num, lam)), lam_den * den)


def haar_weights(H: HypergroupTable, tol: float = DEFAULT_TOL) -> tuple:
    """Haar weights, with left invariance checked rather than assumed.

    Verifies lam(e) = 1 and the adjoint identity
    lam(y) c^z_{x,y} = lam(z) c^y_{x~,z} on every stored triple of the
    section (the identity making the regular representation a
    *-representation on l2(lam)).
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


def _finite(tok: str):
    """:func:`parse_number` of a token that must be a finite number."""
    v = parse_number(tok)
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{tok!r} is not a finite number")
    return v


def _real(tok: str) -> float:
    return float(_finite(tok))


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
    tail = f.values("tail", (_real, _real, _real, int, _flag), default=None)
    with f.at(f.end):
        return HypergroupTable.from_rows(
            f.value("name", default="table"),
            size,
            f.values("involution", index, count=size),
            {key: row.items() for key, row in rows.items()},
            identity=f.value("identity", index, 0),
            haar=f.values("haar", _finite, count=size, default=None),
            commutative=f.value("commutative", _flag, True),
            truncated=f.value("truncated", _flag, False),
            radius=f.value("radius", int, None),
            tail=NNTail(*tail) if tail else None,
            generator=f.value("generator", index, None),
            elements=f.values("elements", count=size, default=None),
        )
