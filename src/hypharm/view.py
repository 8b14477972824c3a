"""The numeric view of a hypergroup table and the array checks run on it.

:class:`TableView` is the read-only array form of a
:class:`~hypharm.core.HypergroupTable`, built on first use of ``H.view``
and cached on the table.  The axiom and Haar checks of :mod:`hypharm.core`
and the spectral code run on it.  The functions here take coefficient
arrays aligned with the view's entries: float64 values, or integer
numerators over a common denominator held in float64, in which case every
sum they form is exact (see :meth:`TableView.exact`).
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from operator import attrgetter, truediv

import numpy as np

# Integers up to 2**53 are exact in float64.
EXACT_FLOAT = 2**53


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _values(H) -> list:
    """The stored coefficients of ``H``, row by row."""
    return [v for row in H.rows.values() for _, v in row]


class TableView:
    """Read-only array form of a table, shared by every numeric path.

    Every stored coefficient is one entry ``c^z_{x,y}``; commutative tables
    list each product in both orders.  Entries are sorted by ``(x, y, z)``:

    * ``x, y, z, c`` -- the entries, indices in int32, ``c`` in float64;
    * ``px, py`` -- the stored products, ``starts`` their CSR offsets into
      the entries and ``pair`` the product of each entry;
    * ``has_row`` -- the ``n x n`` mask of stored products;
    * ``inv`` -- the involution; ``lam`` -- float Haar weights (on first use);
    * :meth:`dense` -- the coefficients as an ``n x n x n`` array;
    * :meth:`exact` -- integer numerators over one common denominator (on
      first use, exact tables only).
    """

    def __init__(self, H):
        n = self.n = H.size
        self.identity = H.identity
        self.commutative = H.commutative
        self._table = weakref.ref(H)
        # the stored rows are read once; mirrored products reuse their entries
        values = _values(H)
        products, size = [], 0  # (x, y, offset of the stored row, its length)
        for (x, y), row in H.rows.items():
            products.append((x, y, size, len(row)))
            if H.commutative and x != y:
                products.append((y, x, size, len(row)))
            size += len(row)
        products.sort()
        px, py, first, counts = np.array(products, dtype=np.int64).reshape(-1, 4).T
        self.px, self.py = _frozen(px.astype(np.int32)), _frozen(py.astype(np.int32))
        self.starts = _frozen(np.concatenate(([0], np.cumsum(counts))))
        self.pair = _frozen(np.repeat(np.arange(len(counts), dtype=np.int32), counts))
        self.x, self.y = _frozen(self.px[self.pair]), _frozen(self.py[self.pair])
        # entry i of product p is stored entry first[p] + i - starts[p]
        self._source = np.arange(self.starts[-1]) + np.repeat(first - self.starts[:-1], counts)
        z = np.fromiter((z for row in H.rows.values() for z, _ in row), np.int32, size)
        self.z = _frozen(z[self._source])
        if H.exact:  # what float() does for a rational, without its call overhead
            c = map(truediv, map(attrgetter("numerator"), values),
                    map(attrgetter("denominator"), values))
        else:
            c = map(float, values)
        self.c = _frozen(np.fromiter(c, float, size)[self._source])
        has_row = np.zeros((n, n), dtype=bool)
        has_row[self.px, self.py] = True
        self.has_row = _frozen(has_row)
        self.inv = _frozen(np.array(H.involution, dtype=np.int32))
        self._exact = None

    @cached_property
    def lam(self) -> np.ndarray:
        return _frozen(np.array([float(v) for v in self._table().haar]))

    def dense(self, c: np.ndarray) -> np.ndarray:
        """The ``n x n x n`` array ``C[x, y, z]`` of the values ``c``, 0 off the entries."""
        C = np.zeros((self.n,) * 3)
        C[self.x, self.y, self.z] = c
        return C

    def exact(self) -> tuple[np.ndarray, int] | None:
        """Numerators ``N`` and denominator ``D`` with ``c = N / D``, or None.

        ``N`` is held in float64, so it is None when ``2 n max|N|^2 > 2**53``:
        below that bound every sum of ``n`` products of two numerators, and
        every difference of two such sums, is an exact integer.
        """
        if self._exact is None:
            vals = _values(self._table())
            den = math.lcm(*{v.denominator for v in vals})
            nums = [v.numerator * (den // v.denominator) for v in vals]
            top = max(map(abs, nums), default=0)
            self._exact = False
            if 2 * self.n * top * top <= EXACT_FLOAT:
                self._exact = (_frozen(np.array(nums, dtype=float)[self._source]), den)
        return self._exact or None


def axiom_defects(V: TableView, c: np.ndarray, one: float) -> tuple[dict, int]:
    """The worst violation of each axiom, and the associativity triples checked.

    ``c`` holds the entries' coefficients in units of ``1 / one``; the
    violations come in the same units, except associativity, whose are
    ``1 / one**2``.  The checks are those of
    :func:`hypharm.core.verify_axioms`, in its report order.
    """
    e, inv, has_row = V.identity, V.inv, V.has_row
    C = V.dense(c)
    out = {}
    sums = np.bincount(V.pair, weights=c, minlength=len(V.px))
    out["probability"] = max(np.abs(sums - one).max(initial=0), -c.min(initial=0))

    out["commutativity"] = 0.0
    if not V.commutative:
        both = has_row[V.y, V.x]
        out["commutativity"] = np.abs(c - C[V.y, V.x, V.z])[both].max(initial=0)

    # rows e.x and x.e: mass 1 at x and none elsewhere
    at = V.py[V.px == e]
    worst = np.abs(C[e, at, at] - one).max(initial=0)
    at = V.px[V.py == e]
    worst = max(worst, np.abs(C[at, e, at] - one).max(initial=0))
    for side, other in ((V.x, V.y), (V.y, V.x)):
        off = (side == e) & (V.z != other)
        worst = max(worst, np.bincount(other[off], np.abs(c[off]), minlength=V.n).max())
    out["identity"] = worst

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    mirrored = has_row[inv[V.y], inv[V.x]]
    out["involution"] = np.abs(c - C[inv[V.y], inv[V.x], inv[V.z]])[mirrored].max(initial=0)

    # support law: e in supp(x.y) iff y = x~; a missing e counts as 1
    ce = C[V.px, V.py, e]
    to_inverse = V.py == inv[V.px]
    out["support"] = max(np.abs(ce[~to_inverse]).max(initial=0),
                         one if (ce[to_inverse] <= 0).any() else 0.0)

    out["associativity"], checked = _associativity(V, C)
    return out, checked


def _associativity(V: TableView, C: np.ndarray) -> tuple[float, int]:
    """Largest |((x.y).z - x.(y.z))_v| over the triples inside the section.

    A triple (x, y, z) is checked when every row both sides use is stored:
    x.y, y.z, w.z for w in supp(x.y) and x.w for w in supp(y.z).  For each
    x, the slabs ``L = C[x] @ C.reshape(n, n*n)`` and ``R = C.reshape(n*n, n)
    @ C[x]`` hold both sides for all (y, z, v); they are taken in blocks of
    y so that they stay below a quarter of ``C`` each.  Returns the worst
    violation and the number of triples checked.
    """
    n = V.n
    left_of, right_of = C.reshape(n, n * n), C.reshape(n * n, n)
    missing = ~V.has_row
    gaps = missing.astype(float) if missing.any() else None
    block = max(1, max(n**3 // 4, 4096) // (n * n))
    worst, checked = 0.0, 0
    for x in range(n):
        ys = np.flatnonzero(V.has_row[x])
        if not ys.size:
            continue
        ok = np.zeros((n, n), dtype=bool)
        ok[ys] = True
        if gaps is not None:
            ok &= V.has_row
            ok &= (C[x] != 0).astype(float) @ gaps == 0
            bad = np.bincount(V.pair, weights=gaps[x, V.z], minlength=len(V.px)) > 0
            ok[V.px[bad], V.py[bad]] = False
        checked += int(ok.sum())
        for lo in range(ys[0], ys[-1] + 1, block):
            hi = min(lo + block, ys[-1] + 1)
            if not ok[lo:hi].any():
                continue
            diff = C[x, lo:hi] @ left_of
            diff -= (right_of[lo * n:hi * n] @ C[x]).reshape(hi - lo, n * n)
            np.abs(diff, out=diff)
            worst = max(worst, diff.reshape(hi - lo, n, n).max(axis=2)[ok[lo:hi]].max())
    return worst, checked


def haar_defect(V: TableView, c: np.ndarray, lam: np.ndarray) -> float:
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples."""
    xi = V.inv[V.x]
    mirror = V.dense(c)[xi, V.z, V.y]
    return np.abs(lam[V.y] * c - lam[V.z] * mirror)[V.has_row[xi, V.z]].max(initial=0)
