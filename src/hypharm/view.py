"""The numeric view of a hypergroup table and the array checks run on it.

:class:`TableView` is the read-only array form of a
:class:`~hypharm.core.HypergroupTable`, which holds it from construction
as ``H.view``.  The axiom and Haar checks of :mod:`hypharm.core` and the
spectral code run on it.  The functions here take coefficient arrays
aligned with the view's entries.  A float table's checks run on its
float64 coefficients.  An exact table's checks are exact, by the first of
three paths that applies (:func:`hypharm.core.verify_axioms`):

* the N-form.  A view built with scales ``s`` (the fusion sections and
  fusion-ring tables) holds integers N with
  ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)``.  Associativity runs on N in
  float64, in one pass, and the checks on single entries run once on the
  exact integer numerators of c (:func:`form_defects_vanish`).  It runs
  while ``2 n max|N|^2 <= 2**53``, which holds for every such table here;
* the numerators in float64.  Integer numerators over a common
  denominator, held in float64 while every sum the checks form is exact
  (:meth:`TableView.exact`);
* CRT.  Beyond that bound, one row of residues per prime, with every
  difference reduced modulo its prime (:func:`axiom_defects_vanish`,
  :func:`crt_primes`).

The N-form and the residues can only show that every defect is 0; when
one is not, the next path runs, and after the residues the Fraction loop
of :mod:`hypharm.core`, which is also the oracle the array paths are
tested against.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from operator import truediv

import numpy as np

# Integers up to 2**53 are exact in float64.
EXACT_FLOAT = 2**53
# Values in the dense residue arrays of one pass (512 KB of float64), unless
# one prime's array alone is larger.
RESIDUE_BATCH = 2**16
# Values in one associativity slab (128 KB of float64) at least: a table
# with n**3 <= 2**14 (n <= 25) takes all y in one slab per x.
SLAB_FLOOR = 2**14


@functools.cache
def _primes(bits: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below ``2**bits``, by a sieve of the range below."""
    top, span = 1 << bits, 2 * count * bits
    while True:
        lo = max(top - span, 2)
        sieve = np.ones(top - lo, dtype=bool)
        for d in range(2, math.isqrt(top) + 1):
            sieve[max(d * d, -(-lo // d) * d) - lo::d] = False
        found = lo + np.flatnonzero(sieve)[::-1]
        if len(found) >= count or lo == 2:
            return tuple(int(p) for p in found[:count])
        span *= 2


def crt_primes(n: int, height: int) -> np.ndarray:
    """Primes with ``n p**2 <= 2**53`` whose product exceeds ``2 * height``.

    A sum of ``n`` products of two residues modulo such a prime, and the
    difference of two such sums, is exact in float64.  An integer of
    absolute value at most ``height`` that is 0 modulo each prime is 0 (the
    Chinese remainder theorem).
    """
    bits = (53 - (n - 1).bit_length()) // 2
    count = 16
    while True:
        primes, prod = _primes(bits, count), 1
        for k, p in enumerate(primes, start=1):
            prod *= p
            if prod > 2 * height:
                return np.array(primes[:k], dtype=float)
        if len(primes) < count:
            raise ArithmeticError(f"fewer than {count} primes below 2**{bits}")
        count *= 2


def residues(values: list[int], primes: np.ndarray) -> np.ndarray:
    """``values`` modulo each prime, one row per prime, in float64."""
    return np.fromiter((v % p for p in map(int, primes) for v in values), float,
                       len(primes) * len(values)).reshape(len(primes), len(values))


def _defect(d: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """|d|, in place; given primes ``p`` (one per leading row), |d - p rint(d / p)|.

    For integers with ``|d| + p <= 2**53`` the second is an exact integer
    congruent to ``d`` modulo ``p``, so it is 0 exactly when ``d`` is 0
    modulo ``p``.
    """
    if p is not None:
        p = p.reshape((-1,) + (1,) * (d.ndim - 1))
        q = np.rint(d / p)
        q *= p
        d -= q
    return np.abs(d, out=d)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def int_array(values) -> np.ndarray:
    """The Python integers ``values`` in int64 if each is at most 2**53 in size.

    Below 2**53 an integer is exact in float64, so the float64 quotient of
    two such integers is the correctly rounded one; larger ones stay Python
    ints, in an object array.
    """
    values = list(values)
    big = max(map(abs, values), default=0) > EXACT_FLOAT
    return np.array(values, dtype=object if big else np.int64)


class TableView:
    """Read-only array form of a table, shared by every numeric path.

    Every stored coefficient is one entry ``c^z_{x,y}``; commutative tables
    list each product in both orders.  Entries are sorted by ``(x, y, z)``:

    * ``x, y, z, c`` -- the entries, indices in int32, ``c`` in float64
      (for a rational table each ``c`` is the correctly rounded quotient of
      its exact value, computed on first use);
    * ``px, py`` -- the stored products, ``starts`` their CSR offsets into
      the entries and ``pair`` the product of each entry;
    * ``has_row`` -- the ``n x n`` mask of stored products;
    * ``inv`` -- the involution;
    * ``rational`` -- whether the coefficients are exact rationals;
    * :meth:`dense` -- the coefficients as an ``n x n x n`` array;
    * :meth:`row` and :meth:`rows` -- the coefficients as table rows, exact
      ones as Fractions;
    * :meth:`exact` -- integer numerators over one common denominator (on
      first use, exact tables only);
    * ``N`` -- for a table given in its N-form, the integers N of
      ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` per entry, else None.

    The view is built from its entries, given as arrays by a builder or
    gathered from the rows a table is given, or by :meth:`product` from the
    views of two factors.  It depends on nothing else.
    """

    def __init__(self, n: int, identity: int, involution, commutative: bool,
                 x, y, z, value, scale=None):
        """The view of the entries ``c^z_{x,y}`` listed in ``x, y, z``.

        ``value`` holds one coefficient per entry: a pair ``(num, den)`` of
        integer arrays for an exact table (int64, or Python ints beyond
        2**53), else a float array.  With ``scale``, one nonzero rational
        ``s`` per point (an int or a Fraction), the table is given in its
        N-form: ``value`` holds integers ``N`` and
        ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)``, kept as :attr:`N`
        (Bloom and Heyer 1995, ch. 1).  A commutative table
        names each product once, in either order, or in both orders with
        the same row.  Entries already sorted by ``(x, y, z)`` are taken as
        they are.  Zero coefficients are dropped; their product stays
        stored, so that a product given only zeros is a stored row without
        entries.  Raises ValueError for an index out of range, a support
        index named twice in one row, two orders of one product with
        different rows, a non-finite float, a zero denominator or a zero
        scale.
        """
        x, y, z = (np.asarray(a, dtype=np.int64).ravel() for a in (x, y, z))

        def key(i):
            return (int(x[i]), int(y[i]))

        def fail(mask, message):
            if (bad := np.flatnonzero(mask)).size:
                raise ValueError(message(bad[0]))

        fail((x < 0) | (x >= n) | (y < 0) | (y >= n), lambda i: f"row index {key(i)} out of range")
        flip = np.zeros(len(x), dtype=bool)
        if commutative:
            flip = x > y
            x, y = np.where(flip, y, x), np.where(flip, x, y)
        fail((z < 0) | (z >= n), lambda i: f"support index {z[i]} out of range in row {key(i)}")
        rational = scale is not None or isinstance(value, tuple)
        if scale is not None:
            # the coefficients are formed from N and the scales when read
            num, den = [v.numerator for v in scale], [v.denominator for v in scale]
            if len(num) != n or not all(num):
                raise ValueError(f"an N-form needs {n} nonzero scales")
            vals = [np.asarray(value, dtype=np.int64).ravel()]
        elif rational:
            vals = [np.asarray(a).ravel() for a in value]
            # int64 only below 2**53 (see int_array), else Python ints for both
            if any(a.dtype == object or np.abs(a).max(initial=0) > EXACT_FLOAT for a in vals):
                vals = [a.astype(object, copy=False) for a in vals]
            if (vals[1] <= 0).any():
                fail(vals[1] == 0, lambda i: f"structure constants must have nonzero "
                                             f"denominators, got 0 in row {key(i)}")
                vals = [np.where(vals[1] < 0, -a, a) for a in vals]
        else:
            vals = [np.asarray(value, dtype=float).ravel()]
            fail(~np.isfinite(vals[0]), lambda i: f"structure constants must be finite, "
                                                  f"got {vals[0][i]} in row {key(i)}")

        # sorted by row (x, y) and, within a commutative row, by the order given
        order = ((x * n + y) * 2 + flip) * n + z
        if not (np.diff(order) > 0).all():
            s = np.argsort(order, kind="stable")
            x, y, z, flip, order = x[s], y[s], z[s], flip[s], order[s]
            vals = [a[s] for a in vals]
            fail(np.diff(order) == 0, lambda i: f"row {key(i)} names support index {z[i]} twice")
        nonzero = vals[0] != 0
        product = x * n + y
        if flip.any():
            # a product named in both orders: the two rows must agree
            both = np.isin(product, product[flip]) & np.isin(product, product[~flip])
            given: dict = {}
            for i in np.flatnonzero(both & nonzero).tolist():
                v = Fraction(int(vals[0][i]), int(vals[1][i])) if len(vals) == 2 else vals[0][i]
                given.setdefault((int(product[i]), bool(flip[i])), []).append((z[i], v))
            for p in np.unique(product[both]).tolist():
                if given.get((p, False)) != given.get((p, True)):
                    raise ValueError(f"conflicting data for row {(p // n, p % n)}")
            keep = ~(flip & both)
            x, y, z, nonzero, product = x[keep], y[keep], z[keep], nonzero[keep], product[keep]
            vals = [a[keep] for a in vals]

        # the stored products, and their entries without the zeros
        first = np.flatnonzero(np.concatenate(([True], product[1:] != product[:-1])))
        counts = np.diff(np.append(first, len(product)))
        if not nonzero.all():
            counts = np.add.reduceat(nonzero.astype(np.int64), first) if len(first) else first
            z, vals = z[nonzero], [a[nonzero] for a in vals]
        px, py = x[first], y[first]
        if scale is not None:
            x, y = np.repeat(px, counts), np.repeat(py, counts)  # of each stored coefficient

        # a commutative table's products are stored once; their mirrored
        # products reuse the stored entries
        first = np.cumsum(counts) - counts
        if commutative:
            off = px != py
            first = np.concatenate((first, first[off]))
            counts = np.concatenate((counts, counts[off]))
            px, py = np.concatenate((px, py[off])), np.concatenate((py, px[off]))
        s = np.argsort(px * n + py, kind="stable")
        px, py, first, counts = px[s], py[s], first[s], counts[s]
        starts = np.concatenate(([0], np.cumsum(counts)))
        # entry i of product p is stored entry first[p] + i - starts[p]
        self._source = np.arange(starts[-1]) + np.repeat(first - starts[:-1], counts)
        self._index(n, identity, involution, commutative, rational, px, py, starts,
                    self.entries(z))
        if scale is not None:
            # products of three scale terms and N in int64 while they stay below 2**53
            big = max(map(abs, num + den)) ** 3 * int(np.abs(vals[0]).max(initial=1)) > EXACT_FLOAT
            num, den = (np.array(a, dtype=object if big else np.int64) for a in (num, den))
            self._form = (vals[0], x, y, z, num, den)
            self.N = _frozen(self.entries(vals[0]))
        elif rational:
            self._nd = tuple(vals)
        else:
            self.c = _frozen(self.entries(vals[0]))

    def _index(self, n, identity, involution, commutative, rational, px, py, starts, z):
        """Set the entry arrays from the sorted products and their entries."""
        self.n, self.identity, self.commutative, self.rational = n, identity, commutative, rational
        self.px, self.py = _frozen(px.astype(np.int32)), _frozen(py.astype(np.int32))
        self.starts = _frozen(starts)
        self.pair = _frozen(np.repeat(np.arange(len(px), dtype=np.int32), np.diff(starts)))
        self.x, self.y = _frozen(self.px[self.pair]), _frozen(self.py[self.pair])
        self.z = _frozen(z.astype(np.int32))
        has_row = np.zeros((n, n), dtype=bool)
        has_row[self.px, self.py] = True
        self.has_row = _frozen(has_row)
        self.inv = _frozen(np.array(involution, dtype=np.int32))
        self.N, self._form = None, None
        self._exact = None

    @classmethod
    def product(cls, V1: "TableView", V2: "TableView") -> "TableView":
        """The view of the product of two finite tables, from the factors' views.

        Point ``(x, u)`` is index ``x n2 + u`` and
        ``c^{(z,w)}_{(x,u),(y,v)} = c^z_{x,y} c^w_{u,v}``: the entries of a
        product are the pairs of entries of the two factor rows, in their
        order, which keeps them sorted by ``(x, y, z)``.  Exact numerators
        multiply over ``D1 D2``, and ``c`` is their quotient, rounded once,
        as ``float`` rounds the Fraction; ``c1 c2`` in float64 could be
        1 ulp off it.  A float factor makes the product a float table with
        ``c = c1 c2``.
        """
        if not (V1.has_row.all() and V2.has_row.all()):
            raise ValueError("a product needs finite tables")
        n1, n2 = V1.n, V2.n
        # the products (x, u).(y, v) in sorted order, as the factor products
        # p1 = (x, y) and p2 = (u, v); complete views list them in that order
        grid = np.arange(n1 * n2)
        p1 = ((grid // n2)[:, None] * n1 + grid // n2).ravel()
        p2 = ((grid % n2)[:, None] * n2 + grid % n2).ravel()
        k1, k2 = np.diff(V1.starts)[p1], np.diff(V2.starts)[p2]
        starts = np.concatenate(([0], np.cumsum(k1 * k2)))
        # the entry t of product p pairs entry i of p1's row with entry j of p2's
        pair = np.repeat(np.arange(len(p1)), k1 * k2)
        local, k2 = np.arange(starts[-1]) - starts[pair], k2[pair]
        i = V1.starts[p1][pair] + local // k2
        j = V2.starts[p2][pair] + local % k2
        V = cls.__new__(cls)
        V._source = None
        rational = V1.rational and V2.rational
        if rational:
            (N1, D1), (N2, D2) = V1.numerators(), V2.numerators()
            den = D1 * D2
            small = max(max(map(abs, N1)) * max(map(abs, N2)), den) <= EXACT_FLOAT
            kind = np.int64 if small else object  # else Python ints
            N = V1.entries(np.array(N1, dtype=kind))[i] * V2.entries(np.array(N2, dtype=kind))[j]
            V._nd = (N, den)
        else:
            V.c = _frozen(V1.c[i] * V2.c[j])
        inv = V1.inv[:, None] * n2 + V2.inv
        V._index(n1 * n2, V1.identity * n2 + V2.identity, inv.ravel(),
                 V1.commutative and V2.commutative, rational,
                 grid.repeat(n1 * n2), np.tile(grid, n1 * n2), starts,
                 V1.z[i] * n2 + V2.z[j])
        return V

    def _fractions(self, j) -> tuple:
        """``(num, den)`` of the stored coefficients ``j``; ``den`` may be one for all.

        A view in its N-form forms them from N and the scales, until
        :attr:`_nd` holds them all.
        """
        if self._form is None or "_nd" in vars(self):
            num, den = self._nd
            return num[j], (den[j] if np.ndim(den) else den)
        N, x, y, z, num, den = self._form
        N, x, y, z = N[j], x[j], y[j], z[j]
        return N * num[z] * den[x] * den[y], den[z] * num[x] * num[y]

    @cached_property
    def _nd(self) -> tuple:
        """``(num, den)`` of every stored coefficient, as :meth:`_fractions` gives them."""
        return self._fractions(slice(None))

    def _quotients(self, j=slice(None)) -> np.ndarray:
        """``num / den`` of the stored coefficients ``j`` in float64, each rounded once."""
        num, den = self._fractions(j)
        if num.dtype == object:  # int64 numerators come with denominators below 2**53
            # Python's int / int rounds correctly at any size
            den = den.tolist() if np.ndim(den) else repeat(den)
            return np.fromiter(map(truediv, num.tolist(), den), float, len(num))
        return num / den

    @cached_property
    def c(self) -> np.ndarray:
        """A rational view's coefficients in float64, each rounded once from ``num / den``."""
        return _frozen(self.entries(self._quotients()))

    def floats(self, i) -> np.ndarray:
        """``c`` at the entries ``i``; of a rational view, computed for those entries alone.

        Until something reads :attr:`c`, the big-integer quotients of the
        other entries are not formed.
        """
        if not self.rational or "c" in vars(self):
            return self.c[i]
        return self._quotients(i if self._source is None else self._source[i])

    def dense(self, c: np.ndarray) -> np.ndarray:
        """The array ``C[..., x, y, z]`` of the values ``c``, 0 off the entries.

        ``c`` holds one value per entry in its last axis; leading axes carry over.
        """
        C = np.zeros(c.shape[:-1] + (self.n,) * 3)
        C[..., self.x, self.y, self.z] = c
        return C

    def numerators(self) -> tuple[list[int], int]:
        """Integer numerators of the stored coefficients and ``D``.

        Each coefficient is ``N / D`` over the common denominator ``D``, the
        least common multiple of the coefficients' reduced denominators
        (for a view built by :meth:`product`, ``D1 D2``).  Arrays aligned
        with these numerators map to the view's entries through :meth:`entries`.
        """
        num, den = self._nd
        if np.ndim(den) == 0:
            return num.tolist(), den
        g = np.gcd(num, den)
        num, den = (num // g).tolist(), (den // g).tolist()
        common = math.lcm(*set(den))
        return [a * (common // b) for a, b in zip(num, den)], common

    def entries(self, a: np.ndarray) -> np.ndarray:
        """Values given per stored coefficient, rearranged to the view's entries."""
        return a if self._source is None else a[..., self._source]

    def _coefficients(self, i: np.ndarray) -> list:
        """The coefficients of the entries ``i``: Fractions if rational, else floats."""
        if not self.rational:
            return self.c[i].tolist()
        if self._source is not None:
            i = self._source[i]
        num, den = self._fractions(i)
        return list(map(Fraction, num.tolist(), den.tolist() if np.ndim(den) else repeat(den)))

    @cached_property
    def _products(self) -> np.ndarray:
        return self.px.astype(np.int64) * self.n + self.py

    def row(self, x: int, y: int) -> tuple:
        """The row ``((z, c), ...)`` of the stored product ``x . y``."""
        p = int(np.searchsorted(self._products, x * self.n + y))
        i = np.arange(self.starts[p], self.starts[p + 1])
        return tuple(zip(self.z[i].tolist(), self._coefficients(i)))

    def rows(self) -> dict:
        """All rows ``(x, y) -> ((z, c), ...)``; commutative tables keep ``x <= y``."""
        keep = self.px <= self.py if self.commutative else np.ones(len(self.px), dtype=bool)
        i = np.flatnonzero(keep[self.pair])
        z, vals = self.z[i].tolist(), self._coefficients(i)
        out, lo = {}, 0
        for x, y, k in zip(self.px[keep].tolist(), self.py[keep].tolist(),
                           np.diff(self.starts)[keep].tolist()):
            out[(x, y)] = tuple(zip(z[lo:lo + k], vals[lo:lo + k]))
            lo += k
        return out

    def same_entries(self, other: "TableView") -> bool:
        """True if both views store the same products and entries with equal coefficients.

        Two exact views compare their numerators over the common
        denominator; otherwise the rows are compared.
        """
        if (self.n, self.commutative) != (other.n, other.commutative) or not all(
                np.array_equal(getattr(self, k), getattr(other, k))
                for k in ("px", "py", "starts", "z")):
            return False
        if not (self.rational and other.rational):
            return self.rows() == other.rows()
        (n1, d1), (n2, d2) = self.numerators(), other.numerators()
        return d1 == d2 and np.array_equal(self.entries(np.array(n1, dtype=object)),
                                           other.entries(np.array(n2, dtype=object)))

    def exact(self) -> tuple[np.ndarray, int] | None:
        """Numerators ``N`` and denominator ``D`` with ``c = N / D``, or None.

        ``N`` is held in float64, so it is None when ``2 n max|N|^2 > 2**53``:
        below that bound every sum of ``n`` products of two numerators, and
        every difference of two such sums, is an exact integer.
        """
        if self._exact is None:
            nums, den = self.numerators()
            top = max(map(abs, nums), default=0)
            self._exact = False
            if 2 * self.n * top * top <= EXACT_FLOAT:
                self._exact = (_frozen(self.entries(np.array(nums, dtype=float))), den)
        return self._exact or None


def _worst(a, b):
    """The larger of ``a`` and ``b``, or NaN if one is NaN (``max`` keeps the first)."""
    return a if a >= b or a != a else b


def _gather(V: TableView, c: np.ndarray):
    """The function ``(x, y, z) -> c^z_{x,y}`` of the values ``c``, 0 off the entries.

    It reads a dense ``n x n x n`` map of entry indices, so that it works
    for any dtype of ``c`` and for one row of ``c`` per prime alike.
    """
    index = np.full((V.n,) * 3, len(V.z), dtype=np.int32)
    index[V.x, V.y, V.z] = np.arange(len(V.z), dtype=np.int32)
    padded = np.concatenate((c, np.zeros(c.shape[:-1] + (1,), dtype=c.dtype)), axis=-1)
    return lambda x, y, z: padded[..., index[x, y, z]]


def axiom_defects(V: TableView, c: np.ndarray, one, p: np.ndarray | None = None,
                  s: np.ndarray | None = None) -> tuple[dict, int]:
    """The worst violation of each axiom, and the associativity triples checked.

    ``c`` holds the entries' coefficients in units of ``1 / one``; the
    violations come in the same units, except associativity, whose are
    ``1 / one**2``.  The checks are those of
    :func:`hypharm.core.verify_axioms`, in its report order: those of
    :func:`entry_defects`, then associativity on the dense array of ``c``.
    """
    out = entry_defects(V, c, one, p, s)
    out["associativity"], checked = _associativity(V, V.dense(c), p)
    return out, checked


def entry_defects(V: TableView, c: np.ndarray, one, p: np.ndarray | None = None,
                  s: np.ndarray | None = None) -> dict:
    """The worst violation of each axiom but associativity, from the entries alone.

    ``c`` and ``one`` are as in :func:`axiom_defects`; ``c`` may also hold
    Python integers (an object array), which keeps every sum exact at any
    size.  With primes ``p``, ``c`` holds one row of residues per prime and
    ``one`` a column of the unit's residues; every difference is reduced
    modulo its prime, so a violation is 0 exactly when its difference is 0
    modulo each prime.  Residues carry no sign, so the tests of sign and of
    nonzero values read ``s``: the signs of the coefficients (by default
    ``c``).
    """
    if s is None:
        s = c
    e, inv, has_row = V.identity, V.inv, V.has_row
    at = _gather(V, c)
    out = {}
    sums = np.zeros(c.shape[:-1] + (len(V.px),), dtype=c.dtype)
    np.add.at(sums, (..., V.pair), c)
    out["probability"] = _worst(_defect(sums - one, p).max(initial=0), -s.min(initial=0))

    out["commutativity"] = 0.0
    if not V.commutative:
        both = has_row[V.y, V.x]
        out["commutativity"] = _defect(c - at(V.y, V.x, V.z), p)[..., both].max(initial=0)

    # rows e.x and x.e: mass 1 at x and none elsewhere
    ys = V.py[V.px == e]
    worst = _defect(at(e, ys, ys) - one, p).max(initial=0)
    xs = V.px[V.py == e]
    worst = _worst(worst, _defect(at(xs, e, xs) - one, p).max(initial=0))
    for side, other in ((V.x, V.y), (V.y, V.x)):
        off = (side == e) & (V.z != other)
        mass = np.zeros(V.n, dtype=s.dtype)
        np.add.at(mass, other[off], np.abs(s[off]))
        worst = _worst(worst, mass.max())
    out["identity"] = worst

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    mirrored = has_row[inv[V.y], inv[V.x]]
    out["involution"] = _defect(c - at(inv[V.y], inv[V.x], inv[V.z]), p)[
        ..., mirrored].max(initial=0)

    # support law: e in supp(x.y) iff y = x~; a missing e counts as 1, and
    # with primes as the largest residue of 1, which is not 0
    ce = np.zeros(len(V.px), dtype=s.dtype)
    to_e = V.z == e
    ce[V.pair[to_e]] = s[to_e]
    to_inverse = V.py == inv[V.px]
    out["support"] = _worst(np.abs(ce[~to_inverse]).max(initial=0),
                            0.0 if (ce[to_inverse] > 0).all() else np.max(one))
    return out


def _associativity(V: TableView, C: np.ndarray, p: np.ndarray | None) -> tuple[float, int]:
    """Largest |((x.y).z - x.(y.z))_v| over the triples inside the section.

    A triple (x, y, z) is checked when every row both sides use is stored:
    x.y, y.z, w.z for w in supp(x.y) and x.w for w in supp(y.z).  For each
    x, the slabs ``L = C[x] @ C.reshape(n, n*n)`` and ``R = C.reshape(n*n, n)
    @ C[x]`` hold both sides for all (y, z, v); they are taken in blocks of
    y so that they stay below a quarter of ``C`` each, or of one of its
    ``n x n x n`` layers when ``C`` has a leading axis (one per prime
    ``p``), or below :data:`SLAB_FLOOR` values if that is more.  A block
    takes only the span of z that holds its checked triples.  Returns the
    worst violation and the number of triples checked.
    """
    n, lead = V.n, C.shape[:-3]
    left_of = C.reshape(lead + (n, n * n))
    missing = ~V.has_row
    gaps = missing.astype(float) if missing.any() else None
    if gaps is not None:
        stored = np.zeros((n, n, n), dtype=bool)
        stored[V.x, V.y, V.z] = True
    block = max(1, max(n**3 // 4, SLAB_FLOOR) // (n * n * math.prod(lead)))
    worst, checked = 0.0, 0
    for x in range(n):
        ys = np.flatnonzero(V.has_row[x])
        if not ys.size:
            continue
        ok = np.zeros((n, n), dtype=bool)
        ok[ys] = True
        if gaps is not None:
            ok &= V.has_row
            ok &= stored[x].astype(float) @ gaps == 0
            bad = np.bincount(V.pair, weights=gaps[x, V.z], minlength=len(V.px)) > 0
            ok[V.px[bad], V.py[bad]] = False
        checked += int(ok.sum())
        for lo in range(ys[0], ys[-1] + 1, block):
            hi = min(lo + block, ys[-1] + 1)
            z0, z1 = 0, n
            if gaps is not None:  # a section: only some (y, z) are checked
                zs = np.flatnonzero(ok[lo:hi].any(axis=0))
                if not zs.size:
                    continue
                # the columns (z, v) of z0 <= z < z1 are one strided block of C
                z0, z1 = zs[0], zs[-1] + 1
            diff = C[..., x, lo:hi, :] @ left_of[..., z0 * n:z1 * n]
            diff -= (C[..., lo:hi, z0:z1, :].reshape(lead + (-1, n))
                     @ C[..., x, :, :]).reshape(diff.shape)
            diff = _defect(diff, p).reshape(lead + (hi - lo, z1 - z0, n))
            worst = _worst(worst, diff.max(axis=-1)[..., ok[lo:hi, z0:z1]].max())
    return worst, checked


def haar_defect(V: TableView, c: np.ndarray, lam: np.ndarray,
                p: np.ndarray | None = None) -> float:
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples.

    With primes ``p``, ``c`` and ``lam`` hold one row of residues per prime
    and the differences are reduced modulo their primes, as in
    :func:`entry_defects`.
    """
    xi = V.inv[V.x]
    d = lam[..., V.y] * c - lam[..., V.z] * _gather(V, c)(xi, V.z, V.y)
    return _defect(d, p)[..., V.has_row[xi, V.z]].max(initial=0)


def _batches(V: TableView, primes: np.ndarray):
    """``primes`` in groups whose dense residue arrays stay within RESIDUE_BATCH."""
    step = max(1, RESIDUE_BATCH // V.n**3)
    return (primes[i:i + step] for i in range(0, len(primes), step))


def form_defects_vanish(V: TableView) -> tuple[dict, int] | None:
    """:func:`axiom_defects` of a table in its N-form, if all of them are 0.

    ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` is a diagonal similarity of
    N: both sides of associativity at ``(x, y, z)`` and ``v`` are the same
    multiple ``s_v / (s_x s_y s_z)`` of those of N, so c is associative
    exactly when N is.  Associativity runs on N in float64, in one pass,
    exact while ``2 n max|N|^2 <= 2**53``; the other checks run once on the
    exact numerators of c (:func:`entry_defects`).  Returns the defects
    (all 0) and the triples checked, or None if the view has no N-form, N
    is too large, or some defect is not 0.
    """
    if V.N is None:
        return None
    top = int(np.abs(V.N).max(initial=0))
    if 2 * V.n * top * top > EXACT_FLOAT:
        return None
    nums, den = V.numerators()
    # sums of n numerators stay exact in int64 below 2**63 / (n + 1)
    kind = np.int64 if (V.n + 1) * max(max(map(abs, nums), default=0), den) < 2**63 else object
    worst = entry_defects(V, V.entries(np.array(nums, dtype=kind)), den)
    if any(worst.values()):
        return None
    worst["associativity"], checked = _associativity(V, V.dense(V.N.astype(float)), None)
    return None if worst["associativity"] else (worst, checked)


def axiom_defects_vanish(V: TableView) -> tuple[dict, int] | None:
    """:func:`axiom_defects` of an exact table, by residues, if all of them are 0.

    For tables beyond :meth:`TableView.exact`'s bound.  With numerators
    ``N`` over ``D``, the differences the checks form are integers of
    absolute value at most ``2 n max|N|^2`` (associativity) or
    ``D + n max|N|`` (row sums, identity masses and entry against entry);
    they are 0 exactly when they are 0 modulo each of :func:`crt_primes`
    for that height.  Returns the defects (all 0) and the triples checked,
    or None if some defect is not 0.
    """
    nums, den = V.numerators()
    top = max(map(abs, nums), default=0)
    primes = crt_primes(V.n, max(2 * V.n * top * top, den + V.n * top))
    signs = V.entries(np.fromiter(((v > 0) - (v < 0) for v in nums), float, len(nums)))
    for p in _batches(V, primes):
        worst, checked = axiom_defects(V, V.entries(residues(nums, p)),
                                       residues([den], p), p, signs)
        if any(worst.values()):
            return None
    return worst, checked


def haar_defect_vanishes(V: TableView, lam: list[int]) -> bool:
    """True if :func:`haar_defect` of an exact table is 0, by residues.

    ``lam`` are the Haar weights' numerators over a common denominator.  A
    difference is at most ``2 max|lam| max|N|`` in absolute value.
    """
    nums, _ = V.numerators()
    height = 2 * max(map(abs, lam)) * max(map(abs, nums), default=0)
    return not any(haar_defect(V, V.entries(residues(nums, p)), residues(lam, p), p)
                   for p in _batches(V, crt_primes(V.n, height)))
