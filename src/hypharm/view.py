"""The numeric view of a hypergroup table and the array checks run on it.

:class:`TableView` is the read-only array form of a
:class:`~hypharm.core.HypergroupTable`, which holds it from construction
as ``H.view``.  The axiom and Haar checks of :mod:`hypharm.core` and the
spectral code run on it.  The functions here take coefficient arrays
aligned with the view's entries.

A view holds float64 coefficients, or, for an exact table, integers N per
entry and one nonzero rational scale ``s`` per point with

    c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)

(Bloom and Heyer 1995, ch. 1; Bannai and Ito 1984).  Every exact table
has this form: a group has N = 1 and s = 1, Conj(G) the class sizes as s,
Irr(G) and the fusion rings the multiplicities as N and the dimensions as
s, the fusion sections N = 1 and s = [a]_q, the tree s = lam, and a
product N1 N2 and s1 s2.  Rows given as Fractions are their numerators N
over the common denominator D, with every s = D, so that c = N / D.

A float table's checks run on its coefficients.  An exact table's are
exact (:func:`exact_defects`):

* the checks on single entries, and the Haar identity, run once on the
  exact integer numerators of c over one common denominator
  (:meth:`TableView.numerators`);
* associativity runs on N.  Both sides at ``(x, y, z)`` and ``v`` are the
  same multiple ``s_v / (s_x s_y s_z)`` of those of N, so c is associative
  exactly when N is.  It takes one float64 pass while
  ``2 n max|N|^2 <= 2**53``, and beyond that bound one pass on N's residues
  per batch of :func:`crt_primes`;
* a product built by :meth:`TableView.product` takes associativity from
  its two factors: ``N = N1 (x) N2``, so both sides of its law are tensor
  products of the factors' sides.  A factor that fails sends it to the
  full check.

A nonzero associativity defect of N is c's, divided by ``s**2``, only
when s is uniform; otherwise, and when the residues show one, the Fraction
loop of :mod:`hypharm.core` reports it.  That loop is also the oracle the
array paths are tested against.
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


def residues(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The integers ``values`` modulo each prime, one row per prime, in float64."""
    return np.stack([values % int(p) for p in primes]).astype(float)


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


def max_abs(a: np.ndarray) -> int:
    """The largest absolute value of the integers ``a`` (0 if none), as a Python int."""
    return int(np.abs(a).max(initial=0))


def int_array(values) -> np.ndarray:
    """The integers ``values`` in int64, or as Python ints (an object array) beyond int64."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    a = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=object)
    return a if max_abs(a) >= 2**63 else a.astype(np.int64)


class TableView:
    """Read-only array form of a table, shared by every numeric path.

    Every stored coefficient is one entry ``c^z_{x,y}``; commutative tables
    list each product in both orders.  Entries are sorted by ``(x, y, z)``:

    * ``x, y, z, c`` -- the entries, indices in int32, ``c`` in float64
      (for an exact table each ``c`` is the correctly rounded quotient of
      its exact value, computed on first use);
    * ``px, py`` -- the stored products, ``starts`` their CSR offsets into
      the entries and ``pair`` the product of each entry;
    * ``has_row`` -- the ``n x n`` mask of stored products;
    * ``n``, ``identity``, ``inv`` and ``commutative`` -- the size, the
      identity, the involution and whether the product commutes, which a
      :class:`~hypharm.core.HypergroupTable` takes from its view;
    * ``rational`` -- whether the coefficients are exact;
    * ``N`` -- of an exact table, the integers N of
      ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` per entry (int64, or Python
      ints beyond int64), else None; ``uniform`` -- whether every point has
      the same scale ``s``, so that ``c = N / s``;
    * :meth:`dense` -- the coefficients as an ``n x n x n`` array;
    * :meth:`coefficients`, :meth:`row` and :meth:`rows` -- the
      coefficients of some entries, or as table rows, exact ones as
      Fractions;
    * :attr:`numerators` -- an exact table's coefficients as integers over
      one common denominator (on first use);
    * ``factors`` -- the two factor views of a view built by
      :meth:`product`, else None.

    The view is built from its entries, given as arrays by a builder or
    gathered from the rows a table is given, or by :meth:`product` from the
    views of two factors.  It depends on nothing else.
    """

    def __init__(self, n: int, identity: int, involution, commutative: bool,
                 x, y, z, value, scale=None):
        """The view of the entries ``c^z_{x,y}`` listed in ``x, y, z``.

        ``value`` holds one value per entry.  Without ``scale`` they are the
        float coefficients.  With ``scale``, one nonzero rational ``s`` per
        point (an int or a Fraction), they are integers N (int64, or Python
        ints beyond int64) with ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)``.
        A commutative table names each product once, in either order, or in
        both orders with the same row.  Entries already sorted by
        ``(x, y, z)`` are taken as they are.  Zero coefficients are dropped;
        their product stays stored, so that a product given only zeros is a
        stored row without entries.  Raises ValueError for a size below 1, an
        identity out of range, an involution that is not a permutation or
        not involutive, an index out of range, a count of values that is not
        the count of entries, a support index named twice in one row, two
        orders of one product with different rows, a non-finite float or a
        zero scale.
        """
        if n <= 0:
            raise ValueError("size must be positive")
        if not 0 <= identity < n:
            raise ValueError("identity index out of range")
        inv = np.asarray(involution, dtype=np.int64)
        if not np.array_equal(np.sort(inv), np.arange(n)):
            raise ValueError("involution is not a permutation")
        if (inv[inv] != np.arange(n)).any():
            raise ValueError("involution is not involutive")
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
        if scale is None:
            vals = np.asarray(value, dtype=float).ravel()
        else:
            num, den = [int(v.numerator) for v in scale], [int(v.denominator) for v in scale]
            if len(num) != n or not all(num):
                raise ValueError(f"an N-form needs {n} nonzero scales")
            vals = int_array(value).ravel()
        if len(vals) != len(x):
            raise ValueError(f"{len(vals)} values for {len(x)} entries")
        if scale is None:
            fail(~np.isfinite(vals), lambda i: f"structure constants must be finite, "
                                               f"got {vals[i]} in row {key(i)}")

        # sorted by row (x, y) and, within a commutative row, by the order given
        order = ((x * n + y) * 2 + flip) * n + z
        if not (np.diff(order) > 0).all():
            s = np.argsort(order, kind="stable")
            x, y, z, flip, order, vals = x[s], y[s], z[s], flip[s], order[s], vals[s]
            fail(np.diff(order) == 0, lambda i: f"row {key(i)} names support index {z[i]} twice")
        nonzero = vals != 0
        product = x * n + y
        if flip.any():
            # a product named in both orders: the two rows must agree; c is
            # symmetric in s_x s_y, so those of an N-form agree in N
            both = np.isin(product, product[flip]) & np.isin(product, product[~flip])
            given: dict = {}
            for i in np.flatnonzero(both & nonzero).tolist():
                given.setdefault((int(product[i]), bool(flip[i])), []).append((z[i], vals[i]))
            for p in np.unique(product[both]).tolist():
                if given.get((p, False)) != given.get((p, True)):
                    raise ValueError(f"conflicting data for row {(p // n, p % n)}")
            keep = ~(flip & both)
            x, y, z, nonzero, product, vals = (a[keep] for a in (x, y, z, nonzero, product, vals))

        # the stored products, and their entries without the zeros
        first = np.flatnonzero(np.concatenate(([True], product[1:] != product[:-1])))
        counts = np.diff(np.append(first, len(product)))
        if not nonzero.all():
            counts = np.add.reduceat(nonzero.astype(np.int64), first) if len(first) else first
            z, vals = z[nonzero], vals[nonzero]
        px, py = x[first], y[first]
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
        self._index(n, identity, inv, commutative, scale is not None, px, py, starts,
                    self.entries(z))
        if scale is None:
            self.c = _frozen(self.entries(vals))
        else:
            self._keep_form(vals, x, y, z, num, den)

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
        self.N = None
        self.factors = None

    def _keep_form(self, N, x, y, z, num, den):
        """Keep the integers N of the stored coefficients at ``x, y, z`` and the scales ``num / den``.

        The products that :meth:`_fractions` forms of them are taken in
        int64 while they stay below 2**53, else in Python ints.  A view
        without ``_source`` (a product) lists the stored coefficients as its
        entries, so ``N`` is both, one array when its dtype serves.
        """
        top = max_abs(N)
        self.uniform = all(a * den[0] == b * num[0] for a, b in zip(num, den))
        if self.uniform:  # c = N / s
            big = max(top * abs(den[0]), abs(num[0])) > EXACT_FLOAT
        else:
            big = max(map(abs, num + den)) ** 3 * top > EXACT_FLOAT
        kind = object if big else np.int64
        self._scale = (np.array(num, dtype=kind), np.array(den, dtype=kind))
        self._form = (N.astype(kind, copy=self._source is not None), x, y, z)
        self.N = _frozen(self.entries(N))

    @classmethod
    def product(cls, V1: "TableView", V2: "TableView") -> "TableView":
        """The view of the product of two finite tables, from the factors' views.

        Point ``(x, u)`` is index ``x n2 + u`` and
        ``c^{(z,w)}_{(x,u),(y,v)} = c^z_{x,y} c^w_{u,v}``: the entries of a
        product are the pairs of entries of the two factor rows, in their
        order, which keeps them sorted by ``(x, y, z)``.  Two exact factors
        give ``N = N1 N2`` and ``s = s1 s2``, and ``c`` is the quotient of
        its exact value, rounded once, as ``float`` rounds the Fraction;
        ``c1 c2`` in float64 could be 1 ulp off it.  A float factor makes
        the product a float table with ``c = c1 c2``.  The product keeps
        ``(V1, V2)`` as its ``factors``, from which :func:`exact_defects` and
        :func:`hypharm.spectral.product_characters` check it.
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
        if not rational:
            V.c = _frozen(V1.c[i] * V2.c[j])
        inv = V1.inv[:, None] * n2 + V2.inv
        V._index(n1 * n2, V1.identity * n2 + V2.identity, inv.ravel(),
                 V1.commutative and V2.commutative, rational,
                 grid.repeat(n1 * n2), np.tile(grid, n1 * n2), starts,
                 V1.z[i] * n2 + V2.z[j])
        if rational:
            N1, N2 = V1.N[i], V2.N[j]
            if max_abs(V1.N) * max_abs(V2.N) >= 2**63:
                N1 = N1.astype(object)
            (a1, b1), (a2, b2) = ([s.tolist() for s in W._scale] for W in (V1, V2))
            V._keep_form(N1 * N2, V.x, V.y, V.z, [a * b for a in a1 for b in a2],
                         [a * b for a in b1 for b in b2])
        V.factors = (V1, V2)
        return V

    def _fractions(self, j) -> tuple:
        """``(num, den)`` of the stored coefficients ``j``; of a uniform view one ``den`` for all."""
        N, x, y, z = (a[j] for a in self._form)
        num, den = self._scale
        if self.uniform:
            return N * int(den[0]), int(num[0])
        return N * num[z] * den[x] * den[y], den[z] * num[x] * num[y]

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

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """An exact view's coefficients as integers per entry over one denominator ``D > 0``.

        ``D`` is the numerator of a uniform view's scale (for rows given as
        Fractions their common denominator), else the least common
        denominator.  The integers are int64 while a sum of ``n + 1`` of
        them, or of them and ``D``, stays in int64, else Python ints.
        """
        num, den = self._fractions(slice(None))
        if np.ndim(den) == 0:
            num, den = (num, den) if den > 0 else (-num, -den)
        else:
            num, den = np.where(den < 0, -num, num), np.abs(den)
            g = np.gcd(num, den)
            num, den = num // g, den // g
            D = math.lcm(*set(den.tolist()))
            if max(max_abs(num), 1) * D >= 2**63:
                num, den = num.astype(object), den.astype(object)
            num, den = num * (D // den), D
        kind = np.int64 if (self.n + 1) * max(max_abs(num), den) < 2**63 else object
        return _frozen(self.entries(num.astype(kind))), den

    def entries(self, a: np.ndarray) -> np.ndarray:
        """Values given per stored coefficient, rearranged to the view's entries."""
        return a if self._source is None else a[..., self._source]

    def coefficients(self, i: np.ndarray) -> list:
        """The coefficients of the entries ``i``: Fractions if rational, else floats."""
        if not self.rational:
            return self.c[i].tolist()
        if self._source is not None:
            i = self._source[i]
        num, den = self._fractions(i)
        return list(map(Fraction, num.tolist(), den.tolist() if np.ndim(den) else repeat(den)))

    def haar_ratios(self, at: np.ndarray) -> tuple[list, list]:
        """The Haar weights ``s_x s_x~ / (N^e_{x,x~} s_e)`` of an exact view, as Python ints.

        ``at`` holds the entry ``c^e_{x,x~}`` of each x.  Returns the
        numerators and denominators, not reduced, of ``1 / c^e_{x,x~}``: the
        denominators and numerators of :meth:`_fractions`.
        """
        num, den = self._fractions(at if self._source is None else self._source[at])
        return np.broadcast_to(den, num.shape).tolist(), num.tolist()

    @cached_property
    def keys(self) -> np.ndarray:
        """The key ``(x n + y) n + z`` of each entry, ascending, then ``n**3`` past them all."""
        n = np.int64(self.n)
        keys = np.append((self.x * n + self.y) * n + self.z, n**3)
        assert (np.diff(keys) > 0).all(), "entries out of (x, y, z) order"
        return _frozen(keys)

    def row(self, x: int, y: int) -> tuple:
        """The row ``((z, c), ...)`` of the stored product ``x . y``."""
        first = (x * self.n + y) * self.n
        i = np.arange(*np.searchsorted(self.keys, [first, first + self.n]))
        return tuple(zip(self.z[i].tolist(), self.coefficients(i)))

    def rows(self) -> dict:
        """All rows ``(x, y) -> ((z, c), ...)``; commutative tables keep ``x <= y``."""
        keep = self.px <= self.py if self.commutative else np.ones(len(self.px), dtype=bool)
        i = np.flatnonzero(keep[self.pair])
        z, vals = self.z[i].tolist(), self.coefficients(i)
        out, lo = {}, 0
        for x, y, k in zip(self.px[keep].tolist(), self.py[keep].tolist(),
                           np.diff(self.starts)[keep].tolist()):
            out[(x, y)] = tuple(zip(z[lo:lo + k], vals[lo:lo + k]))
            lo += k
        return out

    def same_entries(self, other: "TableView") -> bool:
        """True if both views store the same products and entries with equal coefficients.

        Two exact views compare their numerators, each over the other's
        denominator; otherwise the rows are compared.
        """
        if (self.n, self.commutative) != (other.n, other.commutative) or not all(
                np.array_equal(getattr(self, k), getattr(other, k))
                for k in ("px", "py", "starts", "z")):
            return False
        if not (self.rational and other.rational):
            return self.rows() == other.rows()
        (n1, d1), (n2, d2) = self.numerators, other.numerators
        return np.array_equal(n1.astype(object) * d2, n2.astype(object) * d1)


def _worst(a, b):
    """The larger of ``a`` and ``b``, or NaN if one is NaN (``max`` keeps the first)."""
    return a if a >= b or a != a else b


def _gather(V: TableView, c: np.ndarray):
    """The function ``(x, y, z) -> c^z_{x,y}`` of the values ``c``, 0 off the entries.

    It finds each entry by a binary search of the entries' sorted keys
    ``(x n + y) n + z`` (:attr:`TableView.keys`), in memory linear in the
    entries, and works for any dtype of ``c``, Python ints included.
    """
    keys, n = V.keys, V.n
    padded = np.concatenate((c, np.zeros(1, dtype=c.dtype)))

    def at(x, y, z):
        q = (np.asarray(x, dtype=np.int64) * n + y) * n + z
        i = np.searchsorted(keys, q)
        return padded[np.where(keys[i] == q, i, len(c))]

    return at


def axiom_defects(V: TableView, c: np.ndarray) -> tuple[dict, int]:
    """The worst violation of each axiom of a float table, and the associativity triples checked.

    The checks are those of :func:`hypharm.core.verify_axioms`, in its
    report order: those of :func:`entry_defects`, then associativity on the
    dense array of the coefficients ``c``.
    """
    out = entry_defects(V, c, 1.0)
    out["associativity"], checked = _associativity(V, V.dense(c), None)
    return out, checked


def entry_defects(V: TableView, c: np.ndarray, one) -> dict:
    """The worst violation of each axiom but associativity, from the entries alone.

    ``c`` holds the entries' coefficients in units of ``1 / one``: floats
    with ``one = 1``, or an exact table's numerators over their denominator
    ``one`` (int64, or Python ints, whose sums are exact at any size).  The
    violations come in the same units.
    """
    e, inv, has_row = V.identity, V.inv, V.has_row
    at = _gather(V, c)
    out = {}
    sums = np.zeros(len(V.px), dtype=c.dtype)
    np.add.at(sums, V.pair, c)
    out["probability"] = _worst(np.abs(sums - one).max(initial=0), -c.min(initial=0))

    out["commutativity"] = 0.0
    if not V.commutative:
        both = has_row[V.y, V.x]
        out["commutativity"] = np.abs(c - at(V.y, V.x, V.z))[both].max(initial=0)

    # rows e.x and x.e: mass 1 at x and none elsewhere
    ys = V.py[V.px == e]
    worst = np.abs(at(e, ys, ys) - one).max(initial=0)
    xs = V.px[V.py == e]
    worst = _worst(worst, np.abs(at(xs, e, xs) - one).max(initial=0))
    for side, other in ((V.x, V.y), (V.y, V.x)):
        off = (side == e) & (V.z != other)
        mass = np.zeros(V.n, dtype=c.dtype)
        np.add.at(mass, other[off], np.abs(c[off]))
        worst = _worst(worst, mass.max())
    out["identity"] = worst

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    mirrored = has_row[inv[V.y], inv[V.x]]
    out["involution"] = np.abs(c - at(inv[V.y], inv[V.x], inv[V.z]))[mirrored].max(initial=0)

    # support law: e in supp(x.y) iff y = x~; a missing e counts as 1
    ce = np.zeros(len(V.px), dtype=c.dtype)
    to_e = V.z == e
    ce[V.pair[to_e]] = c[to_e]
    to_inverse = V.py == inv[V.px]
    out["support"] = _worst(np.abs(ce[~to_inverse]).max(initial=0),
                            0.0 if (ce[to_inverse] > 0).all() else one)
    return out


def _associativity(V: TableView, C: np.ndarray, p: np.ndarray | None) -> tuple[float, int]:
    """Largest |((x.y).z - x.(y.z))_v| over the triples inside the section.

    A triple (x, y, z) is checked when every row both sides use is stored:
    x.y, y.z, w.z for w in supp(x.y) and x.w for w in supp(y.z).  The
    slabs ``L = C[x] @ C.reshape(n, n*n)`` and ``R = C.reshape(n*n, n) @
    C[x]`` hold both sides for all (y, z, v).  Each slab holds at most a
    quarter of ``C``, or of one of its ``n x n x n`` layers when ``C`` has a
    leading axis (one per prime ``p``), or :data:`SLAB_FLOOR` values if that
    is more: a block of whole x when ``n**3`` fits, else blocks of y for one
    x.  The mask of checked triples is built per block of x, in bools, and
    a block takes only the span of y and z that holds its checked triples.
    Returns the worst violation and the number of triples checked.
    """
    n, lead = V.n, C.shape[:-3]
    left_of = C.reshape(lead + (1, n, n * n))
    missing = ~V.has_row
    gaps = missing.astype(float) if missing.any() else None
    if gaps is not None:
        stored = np.zeros((n, n, n), dtype=bool)
        stored[V.x, V.y, V.z] = True
    rows = max(1, max(n**3 // 4, SLAB_FLOOR) // (n * n * math.prod(lead)))  # (x, y) per slab
    step, span = max(1, rows // n), min(rows, n)  # x per block, y per slab
    worst, checked = 0.0, 0
    for x0 in range(0, n, step):
        xs = slice(x0, min(x0 + step, n))
        ok = V.has_row[xs, :, None] & V.has_row  # x.y and y.z stored
        if gaps is not None:
            ok &= stored[xs].astype(float) @ gaps == 0
            # the products y.z whose support holds a w with x.w missing
            k = ok.shape[0]
            bad = np.bincount((np.arange(k)[:, None] * len(V.px) + V.pair).ravel(),
                              weights=gaps[xs][:, V.z].ravel(), minlength=k * len(V.px))
            b, q = np.divmod(np.flatnonzero(bad), len(V.px))
            ok[b, V.px[q], V.py[q]] = False
        checked += int(ok.sum())
        ys = np.flatnonzero(ok.any(axis=(0, 2)))
        if not ys.size:
            continue
        for lo in range(ys[0], ys[-1] + 1, span):
            hi = min(lo + span, ys[-1] + 1)
            z0, z1 = 0, n
            if gaps is not None:  # a section: only some (y, z) are checked
                zs = np.flatnonzero(ok[:, lo:hi].any(axis=(0, 1)))
                if not zs.size:
                    continue
                # the columns (z, v) of z0 <= z < z1 are one strided block of C
                z0, z1 = zs[0], zs[-1] + 1
            diff = C[..., xs, lo:hi, :] @ left_of[..., z0 * n:z1 * n]
            diff -= (C[..., lo:hi, z0:z1, :].reshape(lead + (1, -1, n))
                     @ C[..., xs, :, :]).reshape(diff.shape)
            diff = _defect(diff, p).reshape(diff.shape[:-1] + (z1 - z0, n)).max(axis=-1)
            worst = _worst(worst, (diff if gaps is None else diff[..., ok[:, lo:hi, z0:z1]]).max())
    return worst, checked


def haar_defect(V: TableView, c: np.ndarray, lam: np.ndarray):
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples.

    ``c`` and ``lam`` are floats, or integers (int64, or Python ints).
    """
    xi = V.inv[V.x]
    d = lam[V.y] * c - lam[V.z] * _gather(V, c)(xi, V.z, V.y)
    return np.abs(d)[V.has_row[xi, V.z]].max(initial=0)


def _batches(V: TableView, primes: np.ndarray):
    """``primes`` in groups whose dense residue arrays stay within RESIDUE_BATCH."""
    step = max(1, RESIDUE_BATCH // V.n**3)
    return (primes[i:i + step] for i in range(0, len(primes), step))


def exact_defects(V: TableView) -> tuple[dict, int] | None:
    """The worst violation of each axiom of an exact table, as Fractions, and the triples checked.

    The checks are those of :func:`hypharm.core.verify_axioms`, in its
    report order: :func:`entry_defects` on the exact numerators of c, then
    associativity (:func:`_exact_associativity`).  Returns None when
    associativity fails and its size is not known here.
    """
    num, den = V.numerators
    worst = {k: Fraction(int(w), den) for k, w in entry_defects(V, num, den).items()}
    w, checked = _exact_associativity(V)
    if w is None:
        return None
    worst["associativity"] = w
    return worst, checked


def _exact_associativity(V: TableView) -> tuple[Fraction | None, int]:
    """The worst associativity violation of an exact view, and the triples checked.

    A product of two exact factors (``V.factors``) is associative when
    both factors are: ``N = N1 (x) N2``, so each side of its associativity
    law is the tensor product of the factors' sides, and it checks
    ``checked1 * checked2`` triples.  A factor that fails sends the product
    to the full check below.

    The full check runs on N, in one float64 pass while every sum it forms
    is exact (``2 n max|N|**2 <= 2**53``), else on N's residues modulo
    :func:`crt_primes` for that height.  The violation is None when it is
    not 0 and its size is not known here: the residues show only that a
    defect is not 0, and a defect of N is one of c, divided by ``s**2``,
    only when the scales are uniform.
    """
    if V.factors is not None:  # an exact product has exact factors
        found = [_exact_associativity(W) for W in V.factors]
        if all(w == 0 for w, _ in found):
            return Fraction(0), found[0][1] * found[1][1]
    top = max_abs(V.N)
    height = 2 * V.n * top * top
    if height <= EXACT_FLOAT:
        w, checked = _associativity(V, V.dense(V.N.astype(float)), None)
        if w and not V.uniform:
            return None, checked
        s, t = (int(a[0]) for a in V._scale)  # the scale s / t of a uniform view
        return Fraction(int(w) * t * t, s * s), checked
    for p in _batches(V, crt_primes(V.n, height)):
        w, checked = _associativity(V, V.dense(residues(V.N, p)), p)
        if w:
            return None, checked
    return Fraction(0), checked
