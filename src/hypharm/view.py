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
exact and read no Fraction row (:func:`exact_defects`,
:func:`exact_haar_defect`):

* each check on single entries, and the Haar identity, is an identity in
  integers between N at one or two entries times reduced per-point
  rationals: ``s_e`` (identity), ``rho = s / s o inv`` (involution),
  ``mu = lam / s**2`` and ``rho`` (Haar); a row's probability is
  ``sum_z N s_z = s_x s_y`` over the least common denominator of s;
* associativity runs on N.  Both sides at ``(x, y, z)`` and ``v`` are the
  same multiple ``s_v / (s_x s_y s_z)`` of those of N, so c is associative
  exactly when N is.  It takes one float64 pass while
  ``2 n max|N|^2 <= 2**53``, and beyond that bound one pass on N's residues
  per prime of :func:`crt_primes`.  On a commutative view the law at
  ``(z, y, x)`` is the one at ``(x, y, z)``: its defect is minus the other,
  exactly on N and its residues, and in floats a sum of the same products,
  so every pass takes each such pair once;
* a product built by :meth:`TableView.product` takes associativity from
  its two factors: ``N = N1 (x) N2``, so both sides of its law are tensor
  products of the factors' sides.  A factor that fails sends it to the
  full check.

Only what fails is sized: entries and rows in Fractions, flagged triples
in integers from N.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from fractions import Fraction
from operator import truediv

import numpy as np

# Integers up to 2**53 are exact in float64.
EXACT_FLOAT = 2**53
# Values in one associativity slab (256 KB of float64) at least: a table
# with n**3 <= 2**15 (n <= 32) takes all y in one slab per x.
SLAB_FLOOR = 2**15
# Values of the support matrix per block of products while a view's
# checked-triple plan is built (256 KB of float64): n per product.
MASK_VALUES = 2**15
ZERO = Fraction(0)
# The attributes of a view that :meth:`TableView._on_index` shares: those
# that :meth:`TableView._index` sets, the cached keys, checked-triple plan
# and products-once index, which depend on the index arrays alone.
_INDEX = frozenset(("n", "identity", "commutative", "px", "py", "starts", "pair", "x", "y", "z",
                    "has_row", "inv", "keys", "plan", "products_once"))


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


def _defect(d: np.ndarray, p: float | None) -> np.ndarray:
    """|d|, in place; given a prime ``p``, |d - p rint(d / p)|.

    For integers with ``|d| + p <= 2**53`` the second is an exact integer
    congruent to ``d`` modulo ``p``, so it is 0 exactly when ``d`` is 0
    modulo ``p``.
    """
    if p is not None:
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

    Every per-value array holds one value per entry ``c^z_{x,y}``, and a
    commutative table lists each product in both orders.  Entries are
    sorted by ``(x, y, z)``:

    * ``x, y, z, c`` -- the entries, indices in int32, ``c`` in float64
      (for an exact table each ``c`` is the correctly rounded quotient of
      its exact value, computed on first use);
    * ``px, py`` -- the stored products, ``starts`` their CSR offsets into
      the entries (int32 below 2**31 entries) and ``pair`` the product of
      each entry;
    * ``has_row`` -- the ``n x n`` mask of stored products;
    * :attr:`plan` -- the ``n x n x n`` mask of the triples that the
      associativity check takes, those whose rows are all stored, or None
      if every row is; built on first use;
    * :attr:`products_once` -- each stored product once, with its entries;
      built on first use;
    * ``n``, ``identity``, ``inv`` and ``commutative`` -- the size, the
      identity, the involution and whether the product commutes, which a
      :class:`~hypharm.core.HypergroupTable` takes from its view;
    * ``N`` -- of an exact table, the integers N of
      ``c^z_{x,y} = N^z_{x,y} s_z / (s_x s_y)`` per entry (int64, or Python
      ints beyond int64), else None; :attr:`rational` -- whether it is
      held; :attr:`scales` -- the scales s as Fractions;
    * :meth:`dense` -- the coefficients as an ``n x n x n`` array;
    * :meth:`coefficients`, :meth:`row` and :meth:`rows` -- the
      coefficients of some entries, or as table rows, exact ones as
      Fractions;
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
        flip = x > y if commutative else np.zeros(len(x), dtype=bool)
        if flip.any():
            x, y = np.where(flip, y, x), np.where(flip, x, y)
        fail((z < 0) | (z >= n), lambda i: f"support index {z[i]} out of range in row {key(i)}")
        if scale is None:
            vals = np.asarray(value, dtype=float).ravel()
        else:
            num, den = [int(v.numerator) for v in scale], [int(v.denominator) for v in scale]
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

        # the stored products (none if there are no entries), and their
        # entries without the zeros
        first = np.flatnonzero(np.concatenate((product[:1] >= 0, product[1:] != product[:-1])))
        counts = np.diff(np.append(first, len(product)))
        if not nonzero.all():
            counts = np.add.reduceat(nonzero.astype(np.int64), first) if len(first) else first
            z, vals = z[nonzero], vals[nonzero]
        px, py = x[first], y[first]

        # a commutative table's products are stored once; their mirrored
        # products take the same values
        first = np.cumsum(counts) - counts
        if commutative:
            off = px != py
            first = np.concatenate((first, first[off]))
            counts = np.concatenate((counts, counts[off]))
            px, py = np.concatenate((px, py[off])), np.concatenate((py, px[off]))
        s = np.argsort(px * n + py, kind="stable")
        px, py, first, counts = px[s], py[s], first[s], counts[s]
        starts = np.concatenate(([0], np.cumsum(counts)))
        # entry i of product p takes given value first[p] + i - starts[p]
        source = np.arange(starts[-1]) + np.repeat(first - starts[:-1], counts)
        self._index(n, identity, inv, commutative, px, py, starts,
                    np.repeat(np.arange(len(px), dtype=np.int32), counts), z[source])
        if scale is None:
            self.c = _frozen(vals[source])
        else:
            self._keep_form(vals[source], num, den)

    def _index(self, n, identity, involution, commutative, px, py, starts, pair, z):
        """Set the entry arrays from the sorted products, and ``pair`` and ``z`` of each entry."""
        self.n, self.identity, self.commutative = n, identity, commutative
        self.px, self.py = (_frozen(a.astype(np.int32, copy=False)) for a in (px, py))
        self.starts = _frozen(starts.astype(np.int32, copy=False) if starts[-1] < 2**31 else starts)
        self.pair = _frozen(pair)
        # take: indexing by the int32 pair would first copy it to intp
        self.x, self.y = _frozen(self.px.take(pair)), _frozen(self.py.take(pair))
        self.z = _frozen(z.astype(np.int32, copy=False))
        has_row = np.zeros((n, n), dtype=bool)
        has_row[self.px, self.py] = True
        self.has_row = _frozen(has_row)
        self.inv = _frozen(np.array(involution, dtype=np.int32))
        self.N = None
        self.factors = None

    def _on_index(self, c=None) -> "TableView":
        """A view on these frozen index arrays, and on their keys, plan and products-once
        index if built, with the float coefficients ``c`` or none yet.  Raises ValueError, as the
        constructor does, for a value that is not finite."""
        if c is not None and (bad := np.flatnonzero(~np.isfinite(c))).size:
            i = bad[0]
            raise ValueError(f"structure constants must be finite, got {c[i]} in row "
                             f"{(int(self.x[i]), int(self.y[i]))}")
        V = TableView.__new__(TableView)
        V.__dict__.update({k: v for k, v in vars(self).items() if k in _INDEX})
        V.N, V.factors = None, None
        if c is not None:
            V.c = _frozen(c)
        return V

    def reweighted(self, c: np.ndarray) -> "TableView":
        """The float view of these entries with the coefficients ``c``, one per entry, on
        this view's index arrays (:meth:`_on_index`) and its :attr:`plan`, built here if it
        was not."""
        V = self._on_index(c)
        V.plan = self.plan
        return V

    def rescaled(self, scale) -> "TableView":
        """The integers N of this N-form at the scales ``scale``, on its index arrays
        (:meth:`_on_index`): an N-form if every scale is an int or a Fraction, else the float
        coefficients ``s_z N / (s_x s_y)``.  Raises ValueError as the constructor does."""
        if not all(isinstance(v, (int, Fraction)) for v in scale):
            s = np.array([float(v) for v in scale])
            return self._on_index(s[self.z] * self.N / (s[self.x] * s[self.y]))
        num, den = [int(v.numerator) for v in scale], [int(v.denominator) for v in scale]
        V = self._on_index()
        V._keep_form(self.N, num, den)
        return V

    def _keep_form(self, N, num, den):
        """Keep the integers N of the entries and the scales ``num / den``.

        The scales are held in int64 while every product that
        :meth:`_fractions` forms of them stays below 2**53, else as Python
        ints, and then :meth:`_small` names the entries whose quotients
        still divide in float64.  Raises ValueError unless there is one nonzero scale per point.
        """
        if len(num) != self.n or not all(num):
            raise ValueError(f"an N-form needs {self.n} nonzero scales")
        kind = object if max(map(abs, num + den)) ** 3 * max_abs(N) > EXACT_FLOAT else np.int64
        self._scale = (np.array(num, dtype=kind), np.array(den, dtype=kind))
        self.N = _frozen(N)

    def _small(self) -> tuple:
        """Of Python-int scales: the entries whose quotient divides in float64, and how.

        Write each scale ``s = a / b`` with ``a = o_a 2**t_a`` and
        ``b = o_b 2**t_b``, o odd.  An entry's fraction (:meth:`_fractions`)
        is ``(A / B) 2**k`` with ``A = N o_a(z) o_b(x) o_b(y)``,
        ``B = o_b(z) o_a(x) o_a(y)`` and ``k = t(z) - t(x) - t(y)`` for
        ``t = t_a - t_b``.  A product of integers is below 2 to the sum of
        their bit lengths, so an entry whose factors of A, and of B, have
        bit lengths that sum to at most 53 has A and B below 2**53, exact in
        int64 and in float64: ``A / B`` is their quotient rounded once, and
        times ``2**k`` it stays so while it is a normal float.  Returns the
        mask of those entries, k per entry and ``(o_a, o_b)`` per point in
        int64 (0 beyond 53 bits, which no such entry reads).
        """
        odd, bits, twos = [], [], []
        for s in (v.tolist() for v in self._scale):
            t = [(v & -v).bit_length() - 1 for v in s]
            o = [v >> k for v, k in zip(s, t)]
            odd.append(np.array([v if abs(v) < 2**53 else 0 for v in o], dtype=np.int64))
            bits.append(np.array([abs(v).bit_length() for v in o]))
            twos.append(np.array(t))
        (a, b), t = bits, twos[0] - twos[1]
        if self.N.dtype == object:
            n_bits = np.array([abs(v).bit_length() for v in self.N.tolist()], dtype=int)
        else:  # |N| < 2**53 is exact in float64; beyond, its exponent exceeds 53 too
            n_bits = np.frexp(np.abs(self.N.astype(float)))[1]
        x, y, z = self.x, self.y, self.z
        small = (n_bits + a[z] + b[x] + b[y] <= 53) & (b[z] + a[x] + a[y] <= 53)
        return small, t[z] - t[x] - t[y], tuple(odd)

    @property
    def rational(self) -> bool:
        """Whether the coefficients are exact, held as N and the scales."""
        return self.N is not None

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
        ``(V1, V2)`` as its ``factors``, from which :func:`exact_defects`
        checks it.
        """
        if not (V1.has_row.all() and V2.has_row.all()):
            raise ValueError("a product needs finite tables")
        n1, n2 = V1.n, V2.n
        # the products (x, u).(y, v) in sorted order, as the factor products
        # p1 = (x, y) and p2 = (u, v); complete views list them in that order
        grid = np.arange(n1 * n2, dtype=np.int32)
        p1 = ((grid // n2)[:, None] * n1 + grid // n2).ravel()
        p2 = ((grid % n2)[:, None] * n2 + grid % n2).ravel()
        k2 = np.diff(V2.starts)[p2]
        counts = np.diff(V1.starts)[p1] * k2
        starts = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        pair = np.repeat(np.arange(len(p1), dtype=np.int32), counts)
        del counts
        # the entry t of product p pairs entry i = V1.starts[p1] + t' // k2 of
        # p1's row with entry j = V2.starts[p2] + t' % k2 of p2's, where
        # t' = t - starts[p] counts from the start of its row
        kind = np.int32 if starts[-1] < 2**31 else np.int64
        starts = starts.astype(kind)
        i = np.arange(starts[-1], dtype=kind)
        i -= starts[:-1][pair]
        i, j = np.divmod(i, k2.astype(kind)[pair])
        i += V1.starts[:-1].astype(kind)[p1][pair]
        j += V2.starts[:-1].astype(kind)[p2][pair]
        del p1, p2, k2
        z = V1.z[i] * n2 + V2.z[j]
        rational = V1.rational and V2.rational
        if rational:  # N1 N2, else c1 c2
            vals = V1.N[i]
            if max_abs(V1.N) * max_abs(V2.N) >= 2**63:
                vals = vals.astype(object)
            vals *= V2.N[j]
        else:
            vals = V1.c[i] * V2.c[j]
        del i, j
        V = cls.__new__(cls)
        inv = V1.inv[:, None] * n2 + V2.inv
        V._index(n1 * n2, V1.identity * n2 + V2.identity, inv.ravel(),
                 V1.commutative and V2.commutative,
                 grid.repeat(n1 * n2), np.tile(grid, n1 * n2), starts, pair, z)
        if rational:
            (a1, b1), (a2, b2) = ([s.tolist() for s in W._scale] for W in (V1, V2))
            V._keep_form(vals, [a * b for a in a1 for b in a2], [a * b for a in b1 for b in b2])
        else:
            V.c = _frozen(vals)
        V.factors = (V1, V2)
        return V

    def _fractions(self, j) -> tuple:
        """``(num, den)`` of the entries ``j``, exact integers symmetric in ``x`` and ``y``."""
        num, den = self._scale
        N, x, y, z = self.N[j].astype(num.dtype, copy=False), self.x[j], self.y[j], self.z[j]
        return N * num[z] * den[x] * den[y], den[z] * num[x] * num[y]

    @cached_property
    def c(self) -> np.ndarray:
        """A rational view's coefficients in float64, each rounded once from ``num / den``.

        Of Python-int scales, the small entries (:meth:`_small`) divide in
        float64; the others, and any whose quotient is not a normal float,
        as Python ints (:func:`_divided`).
        """
        if self._scale[0].dtype != object:  # every product is below 2**53
            return _frozen(_divided(*self._fractions(slice(None))))
        small, k, (a, b) = self._small()
        fast = np.flatnonzero(small)
        x, y, z = self.x[fast], self.y[fast], self.z[fast]
        with np.errstate(over="ignore", under="ignore"):  # those are not normal
            q = np.ldexp(self.N[fast].astype(np.int64) * a[z] * b[x] * b[y]
                         / (b[z] * a[x] * a[y]), k[fast].astype(np.int32))
        normal = (np.abs(q) >= 2.0**-1021) & (np.abs(q) < 2.0**1023)
        out = np.empty(len(self.z))
        slow = np.ones(len(self.z), dtype=bool)
        out[fast[normal]], slow[fast[normal]] = q[normal], False
        if slow.any():
            out[slow] = _divided(*self._fractions(slow))
        return _frozen(out)

    def floats(self, i) -> np.ndarray:
        """``c`` at the entries ``i``; of a rational view, computed for those entries alone.

        Until something reads :attr:`c`, the big-integer quotients of the
        other entries are not formed.
        """
        if not self.rational or "c" in vars(self):
            return self.c[i]
        return _divided(*self._fractions(i))

    def dense(self, c: np.ndarray) -> np.ndarray:
        """The array ``C[x, y, z]`` of the values ``c``, one per entry, 0 off the entries."""
        C = np.zeros((self.n,) * 3, dtype=c.dtype)
        C[self.x, self.y, self.z] = c
        return C

    def coefficients(self, i: np.ndarray) -> list:
        """The coefficients of the entries ``i``: Fractions if rational, else floats."""
        if not self.rational:
            return self.c[i].tolist()
        num, den = self._fractions(i)
        return list(map(Fraction, num.tolist(), den.tolist()))

    def haar_ratios(self, at: np.ndarray) -> tuple[list, list]:
        """The Haar weights ``s_x s_x~ / (N^e_{x,x~} s_e)`` of an exact view, as Python ints.

        ``at`` holds the entry ``c^e_{x,x~}`` of each x.  Returns the
        numerators and denominators, not reduced, of ``1 / c^e_{x,x~}``: the
        denominators and numerators of :meth:`_fractions`.
        """
        num, den = self._fractions(at)
        return den.tolist(), num.tolist()

    @cached_property
    def scales(self) -> tuple:
        """An exact view's scales s, one Fraction per point."""
        return tuple(map(Fraction, *(a.tolist() for a in self._scale)))

    @cached_property
    def keys(self) -> np.ndarray:
        """The key ``(x n + y) n + z`` of each entry, ascending, then ``n**3`` past them all."""
        n = np.int64(self.n)
        keys = np.append((self.x * n + self.y) * n + self.z, n**3)
        assert (np.diff(keys) > 0).all(), "entries out of (x, y, z) order"
        return _frozen(keys)

    @cached_property
    def products_once(self) -> tuple:
        """Each stored product once: of a commutative view those with ``px <= py``, else all.

        Holds their ``(px, py)``, the indices of their entries (a slice if
        they are all) and the products' CSR offsets into those; built on
        first use, O(entries), and shared by the views on these index arrays.
        """
        if not self.commutative:
            return self.px, self.py, slice(None), self.starts
        keep = self.px <= self.py
        starts = np.zeros(np.count_nonzero(keep) + 1, dtype=self.starts.dtype)
        np.cumsum(np.diff(self.starts)[keep], out=starts[1:])
        return self.px[keep], self.py[keep], np.flatnonzero(keep.take(self.pair)), starts

    @cached_property
    def plan(self) -> np.ndarray | None:
        """The mask of the triples associativity is checked at, or None for all (:func:`_plan`)."""
        return _plan(self)

    def row(self, x: int, y: int) -> tuple:
        """The row ``((z, c), ...)`` of the stored product ``x . y``."""
        first = (x * self.n + y) * self.n
        i = np.arange(*np.searchsorted(self.keys, [first, first + self.n]))
        return tuple(zip(self.z[i].tolist(), self.coefficients(i)))

    def rows(self) -> dict:
        """All rows ``(x, y) -> ((z, c), ...)``; commutative tables keep ``x <= y``."""
        px, py, entries, starts = self.products_once
        z, vals, starts = self.z[entries].tolist(), self.coefficients(entries), starts.tolist()
        return {(x, y): tuple(zip(z[lo:hi], vals[lo:hi]))
                for x, y, lo, hi in zip(px.tolist(), py.tolist(), starts, starts[1:])}

    def same_entries(self, other: "TableView") -> bool:
        """True if both views store the same products and entries with equal coefficients.

        Two exact views compare the fractions of each entry (:meth:`_fractions`)
        by cross-multiplication, unless their N and their scales are equal,
        which suffices; two float views their ``c``.  An exact and a float view
        compare each entry's Fraction with its float, exactly, so ``1/3`` in
        float64 is not ``1/3``.  Index arrays that both views hold, as the
        tables of one ring do, are not compared element by element.
        """
        if (self.n, self.commutative) != (other.n, other.commutative) or not all(
                _same(getattr(self, k), getattr(other, k)) for k in ("px", "py", "starts", "z")):
            return False
        if not (self.rational or other.rational):
            return np.array_equal(self.c, other.c)
        if not (self.rational and other.rational):
            return self.coefficients(slice(None)) == other.coefficients(slice(None))
        if _same(self.N, other.N) and all(map(_same, self._scale, other._scale)):
            return True
        (n1, d1), (n2, d2) = (V._fractions(slice(None)) for V in (self, other))
        return np.array_equal(n1.astype(object) * d2, n2.astype(object) * d1)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are equal, without comparing an array with itself."""
    return a is b or np.array_equal(a, b)


def _divided(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` of two integer arrays, rounded once: int64 ones are below 2**53.

    Python's int / int rounds correctly at any size.
    """
    if num.dtype != object:
        return num / den
    return np.fromiter(map(truediv, num.tolist(), den.tolist()), float, len(num))


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
    report order: the checks on single entries, then associativity on the
    dense array of the coefficients ``c``.
    """
    e, inv, has_row = V.identity, V.inv, V.has_row
    at = _gather(V, c)
    out = {}
    # bincount adds in entry order, as np.add.at does
    sums = np.bincount(V.pair, weights=c, minlength=len(V.px))
    out["probability"] = _worst(np.abs(sums - 1).max(initial=0), -c.min(initial=0))

    out["commutativity"] = 0.0
    if not V.commutative:
        both = has_row[V.y, V.x]
        out["commutativity"] = np.abs(c - at(V.y, V.x, V.z))[both].max(initial=0)

    # rows e.x and x.e: mass 1 at x and none elsewhere
    ys = V.py[V.px == e]
    worst = np.abs(at(e, ys, ys) - 1).max(initial=0)
    xs = V.px[V.py == e]
    worst = _worst(worst, np.abs(at(xs, e, xs) - 1).max(initial=0))
    for side, other in ((V.x, V.y), (V.y, V.x)):
        off = (side == e) & (V.z != other)
        mass = np.bincount(other[off], weights=np.abs(c[off]), minlength=V.n)
        worst = _worst(worst, mass.max())
    out["identity"] = worst

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    mirrored = has_row[inv[V.y], inv[V.x]]
    out["involution"] = np.abs(c - at(inv[V.y], inv[V.x], inv[V.z]))[mirrored].max(initial=0)

    # support law: e in supp(x.y) iff y = x~; a missing e counts as 1
    ce = np.zeros(len(V.px))
    to_e = V.z == e
    ce[V.pair[to_e]] = c[to_e]
    to_inverse = V.py == inv[V.px]
    out["support"] = _worst(np.abs(ce[~to_inverse]).max(initial=0),
                            0.0 if (ce[to_inverse] > 0).all() else 1.0)
    out["associativity"], checked, _ = _associativity(V, V.dense(c), None)
    return out, checked


def _associativity(V: TableView, C: np.ndarray, p: float | None) -> tuple:
    """Largest |((x.y).z - x.(y.z))_v| over the triples of the view's plan.

    The checked triples (x, y, z) are those of :attr:`TableView.plan`, or
    all of them without a plan.  On a commutative view
    ``(z.y).x = x.(y.z)`` and ``z.(y.x) = (x.y).z``: the defect at
    (z, y, x) is minus that at (x, y, z) (in floats, a sum of the same
    products), and the plan holds both or neither, so each block of x takes
    only the z at or above its first x, and the triples flagged are those
    checked in that order.  The slabs
    ``L = C[x] @ C.reshape(n, n*n)`` and ``R = C.reshape(n*n, n) @ C[x]``
    hold both sides for all (y, z, v).  Each slab holds at most a quarter
    of ``C``, or :data:`SLAB_FLOOR` values if that is more: a block of
    whole x when ``n**3`` fits, else blocks of y for one x.  Without a plan
    the slabs are whole.  With one, a block of x takes only the span of y,
    and a slab only the span of z, that hold checked triples; each side of
    the slab is formed in turn and cut to its checked rows (x, y, z), so
    the defect is taken at those rows alone.  Returns the worst violation, the number of
    triples the plan covers (both orders of an identity taken once) and,
    of an exact view (``C`` holds N or its residues), the rows
    ``(x, y, z)`` of the triples taken whose defect is not 0 (modulo the
    prime ``p``).
    """
    n, plan = V.n, V.plan
    rows = max(1, max(n**3 // 4, SLAB_FLOOR) // (n * n))  # (x, y) per slab
    step, span = max(1, rows // n), min(rows, n)  # x per block, y per slab
    left_of = C.reshape(1, n, n * n)
    worst, flagged = 0.0, [np.empty((0, 3), dtype=np.int64)]
    for x0 in range(0, n, step):
        xs = slice(x0, min(x0 + step, n))
        first = x0 if V.commutative else 0  # the least z checked in this block
        ys = range(n) if plan is None else np.flatnonzero(plan[xs, :, first:].any(axis=(0, 2)))
        if not len(ys):
            continue
        for lo in range(ys[0], ys[-1] + 1, span):
            hi = min(lo + span, ys[-1] + 1)
            zs = range(first, n) if plan is None else first + np.flatnonzero(
                plan[xs, lo:hi, first:].any(axis=(0, 1)))
            if not len(zs):
                continue
            # the columns (z, v) of z0 <= z < z1 are one strided block of C
            z0, z1 = zs[0], zs[-1] + 1
            sel = None if plan is None else plan[xs, lo:hi, z0:z1]
            i = None if sel is None else np.flatnonzero(sel)

            def kept(side):  # the slab's rows (x, y, z) of n values v, or its checked ones
                side = side.reshape(-1, n)
                return side if i is None else side.take(i, axis=0)

            d = kept(C[xs, lo:hi] @ left_of[:, :, z0 * n:z1 * n])
            d -= kept(C[lo:hi, z0:z1].reshape(1, -1, n) @ C[xs])
            d = _defect(d, p)
            top = d.max()
            worst = _worst(worst, top)
            if top and V.rational:
                hit = d.max(axis=-1) > 0
                at = np.argwhere(sel)[hit] if sel is not None else np.argwhere(
                    hit.reshape(-1, hi - lo, z1 - z0))
                flagged.append(at + (x0, lo, z0))
    checked = n**3 if plan is None else int(np.count_nonzero(plan))
    return worst, checked, np.concatenate(flagged)


def _plan(V: TableView) -> np.ndarray | None:
    """The ``n x n x n`` mask of the triples whose rows all lie inside the view.

    None if the view stores every row.  The rows of (x, y, z) are x.y, y.z,
    w.z for w in supp(x.y) and x.w for w in supp(y.z).  With S the support
    matrix of the stored products, ``S[p, w] = 1`` for w in supp p, and G
    that of the missing rows, ``G[u, v] = 1`` where u.v is not stored,
    ``(S G)[p, z]`` counts the w of supp(p) with w.z missing, which rules
    out (x, y, z) for p = x.y, and ``(S G^T)[p, x]`` those with x.w
    missing, which rules it out for p = y.z.  Both GEMMs are exact counts,
    taken for the products of :data:`MASK_VALUES` values of S at a time
    (at least one product).
    """
    if V.has_row.all():
        return None
    n, count = V.n, len(V.px)
    gaps = (~V.has_row).astype(float)
    plan = V.has_row[:, :, None] & V.has_row  # x.y and y.z stored
    block = max(1, MASK_VALUES // n)
    for p0 in range(0, count, block):
        p1 = min(p0 + block, count)
        e = slice(V.starts[p0], V.starts[p1])  # the entries of products p0..p1
        S = np.zeros((p1 - p0, n))
        S[V.pair[e] - p0, V.z[e]] = 1
        x, y = V.px[p0:p1], V.py[p0:p1]
        plan[x, y] &= S @ gaps == 0
        plan[:, x, y] &= (S @ gaps.T == 0).T
    return _frozen(plan)


def haar_sides(V: TableView, c: np.ndarray, lam: np.ndarray) -> tuple:
    """``lam(y) c^z_{x,y}`` and ``lam(z) c^y_{x~,z}`` at the stored triples, in floats.

    The stored triples are the entries (x, y, z) whose row x~.z is stored.
    """
    xi = V.inv[V.x]
    kept = V.has_row[xi, V.z]
    return (lam[V.y] * c)[kept], (lam[V.z] * _gather(V, c)(xi, V.z, V.y))[kept]


def haar_defect(V: TableView, c: np.ndarray, lam: np.ndarray):
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples, in floats."""
    left, right = haar_sides(V, c, lam)
    return np.abs(left - right).max(initial=0)


# -- exact checks on N and per-point rationals -------------------------------


def _reduced(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rationals ``num / den`` of two integer arrays, reduced."""
    g = np.gcd(num, den)
    return num // g, den // g


def _rho(V: TableView) -> tuple[np.ndarray, np.ndarray]:
    """``rho = s / s o inv`` per point, reduced (an int64 view's scales are below ``2**18``)."""
    a, b = V._scale
    return _reduced(a * b[V.inv], b * a[V.inv])


def _times(N: np.ndarray, *factors) -> np.ndarray:
    """``N`` times ``f[i]`` for each per-point array ``f`` and points ``i`` of ``factors``, exactly.

    A factor that is 1 at every point is skipped.  The product is taken in
    int64 while it fits, else in Python ints.
    """
    factors = [(f, i) for f, i in factors if (f != 1).any()]
    if factors and max_abs(N) * math.prod(max_abs(f) for f, _ in factors) >= 2**63:
        N = N.astype(object)
        factors = [(f.astype(object), i) for f, i in factors]
    for f, i in factors:
        N = N * f[i]
    return N


def _values(V: TableView, i, N, x, y, z) -> list:
    """``N s_z / (s_x s_y)`` at ``i`` of the integers ``N`` and points ``x, y, z``, as Fractions."""
    if not len(i):
        return []
    s = V.scales
    return [k * s[c] / (s[a] * s[b]) for k, a, b, c in zip(*(v[i].tolist() for v in (N, x, y, z)))]


def _largest(values) -> Fraction:
    return max(map(abs, values), default=ZERO)


def exact_defects(V: TableView) -> tuple[dict, int]:
    """The worst violation of each axiom of an exact table, as Fractions, and the triples checked.

    The checks of :func:`axiom_defects` are identities in integers on N and
    the scales ``s = a / b`` (see the module), sized in Fractions where they
    fail; associativity (:func:`_exact_associativity`) comes last, as in the
    report of :func:`hypharm.core.verify_axioms`.
    """
    e, inv, has_row, N = V.identity, V.inv, V.has_row, V.N
    x, y, z = V.x, V.y, V.z
    a, b = (v.tolist() for v in V._scale)  # b > 0
    at = _gather(V, N)
    out = {}

    # sum_z N s_z = s_x s_y, with s = S / L: L sum_z N S_z = S_x S_y; and c >= 0
    L = math.lcm(*b)
    S = int_array([u * (L // w) for u, w in zip(a, b)])
    width = int(np.diff(V.starts).max(initial=0))
    big = max(L * width * max_abs(N) * max_abs(S), max_abs(S) ** 2) >= 2**63
    S = S.astype(object) if big else S
    sums = np.zeros(len(V.px), dtype=S.dtype)
    np.add.at(sums, V.pair, (N.astype(object) if big else N) * S[z])
    want = S[V.px] * S[V.py]
    d = L * sums - want
    i = np.flatnonzero(d)
    worst = max(map(Fraction, np.abs(d[i]).tolist(), np.abs(want[i]).tolist()),
                default=ZERO)
    sign = V._scale[0] < 0
    negative = (N < 0) ^ sign[x] ^ sign[y] ^ sign[z] if sign.any() else N < 0  # c < 0
    out["probability"] = max(worst, _largest(_values(V, np.flatnonzero(negative), N, x, y, z)))

    out["commutativity"] = ZERO
    if not V.commutative:  # c at (x, y, z) and at (y, x, z) share s_z / (s_x s_y)
        d = N - at(y, x, z)
        out["commutativity"] = _largest(_values(V, np.flatnonzero(has_row[y, x] & (d != 0)),
                                                d, x, y, z))

    # rows e.x and x.e: c^x_{e,x} = c^x_{x,e} = N / s_e is 1, and no mass elsewhere
    ys, xs = V.py[V.px == e], V.px[V.py == e]
    diag = np.concatenate((at(e, ys, ys), at(xs, e, xs))).tolist()
    worst = _largest([Fraction(k * b[e] - a[e], a[e]) for k in diag if k * b[e] != a[e]])
    for side, other in ((x, y), (y, x)):
        i = np.flatnonzero((side == e) & (z != other))
        if len(i):
            mass = np.zeros(V.n, dtype=object)
            np.add.at(mass, other[i], list(map(abs, _values(V, i, N, x, y, z))))
            worst = max(worst, mass.max())
    out["identity"] = worst

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}, that is
    # N rho_z / (rho_x rho_y) = N at (y~, x~, z~)
    p, q = _rho(V)
    xi, yi, zi = inv[y], inv[x], inv[z]
    mirror = at(xi, yi, zi)
    i = np.flatnonzero(has_row[xi, yi] & (_times(N, (p, z), (q, x), (q, y))
                                          != _times(mirror, (q, z), (p, x), (p, y))))
    out["involution"] = _largest(u - w for u, w in zip(_values(V, i, N, x, y, z),
                                                       _values(V, i, mirror, xi, yi, zi)))

    # support law: e in supp(x.y) iff y = x~; a missing or negative c^e_{x,x~} counts as 1
    to_e = z == e
    worst = _largest(_values(V, np.flatnonzero(to_e & (y != inv[x])), N, x, y, z))
    positive = np.zeros(len(V.px), dtype=bool)
    positive[V.pair[to_e & ~negative]] = True
    out["support"] = worst if positive[V.py == inv[V.px]].all() else max(worst, Fraction(1))
    out["associativity"], checked = _exact_associativity(V)
    return out, checked


def exact_haar_defect(V: TableView, lam) -> Fraction:
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}| over the stored triples, exactly.

    For the exact weights ``lam``, ``mu = lam / s**2`` and ``rho``,
    ``lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}`` is
    ``(s_y s_z / s_x) (mu_y N^z_{x,y} - mu_z rho_x N^y_{x~,z})``: an identity
    in integers on N, sized in Fractions where it fails.
    """
    N, x, y, z = V.N, V.x, V.y, V.z
    a, b = V._scale
    m, k = _reduced(_times(int_array(w.numerator for w in lam), (b, ...), (b, ...)),
                    _times(int_array(w.denominator for w in lam), (a, ...), (a, ...)))
    p, q = _rho(V)
    xi = V.inv[x]
    mirror = _gather(V, N)(xi, z, y)
    i = np.flatnonzero(V.has_row[xi, z] & (_times(N, (m, y), (k, z), (q, x))
                                           != _times(mirror, (m, z), (k, y), (p, x))))
    return _largest(lam[v] * c - lam[w] * d for v, w, c, d in zip(
        y[i].tolist(), z[i].tolist(), _values(V, i, N, x, y, z), _values(V, i, mirror, xi, z, y)))


def _exact_associativity(V: TableView) -> tuple[Fraction, int]:
    """The worst associativity violation of an exact view, and the triples checked.

    A product (``V.factors``) whose factors pass takes their verdict:
    ``N = N1 (x) N2``, so each side of its law is the tensor product of the
    factors' sides, and it checks ``checked1 * checked2`` triples.  Any
    other view is checked on N, in one float64 pass while every sum is
    exact (``2 n max|N|**2 <= 2**53``), else on N's residues modulo
    :func:`crt_primes`, one pass per prime, all on the view's one
    :attr:`~TableView.plan`; :func:`_triple_defect` sizes the triples they flag.
    """
    if V.factors is not None:  # an exact product has exact factors
        found = [_exact_associativity(W) for W in V.factors]
        if all(w == 0 for w, _ in found):
            return ZERO, found[0][1] * found[1][1]
    height = 2 * V.n * max_abs(V.N) ** 2
    if height <= EXACT_FLOAT:
        _, checked, flagged = _associativity(V, V.dense(V.N.astype(float)), None)
    else:
        passes = [_associativity(V, V.dense((V.N % int(p)).astype(float)), p)
                  for p in crt_primes(V.n, height)]
        checked = passes[0][1]
        flagged = np.unique(np.concatenate([f for _, _, f in passes]), axis=0)
    return _triple_defect(V, flagged), checked


def _triple_defect(V: TableView, triples: np.ndarray) -> Fraction:
    """The largest |((x.y).z - x.(y.z))_v| of c over the checked ``triples``, exactly.

    Both sides of N's law are taken on the dense N, in int64 while
    ``2 n max|N|**2`` fits, else in Python ints, for about 2**22 products
    at a time; c's defect is N's times ``s_v / (s_x s_y s_z)``.  Of a
    commutative view the passes flag one of (x, y, z) and (z, y, x), whose
    defects are opposite with the same factor, so the worst is that of both.
    """
    worst, n = ZERO, V.n
    if not len(triples):
        return worst
    s = V.scales
    C = V.dense(V.N.astype(object) if 2 * n * max_abs(V.N) ** 2 >= 2**63 else V.N)
    for part in np.array_split(triples, -(-len(triples) * n * n // 2**22)):
        x, y, z = part.T.tolist()
        D = C[x, y][:, None] @ C[:, z].swapaxes(0, 1) - C[y, z][:, None] @ C[x]
        for (t, _, v), d in zip(np.argwhere(D).tolist(), D[D != 0].tolist()):
            worst = max(worst, abs(d * s[v] / (s[x[t]] * s[y[t]] * s[z[t]])))
    return worst
