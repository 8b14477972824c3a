"""Constructors for hypergroup tables: groups, families, fusion rules, products.

The example classes realized here:

* ``conjugacy_hypergroup(G)`` — conjugacy classes of a finite group, Haar
  weight lam(C) = |C|;
* ``irr_hypergroup(G)`` — classes of irreducible representations with
  lam(pi) = d_pi^2, built from the spectral engine run on Conj(G);
* ``su2_fusion`` / ``suq2_fusion`` — truncated fusion hypergroups of SU(2)
  and SU_q(2) (labels are the classical dimensions, q-integers weight the
  quantum case);
* ``tree_radial(q)`` — radial walk on the (q+1)-regular tree, from the
  closed-form radial product; the canonical family failing (P2) at desk
  scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import HypergroupTable, NNTail
from .view import TableView, int_array
from .errors import NonIntegerDimension
from .groups import FiniteGroup, cyclic

PRODUCT_SIZE_CAP = 10_000


def q_integer(k: int, q):
    """[k]_q = (q^k - q^{-k}) / (q - q^{-1}); [k]_1 = k."""
    if k < 0:
        raise ValueError("q-integer needs k >= 0")
    if q == 1:
        return Fraction(k)
    if isinstance(q, Fraction) or isinstance(q, int):
        # for q = a / b, the integer (a^2k - b^2k) / (a^2 - b^2) over (ab)^(k-1)
        a, b = Fraction(q).as_integer_ratio()
        return Fraction((a ** (2 * k) - b ** (2 * k)) // (a * a - b * b),
                        (a * b) ** (k - 1)) if k else Fraction(0)
    q = float(q)
    return (q**k - q**-k) / (q - 1.0 / q)


def q_integers(q, radius: int) -> list:
    """[k]_q for k = 0, ..., radius + 1: the labels of a section of this radius and its tail.

    Raises ValueError, naming q and the radius, when they overflow float64,
    in which the tail bounds and the quantum dimensions are taken.
    """
    try:
        out = [q_integer(k, q) for k in range(radius + 2)]
        # [k]_q increases with k
        ok = math.isfinite(float(out[-1]))
    except OverflowError:  # a float q's q**-k, or a Fraction beyond float64
        ok = False
    if not ok:
        raise ValueError(f"q = {q} is too small for radius {radius}: "
                         f"its q-integers overflow float64")
    return out


def check_q(q):
    """q as a float or a Fraction, after checking that it lies in (0, 1]."""
    if not isinstance(q, float):
        q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    return q


# -- group-derived tables -------------------------------------------------


@functools.cache
def group_hypergroup(G: FiniteGroup) -> HypergroupTable:
    """A group is a hypergroup with point products c^z_{x,y} = delta_{z,xy}.

    Built as entry arrays ``(x, y, xy)`` with N = 1 and s = 1
    (:class:`TableView`), ``x <= y`` when the group is abelian.  Built
    once per group and process, as are :func:`conjugacy_hypergroup` and
    :func:`irr_hypergroup`: callers share the table and must not change
    it (its view is read-only).
    """
    n = G.order
    x, y = np.triu_indices(n) if G.abelian else np.indices((n, n)).reshape(2, -1)
    ones = np.ones(len(x), dtype=np.int64)
    return HypergroupTable(
        f"{G.name}_group",
        TableView(n, G.identity, G.inverse, G.abelian, x, y,
                  np.array(G.cayley, dtype=np.int64)[x, y], ones, scale=[1] * n),
        elements=tuple(f"g{i}" for i in range(n)),
    )


def _commutative_entries(T: np.ndarray) -> tuple[np.ndarray, ...]:
    """The indices ``(x, y, z)`` of the nonzero ``T[x, y, z]`` with ``x <= y``, sorted."""
    x, y, z = np.nonzero(T)
    upper = x <= y
    return x[upper], y[upper], z[upper]


@functools.cache
def conjugacy_hypergroup(G: FiniteGroup) -> HypergroupTable:
    """Conj(G) with c^{Ck}_{Ci,Cj} = #{(a, b) in Ci x Cj : ab in Ck} / (|Ci| |Cj|).

    The counts come from one pass over the Cayley table.  The table is
    built from them as entry arrays in the N-form (:class:`TableView`): the
    count is |Ck| N with N the class-sum constant, and s is the class size.
    Its Fraction rows exist only once something reads them.  Built once per
    group and process.
    """
    classes = G.conjugacy_classes()
    k = len(classes)
    cls = np.empty(G.order, dtype=np.int64)
    for i, cl in enumerate(classes):
        cls[list(cl)] = i
    key = (cls[:, None] * k + cls) * k + cls[np.array(G.cayley, dtype=np.int64)]
    counts = np.bincount(key.ravel(), minlength=k**3).reshape(k, k, k)
    i, j, t = _commutative_entries(counts)
    sizes = np.array([len(cl) for cl in classes], dtype=np.int64)
    inv_class = [int(cls[G.inverse[cl[0]]]) for cl in classes]
    return HypergroupTable(
        f"Conj({G.name})",
        TableView(k, 0, inv_class, True, i, j, t, counts[i, j, t] // sizes[t], scale=sizes),
        elements=tuple(f"C{i}" for i in range(k)),
    )


@dataclass(frozen=True)
class GroupCharacterData:
    """Unnormalized character table of G recovered from the spectral engine.

    ``chars[a][j]`` is chi_a evaluated on class j, ``dims[a]`` the degree,
    ``mult[a][b][g]`` the tensor multiplicity N^g_{ab}, ``conjugate[a]`` the
    index of the contragredient class.
    """

    group: FiniteGroup
    class_sizes: tuple[int, ...]
    dims: tuple[int, ...]
    chars: tuple[tuple[complex, ...], ...]
    mult: tuple[tuple[tuple[int, ...], ...], ...]
    conjugate: tuple[int, ...]

    @functools.cached_property
    def irr(self) -> tuple:
        """Irr(G), the table :func:`irr_hypergroup` shares, and its
        :class:`~hypharm.spectral.CharacterTable`, computed on first use.

        The characters are those of the default seed, as are ``chars``.
        """
        from . import spectral  # deferred: spectral depends on core only

        H = irr_hypergroup(self.group)
        return H, spectral.characters(H)


@functools.cache
def group_character_data(G: FiniteGroup) -> GroupCharacterData:
    """Character table of G via class-sum joint diagonalization of Conj(G).

    Computed once per group and process, at the default seed.  Dimensions
    are recovered from d = sqrt(|G| / sum_C |C| |chi(C)/d|^2) and rounded;
    a deviation beyond 1e-6 signals a spectral failure and raises
    :class:`NonIntegerDimension`.  Multiplicities are inner products of
    characters, rounded under the same guard, so the integers (dimensions,
    multiplicities, conjugates, class sizes) do not depend on the seed; the
    character values are those of the default seed.
    """
    from . import spectral  # deferred: spectral depends on core only

    ct = spectral.characters(conjugacy_hypergroup(G))
    sizes = np.array([len(cl) for cl in G.conjugacy_classes()])
    psi = np.array(ct.chars, dtype=complex)

    d = np.sqrt(G.order / (np.abs(psi) ** 2 @ sizes))
    if (bad := np.flatnonzero(np.abs(d - np.round(d)) > 1e-6)).size:
        raise NonIntegerDimension(
            f"{G.name}: recovered dimension {d[bad[0]]} is not an integer"
        )
    dims = np.round(d).astype(np.int64)
    chars = dims[:, None] * psi

    # chi_b = conj(chi_a) for the b nearest to it
    dist = np.abs(chars[:, None, :] - chars.conj()[None, :, :]).max(axis=-1)
    conjugate = dist.argmin(axis=0)
    if (bad := np.flatnonzero(dist[conjugate, np.arange(len(dims))] > 1e-6)).size:
        raise NonIntegerDimension(f"{G.name}: no conjugate partner for chi_{bad[0]}")

    # N^g_{ab} = <chi_a chi_b, chi_g> = (1/|G|) sum_C |C| chi_a chi_b conj(chi_g)
    val = (chars[:, None, :] * chars[None, :, :] * sizes) @ chars.conj().T / G.order
    mult = np.round(val.real).astype(np.int64)
    if (bad := np.argwhere(np.abs(val - mult) > 1e-6)).size:
        a, b, g = bad[0]
        raise NonIntegerDimension(
            f"{G.name}: multiplicity <chi_{a} chi_{b}, chi_{g}> = {val[a, b, g]}"
        )
    return GroupCharacterData(
        G, tuple(sizes.tolist()), tuple(dims.tolist()),
        tuple(map(tuple, chars.tolist())),
        tuple(tuple(map(tuple, rows)) for rows in mult.tolist()),
        tuple(conjugate.tolist()),
    )


@functools.cache
def irr_hypergroup(G: FiniteGroup) -> HypergroupTable:
    """Irr(G) with alpha.beta = sum_gamma (d_gamma / d_alpha d_beta) N^gamma gamma.

    Exact: the :func:`fusion_table` of the integer multiplicities and
    dimensions of :func:`group_character_data`, whose rows must sum to
    d_alpha d_beta; Haar weight lam(pi) = d_pi^2.  Built once per group and
    process.
    """
    data = group_character_data(G)
    n = len(data.dims)
    dims, N = np.array(data.dims, dtype=np.int64), np.array(data.mult, dtype=np.int64)
    if (bad := np.argwhere(N @ dims != np.multiply.outer(dims, dims))).size:
        a, b = sorted(bad[0])
        raise NonIntegerDimension(f"{G.name}: fusion row ({a},{b}) does not sum to 1")
    a, b, g = _commutative_entries(N)
    return fusion_table(
        f"Irr({G.name})",
        TableView(n, 0, data.conjugate, True, a, b, g, N[a, b, g], scale=[1] * n),
        [Fraction(d) for d in data.dims],
        [f"pi{a}d{d}" for a, d in enumerate(data.dims)],
    )


# -- products -------------------------------------------------------------


def check_product_size(n1: int, n2: int) -> None:
    """Raise ValueError if a product of n1 and n2 points exceeds PRODUCT_SIZE_CAP."""
    if n1 * n2 > PRODUCT_SIZE_CAP:
        raise ValueError(f"product size {n1 * n2} exceeds cap {PRODUCT_SIZE_CAP}")


def product(H1: HypergroupTable, H2: HypergroupTable) -> HypergroupTable:
    """Product table: c^{(z,w)}_{(x,u),(y,v)} = c^z_{x,y} c^w_{u,v}.

    Pairs are indexed row-major, (x, u) -> x * |H2| + u.  Haar weights
    multiply (the view's N and s do) and the involution acts componentwise.
    The table is built from the factors' views (:meth:`TableView.product`);
    its Fraction rows exist only once something reads them.
    """
    if H1.truncated or H2.truncated:
        raise ValueError("product of truncated tables is not supported")
    check_product_size(H1.size, H2.size)
    return HypergroupTable(
        f"{H1.name}x{H2.name}",
        TableView.product(H1.view, H2.view),
        elements=tuple(
            f"{a}|{b}" for a in H1.elements for b in H2.elements
        ),
    )


# -- truncated families ----------------------------------------------------


def su2_tail(radius: int, q) -> NNTail:
    """Tail bounds of the generator rows of ``su2_fusion(radius, q)`` beyond the section.

    The row of the generator (label 2) at label b has mass [b-1]/([2][b])
    below and [b+1]/([2][b]) above; the lower mass increases to
    q^2/(1+q^2) and the upper decreases, so the sups over labels b >= R are
    the limit and the boundary value.  Of the q-integers it reads three,
    which the callers' :func:`q_integers` have checked against overflow.
    """
    two, last, beyond = (q_integer(k, q) for k in (2, radius, radius + 1))
    qf = float(q)
    alpha_sup = qf * qf / (1.0 + qf * qf) if qf < 1 else 0.5
    beta_sup = float(beyond) / float(two * last)
    return NNTail(alpha_sup, 0.0, beta_sup, start=radius - 1, exact=False)


def su2_entries(radius: int) -> tuple[np.ndarray, ...]:
    """The SU(2) fusion multiplicities on the labels 1..radius, as arrays ``(a, b, c, N)``.

    The stored products are a <= b with a + b - 1 <= radius; the product
    of a and b has N = 1 on c = b - a + 1 + 2k, k = 0, ..., a - 1
    (Clebsch-Gordan).  Labels are given as 0-based indices, entries sorted
    by ``(a, b, c)``.  These are the multiplicities of SU_q(2) for every q.
    """
    if radius < 2:
        raise ValueError("fusion section needs radius >= 2")
    # in 0-based labels: a <= b with a + b < radius, and c = b - a + 2k, k = 0, ..., a
    A, B = np.meshgrid(np.arange(radius), np.arange(radius), indexing="ij")
    stored = (A <= B) & (A + B < radius)
    a, b = A[stored], B[stored]
    n = a + 1  # entries per product
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    return (np.repeat(a, n), np.repeat(b, n), np.repeat(b - a, n) + 2 * k,
            np.ones(len(k), dtype=np.int64))


def fusion_table(name: str, multiplicities: TableView, dims, labels, *, q=None) -> HypergroupTable:
    """The hypergroup of fusion multiplicities N^g_{ab} and dimensions ``dims``.

        c^g_{a,b} = N^g_{ab} d_g / (d_a d_b),   lam(a) = d_a^2.

    ``multiplicities`` is the commutative N-form of N with unit scales
    (the ring's :attr:`~hypharm.quantum.FusionRing.view`): the table is
    its :meth:`~TableView.rescaled` view, on the same index arrays, exact
    with s = dims if every dimension is an int or a Fraction, else in
    floats.  Float dimensions whose Haar weights overflow float64 raise
    ValueError, as :attr:`HypergroupTable.lam` does for exact ones.  A
    table without every product is a section of radius its size; the
    section of an SU_q(2) ring, given its ``q``, takes the tail bounds of
    :func:`su2_tail`.
    """
    if not all(isinstance(d, (int, Fraction)) for d in dims) and any(
            math.isinf(v * v) for v in map(float, dims)):
        raise ValueError(f"{name}: Haar weights beyond the range of float64")
    n, complete = multiplicities.n, bool(multiplicities.has_row.all())
    return HypergroupTable(
        name,
        multiplicities.rescaled(dims),
        haar=[d * d for d in dims],
        truncated=not complete,
        radius=None if complete else n,
        tail=None if complete or q is None else su2_tail(n, q),
        elements=labels,
    )


def su2_fusion(radius: int, q=1) -> HypergroupTable:
    """Fusion hypergroup of SU(2) (q = 1) or SU_q(2) quantum dimensions.

    Labels are the dimensions 1..radius; delta_a . delta_b is supported on
    |a-b|+1, |a-b|+3, ..., a+b-1 with mass [c]_q / ([a]_q [b]_q): the
    :func:`fusion_table` of :func:`su2_entries` with the dimensions
    [a]_q, exact for a rational q and in floats for a float q.  The Haar
    weights are lam(a) = [a]_q^2.
    """
    entries = su2_entries(radius)
    q = check_q(q)
    return fusion_table(
        f"suq2_fusion_q{q}_R{radius}" if q != 1 else f"su2_fusion_R{radius}",
        TableView(radius, 0, range(radius), True, *entries, scale=[1] * radius),
        q_integers(q, radius)[1:radius + 1],
        tuple(str(a) for a in range(1, radius + 1)),
        q=q,
    )


def tree_radial(q: int, radius: int) -> HypergroupTable:
    """Radial hypergroup of the (q+1)-regular tree, section of radius R.

    The products have a closed form (Bloom and Heyer, *Harmonic Analysis of
    Probability Measures on Hypergroups*, 1995): for 1 <= m <= n,
    delta_m . delta_n puts mass q/(q+1) on n+m, (q-1)/((q+1) q^j) on n+m-2j
    for 0 < j < m and 1/((q+1) q^(m-1)) on n-m.  For m = 1 this is the
    walk delta_1 . delta_n = (1/(q+1)) delta_{n-1} + (q/(q+1)) delta_{n+1}.
    Every pair m <= n with m + n <= R is stored, exactly, as entry arrays
    in the N-form with s the Haar weights lam(0) = 1, lam(n) = (q+1) q^{n-1}
    (:class:`TableView`).
    """
    if not (isinstance(q, int) and q >= 2):
        raise ValueError("tree_radial needs an integer branching q >= 2")
    if radius < 2:
        raise ValueError("tree_radial needs radius >= 2")
    R = radius
    lam = [1] + [(q + 1) * q ** (n - 1) for n in range(1, R + 1)]
    # In the N-form with s = lam, delta_m . delta_n has N = 1 on n+m,
    # (q-1) q^(j-1) on n+m-2j for 0 < j < m, and q^m on n-m, or lam(m) on 0
    # when n = m.  table[m (m + 1) / 2 + i] is N on n-m+2i for n > m, and
    # table[diag + m] N on 0.
    table = [1] + [v for m in range(1, R // 2 + 1) for v in (
        (q**m,) + tuple((q - 1) * q ** (j - 1) for j in range(m - 1, 0, -1)) + (1,))]
    diag = len(table)
    table += lam[:R // 2 + 1]
    # the stored products m <= n with m + n <= R
    M, N = np.meshgrid(np.arange(R // 2 + 1), np.arange(R + 1), indexing="ij")
    stored = (M <= N) & (M + N <= R)
    m, n = M[stored], N[stored]
    pair = np.repeat(np.arange(len(m)), m + 1)
    i = np.arange(len(pair)) - np.repeat(np.cumsum(m + 1) - m - 1, m + 1)
    z = (n - m)[pair] + 2 * i
    at = np.where(z == 0, diag + m[pair], (m * (m + 1) // 2)[pair] + i)
    haar = [Fraction(v) for v in lam]
    return HypergroupTable(
        f"tree_radial_q{q}_R{R}",
        TableView(R + 1, 0, range(R + 1), True, m[pair], n[pair], z,
                  int_array(table)[at], scale=haar),
        haar=haar,
        truncated=True,
        radius=R,
        tail=NNTail(1 / (q + 1), 0.0, q / (q + 1), start=1, exact=True),
        generator=1,
        elements=tuple(str(n) for n in range(R + 1)),
    )


# -- family dispatch --------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a built-in table.

    name in {cyclic, conj, irr, su2_fusion, suq2_fusion, tree_radial};
    ``n`` for cyclic, ``q`` for the deformed families, ``radius`` for the
    truncated ones, ``group`` (a FiniteGroup or built-in name) for conj/irr.
    """

    name: str
    n: int | None = None
    q: object | None = None
    radius: int | None = None
    group: object | None = None


def _resolve_group(spec: FamilySpec) -> FiniteGroup:
    from .groups import get_group

    if isinstance(spec.group, FiniteGroup):
        return spec.group
    if isinstance(spec.group, str):
        return get_group(spec.group)
    raise ValueError(f"family {spec.name!r} needs a group")


def family(spec: FamilySpec) -> HypergroupTable:
    """Instantiate a built-in family from its spec."""
    name = spec.name.lower()
    if name == "cyclic":
        if not spec.n or spec.n < 1:
            raise ValueError("cyclic needs n >= 1")
        return group_hypergroup(cyclic(spec.n))
    if name == "conj":
        return conjugacy_hypergroup(_resolve_group(spec))
    if name == "irr":
        return irr_hypergroup(_resolve_group(spec))
    if name == "su2_fusion":
        if spec.radius is None:
            raise ValueError("su2_fusion needs a truncation radius")
        return su2_fusion(spec.radius)
    if name == "suq2_fusion":
        if spec.radius is None or spec.q is None:
            raise ValueError("suq2_fusion needs q and a truncation radius")
        return su2_fusion(spec.radius, q=spec.q)
    if name == "tree_radial":
        if spec.radius is None or spec.q is None:
            raise ValueError("tree_radial needs q and a truncation radius")
        q = spec.q  # 4/2 and 2.0 mean 2; 5/2 is no branching number
        if not (q.is_integer() if isinstance(q, float) else Fraction(q).denominator == 1):
            raise ValueError("tree_radial needs an integer branching q >= 2")
        return tree_radial(int(q), spec.radius)
    raise ValueError(f"unknown family {spec.name!r}")
