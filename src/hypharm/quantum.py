"""Fusion rings of compact (quantum) groups and the central-algebra maps.

A fusion ring carries labels with conjugation, tensor multiplicities
N^gamma_{alpha beta}, classical dimensions n and quantum dimensions d
(equal exactly when the quantum group is of Kac type).  Each dimension
function induces a discrete hypergroup

    alpha . beta = sum_gamma (dim_gamma / (dim_alpha dim_beta))
                   N^gamma_{alpha beta} gamma,

with Haar weight dim^2; the two tables coincide iff the ring is Kac.  A ring
holds N once, as a commutative N-form view with unit scales, and both tables
are rescalings of that view by their dimensions, on its index arrays.

For a finite group G the hat map

    f^(alpha) = (1/n_alpha) <f, chi_{alpha-bar}>,   <f,h> = (1/|G|) sum f h,

identifies the center ZL1(G) with A(Irr(G), n) isometrically and sends
convolution to the pointwise product; the dual map T* identifies central
measures with B(Irr(G)) through T*(mu)(pi) = (1/d_pi) <mu, chi_pi>.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .builders import (
    _commutative_entries,
    check_q,
    conjugacy_hypergroup,
    fusion_table,
    group_character_data,
    q_integer,
    q_integers,
    su2_entries,
)
from .core import DEFAULT_TOL, HypergroupTable, LineFile, _finite, convolve, int_in
from .errors import FileFormatError, ReciprocityError
from .groups import FiniteGroup
from .norms import norm_A, norm_Blambda
from .view import TableView, max_abs


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Irreducible labels with tensor multiplicities and the two dimensions.

    ``entries`` are the multiplicities N^g_{ab} as int64 arrays
    ``(a, b, g, N)``, one element per entry, in any order; a product
    ``(a, b)`` is given as ``(a, b)``, as ``(b, a)`` or as both with the
    same row.  The ring reads them through :attr:`view`, built once, and
    callers must not change them.  Rows may be missing for truncated rings
    (label sets cut at a radius), in which case only the stored rows are
    validated and the induced tables are truncated.
    """

    name: str
    labels: tuple[str, ...]
    trivial: int
    conjugate: tuple[int, ...]
    entries: tuple[np.ndarray, ...]
    ndims: tuple[int, ...]
    ddims: tuple
    q: object | None = None  # deformation parameter for su2-type rings

    @property
    def size(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def view(self) -> TableView:
        """The multiplicities as a commutative N-form with unit scales, c^g_{a,b} = N^g_{ab}:
        the index of every table of the ring (:func:`~hypharm.builders.fusion_table`)."""
        a, b, g, N = self.entries
        return TableView(self.size, self.trivial, self.conjugate, True, a, b, g, N,
                         scale=[1] * self.size)

    @property
    def complete(self) -> bool:
        """Whether every product ``(a, b)`` has a row, given as ``(a, b)`` or ``(b, a)``."""
        return bool(self.view.has_row.all())

    def has_row(self, a: int, b: int) -> bool:
        """Whether the product ``(a, b)`` is stored, as ``(a, b)`` or ``(b, a)``."""
        return 0 <= a < self.size and 0 <= b < self.size and bool(self.view.has_row[a, b])

    def N(self, a: int, b: int, g: int) -> int:
        return quantum_character_decomposition(self, a, b).get(g, 0)

    def validate(self) -> None:
        """Frobenius reciprocity, dimension homomorphisms, trivial row.

        Every product is checked at once on the entries of :attr:`view`, each
        unordered product once (:attr:`TableView.products_once`; the identities
        on ``(b, a)`` are those on ``(a, b)``), and those flagged are checked
        again in ``(a, b)`` order by :meth:`_check_row`, which raises the error.
        Flagged are the products with a negative multiplicity, a partner
        multiplicity that differs, a wrong trivial multiplicity, no entries, or
        a dimension sum whose float64 defect exceeds ``DEFAULT_TOL`` less 1e-12
        times the size of its terms, more than float64 rounding can move it,
        so that every product the exact check fails is among them.
        """
        V, k = self.view, self.size
        px, py, once, starts = V.products_once
        rows = len(px)
        r = np.repeat(np.arange(rows), np.diff(starts))  # the product of each entry
        a, b, g, N, conj = px[r], py[r], V.z[once], V.N[once], V.inv
        row = np.full(k * k, -1)  # row[x k + y]: the product (x, y) or (y, x), else -1
        row[px * k + py] = row[py * k + px] = np.arange(rows)
        at = np.zeros(rows * k, dtype=np.min_scalar_type(-max_abs(N) - 1))  # at[p k + z]: N
        at[r * k + g] = N
        bad = N < 0
        for x, y, z in ((conj[a], g, b), (g, conj[b], a)):
            p = row[x * k + y]
            # p = -1 reads the last product; those entries are masked
            bad |= (p >= 0) & (at[p * k + z] != N)
        flagged = np.bincount(r[bad], minlength=rows) > 0
        flagged |= at[np.arange(rows) * k + self.trivial] != (py == conj[px])
        flagged |= np.diff(starts) == 0  # a product without entries is checked row by row
        for dims in (self.ndims, self.ddims):
            d = np.array([float(v) for v in dims])
            terms = np.append(N * d[g], 0)  # the 0 is read for a last product without entries
            lhs = np.add.reduceat(terms, starts[:-1])
            scale = np.add.reduceat(np.abs(terms), starts[:-1])
            rhs = d[px] * d[py]
            flagged |= np.abs(lhs - rhs) > DEFAULT_TOL * rhs - 1e-12 * (scale + np.abs(rhs))
        for i in np.flatnonzero(flagged).tolist():
            self._check_row(int(px[i]), int(py[i]))

    def _check_row(self, a: int, b: int) -> None:
        """The checks of :meth:`validate` on the row ``(a, b)``, with exact dimensions."""
        row = list(quantum_character_decomposition(self, a, b).items())
        for g, n in row:
            if n < 0:
                raise ReciprocityError(f"negative multiplicity at ({a},{b},{g})")
            for x, y, z in ((self.conjugate[a], g, b), (g, self.conjugate[b], a)):
                if self.has_row(x, y) and (other := self.N(x, y, z)) != n:
                    raise ReciprocityError(
                        f"N^{g}_{{{a},{b}}}={n} but partner ({x},{y},{z})={other}"
                    )
        for dims in (self.ndims, self.ddims):
            lhs = sum(n * dims[g] for g, n in row)
            if abs(float(lhs - dims[a] * dims[b])) > DEFAULT_TOL * float(dims[a] * dims[b]):
                raise ReciprocityError(
                    f"dimension homomorphism fails on row ({a},{b})"
                )
        if dict(row).get(self.trivial, 0) != (b == self.conjugate[a]):
            raise ReciprocityError(f"trivial multiplicity wrong on ({a},{b})")


def group_fusion_ring(G: FiniteGroup) -> FusionRing:
    """Fusion ring of Irr(G) for a finite group (Kac: d = n), each product given as a <= b."""
    data = group_character_data(G)
    mult = np.array(data.mult, dtype=np.int64)
    a, b, g = _commutative_entries(mult)
    ring = FusionRing(
        f"Irr({G.name})",
        tuple(f"pi{a}d{d}" for a, d in enumerate(data.dims)),
        0,
        data.conjugate,
        (a, b, g, mult[a, b, g]),
        data.dims,
        tuple(Fraction(d) for d in data.dims),
    )
    ring.validate()
    return ring


def su2_fusion_ring(radius: int, q=1) -> FusionRing:
    """Truncated fusion ring of SU_q(2): labels 1..radius, the multiplicities of
    :func:`~hypharm.builders.su2_entries`, quantum dimensions [a]_q."""
    entries = su2_entries(radius)
    q = check_q(q)
    ring = FusionRing(
        f"Irr(SUq2)_q{q}_R{radius}",
        tuple(str(a) for a in range(1, radius + 1)),
        0,
        tuple(range(radius)),
        entries,
        tuple(range(1, radius + 1)),
        tuple(q_integers(q, radius)[1:radius + 1]),
        q=q,
    )
    ring.validate()
    return ring


def hypergroup_n(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, n) built from the classical dimensions of a validated ring."""
    return fusion_table(f"({FR.name},n)", FR.view, FR.ndims, FR.labels,
                        q=None if FR.q is None else 1)


def hypergroup_d(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, d) built from the quantum dimensions of a validated ring.

    For :func:`su2_fusion_ring` it is the table of
    :func:`~hypharm.builders.su2_fusion` at the same q and radius, under
    the ring's name and labels.  A Kac ring (:func:`is_kac`) is rescaled by
    its classical dimensions, so that both its tables hold one N at the
    same scales, whatever the type of its quantum dimensions.
    """
    dims = FR.ndims if is_kac(FR) else FR.ddims
    return fusion_table(f"({FR.name},d)", FR.view, dims, FR.labels, q=FR.q)


def is_kac(FR: FusionRing) -> bool:
    """Kac type iff the two dimension functions agree: n == d exactly, label by label."""
    return all(n == d for n, d in zip(FR.ndims, FR.ddims))


def quantum_character_decomposition(FR: FusionRing, a: int, b: int) -> dict[int, int]:
    """chi_q^a chi_q^b = sum_g N^g_{ab} chi_q^g as a multiset {g: N}, N != 0.

    Read from the ring's view, whose index the (Irr, d) table shares.
    Raises KeyError for a product the ring does not store.
    """
    if not FR.has_row(a, b):
        raise KeyError(f"multiplicity row ({a},{b}) not stored")
    return {g: int(n) for g, n in FR.view.row(a, b)}


# -- central functions on finite groups --------------------------------------


@dataclass(frozen=True)
class CentralFunction:
    """Class function on a finite group: one complex value per conjugacy class."""

    group: str
    values: tuple[complex, ...]


def zl1_norm(G: FiniteGroup, f: CentralFunction) -> float:
    """|f|_{ZL1(G)} = (1/|G|) sum_g |f(g)| under Haar probability measure."""
    sizes = group_character_data(G).class_sizes
    return float(sum(s * abs(v) for s, v in zip(sizes, f.values))) / G.order


def central_convolve(G: FiniteGroup, f: CentralFunction, g: CentralFunction) -> CentralFunction:
    """(f * g)(x) = (1/|G|) sum_y f(y) g(y^{-1} x) on class representatives.

    On Conj(G), whose Haar weights are the class sizes, this is
    ``f ._lam g / |G|``.
    """
    table = conjugacy_hypergroup(G)
    out = convolve(table, np.asarray(f.values, dtype=complex),
                   np.asarray(g.values, dtype=complex)) / G.order
    return CentralFunction(G.name, tuple(out.tolist()))


def hat_map(G: FiniteGroup, f: CentralFunction, verify: bool = True) -> np.ndarray:
    """f^(alpha) = (1/n_alpha)(1/|G|) sum_g f(g) chi_{alpha-bar}(g) on Irr(G).

    With ``verify`` the ZL1 -> A(Irr(G), n) isometry is checked on f
    itself, on the Irr(G) table and characters of the group's cached data
    (:attr:`GroupCharacterData.irr`).
    """
    data = group_character_data(G)
    chars = np.array(data.chars)[list(data.conjugate)]
    weighted = np.array(data.class_sizes) * np.asarray(f.values, dtype=complex)
    out = chars @ weighted / G.order / np.array(data.dims)
    if verify:
        table, ct = data.irr
        lhs = zl1_norm(G, f)
        rhs, _ = norm_A(table, ct, out, with_witness=False)
        if abs(lhs - rhs) > DEFAULT_TOL * max(1.0, lhs):
            raise ArithmeticError(
                f"{G.name}: hat map is not isometric ({lhs} vs {rhs})"
            )
    return out


def inverse_hat_map(G: FiniteGroup, coeffs) -> CentralFunction:
    """f(C) = sum_alpha n_alpha f^(alpha) chi_alpha(C)."""
    data = group_character_data(G)
    vals = (np.array(data.dims) * np.asarray(coeffs, dtype=complex)) @ np.array(data.chars)
    return CentralFunction(G.name, tuple(vals.tolist()))


@dataclass(frozen=True)
class CentralMeasure:
    """Central measure: total mass per conjugacy class (uniform on the class)."""

    group: str
    masses: tuple[complex, ...]


def convolve_central_measures(
    G: FiniteGroup, mu: CentralMeasure, nu: CentralMeasure
) -> CentralMeasure:
    """Mass on class k of mu * nu is sum_{ij} mu_i nu_j c^k_{ij}.

    On Conj(G), with Haar weights lam, this is ``lam (mu/lam ._lam nu/lam)``.
    """
    table = conjugacy_hypergroup(G)
    lam = table.lam
    out = lam * convolve(table, np.asarray(mu.masses, dtype=complex) / lam,
                         np.asarray(nu.masses, dtype=complex) / lam)
    return CentralMeasure(G.name, tuple(out.tolist()))


def zm_to_b(G: FiniteGroup, mu: CentralMeasure, verify: bool = True) -> np.ndarray:
    """T*(mu)(pi) = (1/d_pi) <mu, chi_pi>: central measures into B(Irr(G)).

    With ``verify``, multiplicativity under measure convolution and the
    equality |T*(mu)|_{B_lambda(Irr G)} = total variation are checked, the
    second on the group's cached Irr(G) data (:attr:`GroupCharacterData.irr`).
    """
    data = group_character_data(G)
    out = np.array(data.chars) @ np.asarray(mu.masses, dtype=complex) / np.array(data.dims)
    if verify:
        sq = convolve_central_measures(G, mu, mu)
        lhs = zm_to_b(G, sq, verify=False)
        worst = float(np.abs(lhs - out**2).max())
        if worst > DEFAULT_TOL * max(1.0, float(np.abs(out).max()) ** 2):
            raise ArithmeticError(f"{G.name}: T* is not multiplicative ({worst:.2e})")
        table, ct = data.irr
        bnorm = norm_Blambda(table, ct, out)
        tv = float(sum(abs(m) for m in mu.masses))
        if abs(bnorm - tv) > DEFAULT_TOL * max(1.0, tv):
            raise ArithmeticError(
                f"{G.name}: |T* mu|_Blambda = {bnorm} but TV = {tv}"
            )
    return out


# -- fusion-ring file format --------------------------------------------------
#
#     fusionring v1
#     name <token>
#     labels <l0> <l1> ...
#     trivial <index>
#     conj <i0> <i1> ...
#     ndims <n0> <n1> ...
#     ddims <d0> <d1> ...     (optional; "qparam <q>" may appear instead)
#     mult
#     <alpha> <beta> <gamma> <N>     (label tokens, nonnegative integer N)
#     end


def save_fusion_ring(FR: FusionRing, path: str) -> None:
    lines = ["fusionring v1", f"name {FR.name}"]
    lines.append("labels " + " ".join(FR.labels))
    lines.append(f"trivial {FR.trivial}")
    lines.append("conj " + " ".join(str(i) for i in FR.conjugate))
    lines.append("ndims " + " ".join(str(n) for n in FR.ndims))
    if FR.q is not None:
        lines.append(f"qparam {FR.q}")
    else:
        lines.append("ddims " + " ".join(str(d) for d in FR.ddims))
    lines.append("mult")
    V = FR.view
    _, _, once, _ = V.products_once
    for a, b, g, n in zip(*(v[once].tolist() for v in (V.x, V.y, V.z, V.N))):
        lines.append(f"{FR.labels[a]} {FR.labels[b]} {FR.labels[g]} {n}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dimension(d):
    """The dimension ``d``, after checking that it is positive and that float64, in which
    rings are validated, holds it."""
    try:
        if float(d) > 0:
            return d
    except OverflowError:
        raise ValueError("dimension beyond the range of float64") from None
    raise ValueError(f"dimension {d} is not positive")


def load_fusion_ring(path: str) -> FusionRing:
    """Parse and validate a fusion-ring file (reciprocity checked on load)."""
    f = LineFile(path, "fusionring v1", body="mult")
    labels = tuple(f.values("labels"))
    if not labels or len(set(labels)) != len(labels):
        raise FileFormatError("labels must be distinct and nonempty", line=f.header["labels"][0])
    k = len(labels)
    label_index = {l: i for i, l in enumerate(labels)}
    mult: dict[tuple[int, int, int], int] = {}  # (a, b, g) -> N, in file order
    in_int64 = int_in(-2**63, 2**63)  # the entry arrays hold N in int64
    for ln, toks in f.body:
        with f.at(ln):
            if len(toks) != 4:
                raise ValueError("mult line needs 'alpha beta gamma N'")
            if not set(toks[:3]) <= label_index.keys():
                raise ValueError(f"unknown label in {' '.join(toks[:3])}")
            key = tuple(label_index[t] for t in toks[:3])
            if key in mult:
                raise FileFormatError(f"duplicate multiplicity {' '.join(toks[:3])}", line=ln)
            mult[key] = in_int64(toks[3])
    ndims = tuple(f.values("ndims", lambda tok: _dimension(int(tok)), count=k))
    q = f.value("qparam", lambda tok: check_q(_finite(tok)), None)
    if q is None:
        ddims = tuple(f.values("ddims", lambda tok: _dimension(_finite(tok)), count=k,
                               default=map(Fraction, ndims)))
    else:
        with f.at(f.header["qparam"][0]):
            ddims = tuple(_dimension(q_integer(n, q)) for n in ndims)
    index = int_in(0, k)
    conjugate = tuple(f.values("conj", index, count=k))
    if any(conjugate[c] != i for i, c in enumerate(conjugate)):
        raise FileFormatError("conj is not an involutive permutation", line=f.header["conj"][0])
    ring = FusionRing(
        f.value("name", default="ring"),
        labels,
        f.value("trivial", index, 0),
        conjugate,
        (*np.array(list(mult), dtype=np.int64).reshape(-1, 3).T,
         np.array(list(mult.values()), dtype=np.int64)),
        ndims,
        ddims,
        q=q,
    )
    with f.at(f.header_end):  # the view rejects two orders of a product with different rows
        ring.validate()
        # a ring without every product gives sections of radius its size
        if k < 2 and not ring.complete:
            raise ValueError("a ring without every product needs at least 2 labels")
    return ring
