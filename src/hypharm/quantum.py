"""Fusion rings of compact (quantum) groups and the central-algebra maps.

A fusion ring carries labels with conjugation, tensor multiplicities
N^gamma_{alpha beta}, classical dimensions n and quantum dimensions d
(equal exactly when the quantum group is of Kac type).  Each dimension
function induces a discrete hypergroup

    alpha . beta = sum_gamma (dim_gamma / (dim_alpha dim_beta))
                   N^gamma_{alpha beta} gamma,

with Haar weight dim^2; the two tables coincide iff the ring is Kac.

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
    check_q,
    conjugacy_hypergroup,
    fusion_table,
    group_character_data,
    q_integer,
    q_integers,
    su2_entries,
)
from .core import HypergroupTable, LineFile, _finite, convolve, int_in
from .errors import FileFormatError, ReciprocityError
from .groups import FiniteGroup
from .norms import norm_A, norm_Blambda


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Irreducible labels with tensor multiplicities and the two dimensions.

    ``entries`` are the multiplicities N^g_{ab} as int64 arrays
    ``(a, b, g, N)``, one element per entry, held sorted by ``(a, b, g)``;
    callers must not change them.  A product ``(a, b)`` is stored if it has
    an entry as ``(a, b)`` or as ``(b, a)``.  Rows may be missing for
    truncated rings (label sets cut at a radius), in which case only the
    stored rows are validated and the induced tables are truncated.
    """

    name: str
    labels: tuple[str, ...]
    trivial: int
    conjugate: tuple[int, ...]
    entries: tuple[np.ndarray, ...]
    ndims: tuple[int, ...]
    ddims: tuple
    q: object | None = None  # deformation parameter for su2-type rings

    def __post_init__(self):
        a, b, g, N = (np.asarray(v, dtype=np.int64) for v in self.entries)
        key = (a * self.size + b) * self.size + g
        if (np.diff(key) <= 0).any():
            order = np.argsort(key, kind="stable")
            a, b, g, N, key = a[order], b[order], g[order], N[order], key[order]
            if (twice := np.flatnonzero(np.diff(key) == 0)).size:
                i = twice[0]
                raise ValueError(f"multiplicity {a[i]} {b[i]} {g[i]} given twice")
        object.__setattr__(self, "entries", (a, b, g, N))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def complete(self) -> bool:
        """Whether every product ``(a, b)`` has a row, given as ``(a, b)`` or ``(b, a)``."""
        return bool((self._rows[1] >= 0).all())

    def has_row(self, a: int, b: int) -> bool:
        """Whether the product ``(a, b)`` is stored, as ``(a, b)`` or ``(b, a)``."""
        return 0 <= a < self.size and 0 <= b < self.size and bool(self._rows[1][a, b] >= 0)

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored rows: where each starts in the entries, with their count
        appended, and the ``size x size`` table of the row of each product
        ``(a, b)``: row ``(a, b)``, else row ``(b, a)``, else -1."""
        a, b, _, _ = self.entries
        first = np.flatnonzero(np.diff(a * self.size + b, prepend=-1))
        index = np.full((self.size, self.size), -1)
        index[b[first], a[first]] = index[a[first], b[first]] = np.arange(len(first))
        return np.append(first, len(a)), index

    def _row(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The support g and multiplicities N of the stored product ``(a, b)``."""
        if not self.has_row(a, b):
            raise KeyError(f"multiplicity row ({a},{b}) not stored")
        bounds, index = self._rows
        lo, hi = bounds[index[a, b]], bounds[index[a, b] + 1]
        return self.entries[2][lo:hi], self.entries[3][lo:hi]

    def N(self, a: int, b: int, g: int) -> int:
        gs, ns = self._row(a, b)
        i = np.searchsorted(gs, g)
        return int(ns[i]) if i < len(gs) and gs[i] == g else 0

    def validate(self, tol: float = 1e-9) -> None:
        """Frobenius reciprocity, dimension homomorphisms, trivial row.

        Every row is checked at once on the arrays of :attr:`entries`; a row
        they flag is checked again by :meth:`_check_row`, which raises the
        error.  Flagged are the rows with a negative multiplicity, a
        partner multiplicity that differs, a wrong trivial multiplicity, or
        a dimension sum whose float64 defect exceeds the tolerance less
        1e-12 times the size of its terms, more than float64 rounding can
        move it, so that every row the exact check fails is among them.
        """
        a, b, g, N = self.entries
        if not len(N):
            return
        bounds, index = self._rows
        first, k = bounds[:-1], self.size
        ra, rb = a[first], b[first]
        conj = np.array(self.conjugate, dtype=np.int64)
        row = index.ravel()  # row[x k + y]: the stored row of the product (x, y), else -1
        # at[r k + z]: N of row r at z
        at = np.zeros(len(first) * k, dtype=np.int64)
        at[np.repeat(np.arange(0, len(at), k), np.diff(bounds)) + g] = N
        bad = N < 0
        for x, y, z in ((conj[a], g, b), (g, conj[b], a)):
            r = row[x * k + y]
            # r = -1 reads the last row; those entries are masked
            bad |= (r >= 0) & (at[r * k + z] != N)
        flagged = np.logical_or.reduceat(bad, first)
        flagged |= at[np.arange(len(first)) * k + self.trivial] != (rb == conj[ra])
        for dims in (self.ndims, self.ddims):
            d = np.array([float(v) for v in dims])
            terms = N * d[g]
            lhs = np.add.reduceat(terms, first)
            scale = np.add.reduceat(np.abs(terms), first)
            rhs = d[ra] * d[rb]
            flagged |= np.abs(lhs - rhs) > tol * rhs - 1e-12 * (scale + np.abs(rhs))
        for i in np.flatnonzero(flagged).tolist():
            self._check_row(int(ra[i]), int(rb[i]), tol)

    def _check_row(self, a: int, b: int, tol: float) -> None:
        """The checks of :meth:`validate` on the row ``(a, b)``, with exact dimensions."""
        row = list(zip(*(v.tolist() for v in self._row(a, b))))
        for g, n in row:
            if n < 0:
                raise ReciprocityError(f"negative multiplicity at ({a},{b},{g})")
            for (x, y, z) in (
                (self.conjugate[a], g, b),
                (g, self.conjugate[b], a),
            ):
                try:
                    other = self.N(x, y, z)
                except KeyError:
                    continue
                if other != n:
                    raise ReciprocityError(
                        f"N^{g}_{{{a},{b}}}={n} but partner ({x},{y},{z})={other}"
                    )
        for dims in (self.ndims, self.ddims):
            lhs = sum(n * dims[g] for g, n in row)
            if abs(float(lhs - dims[a] * dims[b])) > tol * float(
                dims[a] * dims[b]
            ):
                raise ReciprocityError(
                    f"dimension homomorphism fails on row ({a},{b})"
                )
        expected = 1 if b == self.conjugate[a] else 0
        if self.N(a, b, self.trivial) != expected:
            raise ReciprocityError(f"trivial multiplicity wrong on ({a},{b})")


def group_fusion_ring(G: FiniteGroup) -> FusionRing:
    """Fusion ring of Irr(G) for a finite group (Kac: d = n), every product stored."""
    data = group_character_data(G)
    mult = np.array(data.mult, dtype=np.int64)
    a, b, g = np.nonzero(mult)
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


def _ring_table(FR: FusionRing, dims, kind: str, q) -> HypergroupTable:
    """The :func:`~hypharm.builders.fusion_table` of ``FR`` with the dimensions ``dims``;
    an su2-type ring's section takes the tail of SU_q(2) at ``q``."""
    return fusion_table(f"({FR.name},{kind})", FR.entries, dims, FR.conjugate, FR.labels,
                        trivial=FR.trivial, complete=FR.complete,
                        q=None if FR.q is None else q)


def hypergroup_n(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, n) built from the classical dimensions of a validated ring."""
    return _ring_table(FR, FR.ndims, "n", 1)


def hypergroup_d(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, d) built from the quantum dimensions of a validated ring.

    For :func:`su2_fusion_ring` it is the table of
    :func:`~hypharm.builders.su2_fusion` at the same q and radius, under
    the ring's name and labels.
    """
    return _ring_table(FR, FR.ddims, "d", FR.q)


def is_kac(FR: FusionRing) -> bool:
    """Kac type iff the two dimension functions agree: n == d exactly, label by label."""
    return all(n == d for n, d in zip(FR.ndims, FR.ddims))


def quantum_character_decomposition(FR: FusionRing, a: int, b: int) -> dict[int, int]:
    """chi_q^a chi_q^b = sum_g N^g_{ab} chi_q^g as a multiset {g: N}.

    Consistency with the support of the (Irr, d) table row is checked.
    Raises KeyError for a product the ring does not store.
    """
    gs, ns = FR._row(a, b)
    table_row = dict(hypergroup_d(FR).row(a, b))
    if set(table_row) != set(gs[ns != 0].tolist()):
        raise ReciprocityError(f"row support mismatch at ({a},{b})")
    return dict(zip(gs.tolist(), ns.tolist()))


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


def hat_map(
    G: FiniteGroup,
    f: CentralFunction,
    verify: bool = True,
    tol: float = 1e-9,
) -> np.ndarray:
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
        if abs(lhs - rhs) > tol * max(1.0, lhs):
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


def zm_to_b(
    G: FiniteGroup,
    mu: CentralMeasure,
    verify: bool = True,
    tol: float = 1e-9,
) -> np.ndarray:
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
        if worst > tol * max(1.0, float(np.abs(out).max()) ** 2):
            raise ArithmeticError(f"{G.name}: T* is not multiplicative ({worst:.2e})")
        table, ct = data.irr
        bnorm = norm_Blambda(table, ct, out)
        tv = float(sum(abs(m) for m in mu.masses))
        if abs(bnorm - tv) > tol * max(1.0, tv):
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
    for a, b, g, n in zip(*(v.tolist() for v in FR.entries)):
        lines.append(f"{FR.labels[a]} {FR.labels[b]} {FR.labels[g]} {n}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _in_float64(d):
    """The dimension ``d``, after checking that float64, in which rings are validated, holds it."""
    try:
        float(d)
    except OverflowError:
        raise ValueError("dimension beyond the range of float64") from None
    return d


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
    ndims = tuple(f.values("ndims", lambda tok: _in_float64(int(tok)), count=k))
    q = f.value("qparam", lambda tok: check_q(_finite(tok)), None)
    if q is None:
        ddims = tuple(f.values("ddims", lambda tok: _in_float64(_finite(tok)), count=k,
                               default=map(Fraction, ndims)))
    else:
        with f.at(f.header["qparam"][0]):
            ddims = tuple(_in_float64(q_integer(n, q)) for n in ndims)
    index = int_in(0, k)
    ring = FusionRing(
        f.value("name", default="ring"),
        labels,
        f.value("trivial", index, 0),
        tuple(f.values("conj", index, count=k)),
        (*np.array(list(mult), dtype=np.int64).reshape(-1, 3).T,
         np.array(list(mult.values()), dtype=np.int64)),
        ndims,
        ddims,
        q=q,
    )
    ring.validate()
    return ring
