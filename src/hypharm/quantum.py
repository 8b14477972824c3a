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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .builders import (
    check_q,
    conjugacy_hypergroup,
    group_character_data,
    q_integer,
    q_integers,
    su2_tail,
)
from .core import HypergroupTable, LineFile, _finite, convolve, int_in
from .view import TableView
from .errors import FileFormatError, ReciprocityError
from .groups import FiniteGroup
from .norms import norm_A, norm_Blambda


@dataclass(frozen=True)
class FusionRing:
    """Irreducible labels with tensor multiplicities and the two dimensions.

    ``mult[(a, b)]`` maps gamma -> N^gamma_{ab}; rows may be missing for
    truncated rings (label sets cut at a radius), in which case only the
    stored rows are validated and the induced tables are truncated.
    """

    name: str
    labels: tuple[str, ...]
    trivial: int
    conjugate: tuple[int, ...]
    mult: dict[tuple[int, int], dict[int, int]]
    ndims: tuple[int, ...]
    ddims: tuple
    q: object | None = None  # deformation parameter for su2-type rings

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def complete(self) -> bool:
        """Whether every product ``(a, b)`` has a row, given as ``(a, b)`` or ``(b, a)``."""
        return bool(self._stored()[1].all())

    def _stored(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys ``(a, b)`` of ``mult``, and the mask of products with a row in either order."""
        keys = np.array(list(self.mult), dtype=np.int64).reshape(-1, 2)
        has = np.zeros((self.size, self.size), dtype=bool)
        has[keys[:, 0], keys[:, 1]] = has[keys[:, 1], keys[:, 0]] = True
        return keys, has

    def N(self, a: int, b: int, g: int) -> int:
        row = self.mult.get((a, b))
        if row is None:
            row = self.mult.get((b, a))
        if row is None:
            raise KeyError(f"multiplicity row ({a},{b}) not stored")
        return row.get(g, 0)

    def entries(self) -> tuple[np.ndarray, ...]:
        """The stored multiplicities as arrays ``(a, b, g, N)``, rows in ``mult`` order."""
        counts = [len(row) for row in self.mult.values()]
        keys = np.array(list(self.mult), dtype=np.int64).reshape(-1, 2)
        a, b = np.repeat(keys, counts, axis=0).T
        g = np.array([g for row in self.mult.values() for g in row], dtype=np.int64)
        N = np.array([n for row in self.mult.values() for n in row.values()], dtype=np.int64)
        return a, b, g, N

    def validate(self, tol: float = 1e-9) -> None:
        """Frobenius reciprocity, dimension homomorphisms, trivial row.

        Every row is checked at once on the arrays of :meth:`entries`; a row
        they flag is checked again by :meth:`_check_row`, which raises the
        error.  Flagged are the rows with a negative multiplicity, a
        partner multiplicity that differs, a wrong trivial multiplicity, or
        a dimension sum whose float64 defect exceeds the tolerance less
        1e-12 times the size of its terms, more than float64 rounding can
        move it, so that every row the exact check fails is among them.
        """
        a, b, g, N = self.entries()
        k, conj = self.size, np.array(self.conjugate, dtype=np.int64)
        keys, has = self._stored()
        row = np.repeat(np.arange(len(keys)), [len(r) for r in self.mult.values()])
        # M[x, y, z] = N(x, y, z): row (x, y), else row (y, x)
        M = np.zeros((k, k, k), dtype=np.int64)
        M[b, a, g] = N
        M[keys[:, 0], keys[:, 1]] = 0
        M[a, b, g] = N
        bad = N < 0
        for x, y, z in ((conj[a], g, b), (g, conj[b], a)):
            bad |= has[x, y] & (M[x, y, z] != N)
        flagged = np.bincount(row[bad], minlength=len(keys)) > 0
        ra, rb = keys.T
        flagged |= M[ra, rb, self.trivial] != (rb == conj[ra])
        for dims in (self.ndims, self.ddims):
            d = np.array([float(v) for v in dims])
            lhs = np.bincount(row, weights=N * d[g], minlength=len(keys))
            scale = np.bincount(row, weights=np.abs(N * d[g]), minlength=len(keys))
            rhs = d[ra] * d[rb]
            flagged |= np.abs(lhs - rhs) > tol * rhs - 1e-12 * (scale + np.abs(rhs))
        for i in np.flatnonzero(flagged).tolist():
            self._check_row(*keys[i].tolist(), tol)

    def _check_row(self, a: int, b: int, tol: float) -> None:
        """The checks of :meth:`validate` on the row ``(a, b)``, with exact dimensions."""
        row = self.mult[(a, b)]
        for g, n in row.items():
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
            lhs = sum(n * dims[g] for g, n in row.items())
            if abs(float(lhs - dims[a] * dims[b])) > tol * float(
                dims[a] * dims[b]
            ):
                raise ReciprocityError(
                    f"dimension homomorphism fails on row ({a},{b})"
                )
        expected = 1 if b == self.conjugate[a] else 0
        if row.get(self.trivial, 0) != expected:
            raise ReciprocityError(f"trivial multiplicity wrong on ({a},{b})")


def group_fusion_ring(G: FiniteGroup) -> FusionRing:
    """Fusion ring of Irr(G) for a finite group (Kac: d = n)."""
    data = group_character_data(G)
    k = len(data.dims)
    mult = {
        (a, b): {g: data.mult[a][b][g] for g in range(k) if data.mult[a][b][g]}
        for a in range(k)
        for b in range(k)
    }
    ring = FusionRing(
        f"Irr({G.name})",
        tuple(f"pi{a}d{d}" for a, d in enumerate(data.dims)),
        0,
        data.conjugate,
        mult,
        data.dims,
        tuple(Fraction(d) for d in data.dims),
    )
    ring.validate()
    return ring


def su2_fusion_ring(radius: int, q=1) -> FusionRing:
    """Truncated fusion ring of SU_q(2): labels 1..radius, CG multiplicities."""
    if radius < 2:
        raise ValueError("fusion ring needs radius >= 2")
    q = check_q(q)
    mult = {}
    for a in range(1, radius + 1):
        for b in range(a, radius + 1):
            if a + b - 1 > radius:
                continue
            row = {c - 1: 1 for c in range(b - a + 1, a + b, 2)}
            mult[(a - 1, b - 1)] = row
    ring = FusionRing(
        f"Irr(SUq2)_q{q}_R{radius}",
        tuple(str(a) for a in range(1, radius + 1)),
        0,
        tuple(range(radius)),
        mult,
        tuple(range(1, radius + 1)),
        tuple(q_integers(q, radius)[1:radius + 1]),
        q=q,
    )
    ring.validate()
    return ring


def _ring_table(FR: FusionRing, dims, kind: str) -> HypergroupTable:
    """The table of ``FR`` with c^g_{a,b} = N^g_{ab} d_g / (d_a d_b) for the dimensions ``dims``.

    Exact, in the N-form with s = dims (:class:`TableView`), if every
    dimension is an integer or a Fraction, else in floats.
    """
    a, b, g, N = FR.entries()
    if all(isinstance(d, (int, Fraction)) for d in dims):
        view = TableView(FR.size, FR.trivial, FR.conjugate, True, a, b, g, N, scale=dims)
    else:
        d = np.array([float(v) for v in dims])
        view = TableView(FR.size, FR.trivial, FR.conjugate, True, a, b, g,
                         d[g] * N / (d[a] * d[b]))
    truncated = not FR.complete
    tail = None
    if truncated and FR.q is not None:
        # su2-type ring: the closed-form tail bounds of the family
        tail = su2_tail(FR.size, FR.q if kind == "d" else 1)
    return HypergroupTable(
        f"({FR.name},{kind})",
        view,
        haar=[d * d for d in dims],
        truncated=truncated,
        radius=FR.size if truncated else None,
        tail=tail,
        generator=1 if FR.size > 1 else 0,
        elements=FR.labels,
    )


def hypergroup_n(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, n) built from the classical dimensions of a validated ring."""
    return _ring_table(FR, FR.ndims, "n")


def hypergroup_d(FR: FusionRing) -> HypergroupTable:
    """The hypergroup (Irr, d) built from the quantum dimensions of a validated ring."""
    return _ring_table(FR, FR.ddims, "d")


def is_kac(FR: FusionRing, tol: float = 1e-9) -> bool:
    """Kac type iff the two dimension functions agree: max |n - d| < tol."""
    return max(abs(float(n - d)) for n, d in zip(FR.ndims, FR.ddims)) < tol


def quantum_character_decomposition(FR: FusionRing, a: int, b: int) -> dict[int, int]:
    """chi_q^a chi_q^b = sum_g N^g_{ab} chi_q^g as a multiset {g: N}.

    Consistency with the support of the (Irr, d) table row is checked.
    """
    row = FR.mult.get((a, b)) or FR.mult.get((b, a))
    if row is None:
        raise KeyError(f"decomposition ({a},{b}) leaves the stored ring")
    table_row = dict(hypergroup_d(FR).row(a, b))
    if set(table_row) != {g for g, n in row.items() if n}:
        raise ReciprocityError(f"row support mismatch at ({a},{b})")
    return dict(row)


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
    for (a, b) in sorted(FR.mult):
        for g, n in sorted(FR.mult[(a, b)].items()):
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
    mult: dict[tuple[int, int], dict[int, int]] = {}
    for ln, toks in f.body:
        with f.at(ln):
            if len(toks) != 4:
                raise ValueError("mult line needs 'alpha beta gamma N'")
            if not set(toks[:3]) <= label_index.keys():
                raise ValueError(f"unknown label in {' '.join(toks[:3])}")
            a, b, g = (label_index[t] for t in toks[:3])
            row = mult.setdefault((a, b), {})
            if g in row:
                raise FileFormatError(f"duplicate multiplicity {' '.join(toks[:3])}", line=ln)
            row[g] = int(toks[3])
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
        mult,
        ndims,
        ddims,
        q=q,
    )
    ring.validate()
    return ring
