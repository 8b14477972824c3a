"""Banach-algebra norms on finite tables and certified intervals on sections.

On a finite commutative table every norm is computed in character space:

* ``norm_A(u) = sum_chi w(chi) |u^(chi)|`` with an explicit optimal
  factorization ``u = xi ._lam eta~`` as witness;
* ``norm_Blambda`` evaluates the dual pairing against an explicitly
  constructed ``f`` with ``max_chi |f^(chi)| = 1`` (the reduced-C* unit
  ball), reproducing the same value along an independent path;
* ``norm_MA`` is the operator norm of multiplication on A(H) = l1(H^):
  the maximum column l1-sum of the matrix expanding ``u . chi`` in the
  character basis.

Products with a finite group G use the block realization
``A(H x G) = l1-sum over chi of A(G)`` where the A(G)-norm of h is the
trace norm of the regular-representation matrix ``[h(a b^{-1})] / |G|``;
no explicit irreducible representations are needed.

Truncated tables never get a single number: ``*_interval`` functions return
certified lower bounds (dual pairings against functions whose operator norm
is controlled by the L1 contraction) and upper bounds (explicit l2
factorizations inside the section).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builders import group_hypergroup, product
from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    HFunction,
    HypergroupTable,
    convolve_functions,
    involute,
    l2_norm,
)
from .errors import SingularCharacterBasis
from .groups import FiniteGroup, dihedral4, symmetric, cyclic
from .spectral import (
    CharacterTable,
    _as_dense,
    characters,
    fourier,
    inverse_fourier,
)


def default_mcb_groups() -> tuple[FiniteGroup, ...]:
    """Z2, S3, D4: includes a group with a 2-dimensional irreducible block."""
    return (cyclic(2), symmetric(3), dihedral4())


@dataclass
class FactorizationWitness:
    """Optimal pair (xi, eta) with u = xi ._lam eta~ and |xi|_2 |eta|_2 = |u|_A."""

    xi: HFunction
    eta: HFunction
    product_error: float
    value_error: float


@dataclass
class Interval:
    """Certified enclosure [lower, upper] for a norm on a truncated table."""

    lower: float
    upper: float
    certificate: str = ""

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise ArithmeticError(
                f"certified interval is empty: [{self.lower}, {self.upper}]"
            )


def _phase(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = np.abs(z) > 0
    out[nz] = z[nz] / np.abs(z[nz])
    return out


def norm_A(
    H: HypergroupTable, ct: CharacterTable, u, with_witness: bool = True
) -> tuple[float, FactorizationWitness | None]:
    """Fourier-algebra norm sum_chi w|u^| with verified optimal factorization."""
    ud = _as_dense(H, u)
    uhat = fourier(H, ct, ud)
    value = float(np.sum(ct.plancherel * np.abs(uhat)))
    if not with_witness:
        return value, None
    root = np.sqrt(np.abs(uhat))
    xi = inverse_fourier(H, ct, _phase(uhat) * root)
    eta = inverse_fourier(H, ct, root)
    prod = convolve_functions(H, xi, involute(H, eta))
    perr = max(
        (abs(prod[i] - ud[i]) for i in range(H.size)),
        default=0.0,
    )
    verr = abs(l2_norm(H, xi) * l2_norm(H, eta) - value)
    if perr > 1e-10 * max(1.0, float(np.max(np.abs(ud)))) or verr > 1e-9 * max(1.0, value):
        raise ArithmeticError(
            f"{H.name}: factorization witness failed (product {perr:.2e}, "
            f"value {verr:.2e})"
        )
    return value, FactorizationWitness(xi, eta, float(perr), float(verr))


def norm_Blambda(H: HypergroupTable, ct: CharacterTable, u) -> float:
    """Fourier-Stieltjes norm as the dual pairing sup over the C*_lam ball.

    Builds the extremal f explicitly, checks ``max|f^| <= 1`` and evaluates
    ``|sum_x lam(x) u(x) f(x)|`` in element space.  ``f^`` is the conjugate
    phase of ``u^`` at the conjugate character; since w(conj chi) = w(chi),
    that ``f`` is the conjugate of the inverse transform of the phase.
    """
    ud = _as_dense(H, u)
    f = _as_dense(H, inverse_fourier(H, ct, _phase(fourier(H, ct, ud)))).conj()
    sup = float(np.max(np.abs(fourier(H, ct, f))))
    if sup > 1.0 + 1e-8:
        raise ArithmeticError(f"{H.name}: dual witness leaves the C*_lam ball")
    lam = H.view.lam
    return abs(complex(np.sum(lam * ud * f)))


def multiplication_matrix(H: HypergroupTable, ct: CharacterTable, u) -> np.ndarray:
    """m[j, i] with u . chi_i = sum_j m[j, i] chi_j (character-basis expansion)."""
    if ct.size != H.size:
        raise SingularCharacterBasis(
            f"{H.name}: {ct.size} characters for {H.size} elements"
        )
    weighted = H.view.lam * _as_dense(H, u) * ct.chars
    return ct.plancherel[:, None] * (ct.chars.conj() @ weighted.T)


def norm_MA(H: HypergroupTable, ct: CharacterTable, u) -> float:
    """Multiplier norm: max column l1-sum of the multiplication matrix."""
    m = multiplication_matrix(H, ct, u)
    return float(np.max(np.sum(np.abs(m), axis=0)))


# -- products with finite groups -------------------------------------------


def group_a_norm(G: FiniteGroup, h) -> float:
    """|h|_{A(G)} = |lam_G(h-check)|_{S1} / |G| via the regular representation."""
    h = np.asarray(h, dtype=complex)
    n = G.order
    mat = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            mat[a, b] = h[G.mul(b, G.inverse[a])]
    return float(np.sum(np.linalg.svd(mat, compute_uv=False))) / n


def product_a_norm(
    H: HypergroupTable, ct: CharacterTable, G: FiniteGroup, w: np.ndarray
) -> float:
    """|w|_{A(H x G)} = sum_chi w(chi) |w_chi|_{A(G)} (partial transform in x)."""
    lam = H.view.lam
    wc = np.einsum("x,xg,ix->ig", lam, w, ct.chars.conj())
    return float(
        sum(ct.plancherel[i] * group_a_norm(G, wc[i]) for i in range(ct.size))
    )


def product_ma_norm(
    H: HypergroupTable,
    ct: CharacterTable,
    G: FiniteGroup,
    u,
    samples: int = 3,
    seed: int = DEFAULT_SEED,
) -> float:
    """|u x 1_G|_{MA(H x G)} via extreme inputs chi (x) coefficient functions.

    The extreme points of the A(H x G) unit ball are single-character blocks
    carrying rank-one coefficient functions of G; the sup over the point-mass
    coefficient is attained, the sampled random ones double-check that
    multiplication by u x 1 does not mix the G-side.
    """
    ud = _as_dense(H, u)
    rng = np.random.default_rng(seed)
    n = G.order
    phis = [np.eye(n)[G.identity].astype(complex)]
    for _ in range(samples):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        phi = np.array(
            [
                sum(xi[G.mul(G.inverse[g], a)] * np.conj(eta[a]) for a in range(n))
                for g in range(n)
            ]
        )
        phis.append(phi)
    best = 0.0
    for i in range(ct.size):
        for phi in phis:
            w = np.outer(ct.chars[i], phi)
            denom = product_a_norm(H, ct, G, w)
            if denom < 1e-13:
                continue
            out = ud[:, None] * w
            best = max(best, product_a_norm(H, ct, G, out) / denom)
    return best


def norm_Mcb_approx(
    H: HypergroupTable,
    ct: CharacterTable,
    u,
    groups: tuple[FiniteGroup, ...] | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[float, dict[str, float]]:
    """sup_G |u x 1_G|_{MA(H x G)} over the supplied finite groups.

    For commutative H this must reproduce norm_MA(u); the operation exists
    to verify that equality, not to improve on it.  Abelian groups are also
    routed through the plain commutative path on the product table as a
    cross-check.
    """
    if groups is None:
        groups = default_mcb_groups()
    per_group = {}
    for G in groups:
        val = product_ma_norm(H, ct, G, u, seed=seed)
        if G.abelian:
            K = product(H, group_hypergroup(G))
            ctk = characters(K, seed=seed)
            w = np.repeat(_as_dense(H, u), G.order)
            direct = norm_MA(K, ctk, w)
            if abs(direct - val) > 1e-8 * max(1.0, val):
                raise ArithmeticError(
                    f"{H.name} x {G.name}: block path {val} != commutative path {direct}"
                )
        per_group[G.name] = val
    return max(per_group.values()), per_group


# -- certified intervals on truncated tables --------------------------------


def _candidate_duals(H: HypergroupTable, ud: np.ndarray) -> list[np.ndarray]:
    cands = []
    phase = np.conj(_phase(ud)) * (np.abs(ud) > 0)
    if np.any(np.abs(phase) > 0):
        cands.append(phase)
    for x in np.nonzero(np.abs(ud) > 0)[0][:8]:
        d = np.zeros(H.size, dtype=complex)
        d[x] = 1.0
        cands.append(d)
    return cands


def a_norm_interval(H: HypergroupTable, u) -> Interval:
    """Certified [lower, upper] for |u|_{A} on a truncated table.

    Upper bound: the factorization (u, delta_e) gives |u|_2 |delta_e|_2.
    Lower bound: dual pairings |sum lam u f| / |f|_{l1(lam)}, the operator
    norm of lam(f) being bounded by the L1 contraction of the convolution.
    """
    ud = _as_dense(H, u)
    lam = H.view.lam
    upper = float(np.sqrt(np.sum(lam * np.abs(ud) ** 2)))
    lower = 0.0
    for f in _candidate_duals(H, ud):
        pair = abs(complex(np.sum(lam * ud * f)))
        denom = float(np.sum(lam * np.abs(f)))
        if denom > 0:
            lower = max(lower, pair / denom)
    return Interval(
        lower,
        upper,
        "upper: l2 factorization against delta_e; "
        "lower: dual pairing with |lam(f)| <= |f|_{l1(lam)}",
    )


def ma_norm_interval(H: HypergroupTable, u, tests: list[HFunction] | None = None) -> Interval:
    """Certified enclosure for the multiplier norm on a truncated table.

    Upper bound: |u|_{MA} <= |u|_{B_lambda} <= min(l2 bound,
    sum_x |u(x)| sqrt(lam(x))).  Lower bound: ratios
    |u v|_{A,lower} / |v|_{A,upper} over test functions v.
    """
    ud = _as_dense(H, u)
    lam = H.view.lam
    upper = min(
        float(np.sqrt(np.sum(lam * np.abs(ud) ** 2))),
        float(np.sum(np.abs(ud) * np.sqrt(lam))),
    )
    if tests is None:
        tests = [HFunction.delta(H.identity), HFunction.delta(H.generator)]
    lower = 0.0
    for v in tests:
        vd = _as_dense(H, v)
        prod = HFunction(enumerate(ud * vd))
        num = a_norm_interval(H, prod).lower
        den = a_norm_interval(H, v).upper
        if den > 0:
            lower = max(lower, num / den)
    return Interval(
        lower,
        upper,
        "upper: min(l2, sum |u| sqrt(lam)) bound on B_lambda; "
        "lower: |uv|_A / |v|_A on test functions",
    )


# -- report assembly ---------------------------------------------------------


@dataclass
class NormReport:
    """All norms of one function with witnesses and convention flags.

    On finite (P2) tables the A, B_lambda and MA norms agree; the invariant
    |u|_A >= |u|_{B_lambda} >= |u|_{MA} is checked up to tolerance.
    """

    table: str
    finite: bool
    norm_A: float | Interval
    norm_Blambda: float | Interval
    norm_MA: float | Interval
    norm_B: float | None = None
    norm_Mcb: float | None = None
    mcb_per_group: dict[str, float] = field(default_factory=dict)
    witness: FactorizationWitness | None = None
    flags: tuple[str, ...] = ()

    def lines(self) -> list[str]:
        out = [f"norm report on {self.table}"]

        def fmt(v):
            if isinstance(v, Interval):
                return f"[{v.lower!r}, {v.upper!r}]"
            return repr(v)

        out.append(f"  |u|_A        = {fmt(self.norm_A)}")
        out.append(f"  |u|_Blambda  = {fmt(self.norm_Blambda)}")
        out.append(f"  |u|_MA       = {fmt(self.norm_MA)}")
        if self.norm_B is not None:
            out.append(f"  |u|_B        = {self.norm_B!r}  (convention C*=C*_lam)")
        if self.norm_Mcb is not None:
            out.append(f"  |u|_Mcb~     = {self.norm_Mcb!r}")
            for g, v in sorted(self.mcb_per_group.items()):
                out.append(f"    with {g}: {v!r}")
        for fl in self.flags:
            out.append(f"  flag: {fl}")
        return out


def compute_norm_report(
    H: HypergroupTable,
    u,
    ct: CharacterTable | None = None,
    groups: tuple[FiniteGroup, ...] | None = None,
    with_mcb: bool = False,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> NormReport:
    if H.truncated:
        # The A enclosure also encloses |u|_{B_lambda}: the upper bound
        # because B_lambda <= A, the lower one because its dual pairings
        # bound B_lambda directly.
        a = a_norm_interval(H, u)
        return NormReport(
            H.name,
            False,
            a,
            a,
            ma_norm_interval(H, u),
            flags=("truncated section: certified intervals, no point values",),
        )
    if ct is None:
        ct = characters(H, seed=seed)
    a, wit = norm_A(H, ct, u)
    b = norm_Blambda(H, ct, u)
    ma = norm_MA(H, ct, u)
    scale = max(1.0, a)
    if not (a >= b - 1e-8 * scale and b >= ma - 1e-8 * scale):
        raise ArithmeticError(
            f"{H.name}: norm ordering violated (A={a}, B_lam={b}, MA={ma})"
        )
    mcb = None
    per = {}
    if with_mcb:
        mcb, per = norm_Mcb_approx(H, ct, u, groups=groups, seed=seed)
    return NormReport(
        H.name,
        True,
        a,
        b,
        ma,
        norm_B=b,
        norm_Mcb=mcb,
        mcb_per_group=per,
        witness=wit,
        flags=("finite table: B = B_lambda by the C*(H)=C*_lam(H) convention",),
    )
