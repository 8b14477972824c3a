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

from dataclasses import dataclass

import numpy as np

from .builders import group_hypergroup, product
from .core import DEFAULT_SEED, HypergroupTable, convolve
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

    xi: np.ndarray
    eta: np.ndarray
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


def l2_norm(H: HypergroupTable, f: np.ndarray) -> float:
    """|f|_{l2(lam)} = (sum_x lam(x) |f(x)|^2)^{1/2}."""
    return float(np.sqrt(np.sum(H.lam * np.abs(f) ** 2)))


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
    # u = xi ._lam eta~, with eta~(x) = conj(eta(x~))
    perr = float(np.max(np.abs(convolve(H, xi, eta[H.view.inv].conj()) - ud)))
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
    f = inverse_fourier(H, ct, _phase(fourier(H, ct, ud))).conj()
    sup = float(np.max(np.abs(fourier(H, ct, f))))
    if sup > 1.0 + 1e-8:
        raise ArithmeticError(f"{H.name}: dual witness leaves the C*_lam ball")
    lam = H.lam
    return abs(complex(np.sum(lam * ud * f)))


def multiplication_matrix(H: HypergroupTable, ct: CharacterTable, u) -> np.ndarray:
    """m[j, i] with u . chi_i = sum_j m[j, i] chi_j (character-basis expansion)."""
    if ct.size != H.size:
        raise SingularCharacterBasis(
            f"{H.name}: {ct.size} characters for {H.size} elements"
        )
    weighted = H.lam * _as_dense(H, u) * ct.chars
    return ct.plancherel[:, None] * (ct.chars.conj() @ weighted.T)


def norm_MA(H: HypergroupTable, ct: CharacterTable, u) -> float:
    """Multiplier norm: max column l1-sum of the multiplication matrix."""
    m = multiplication_matrix(H, ct, u)
    return float(np.max(np.sum(np.abs(m), axis=0)))


def diagonal_norms(H: HypergroupTable, ct: CharacterTable, d) -> tuple[float, float, float]:
    """|u|_A, |u|_{B_lambda} and |u|_{MA} on H x H of u(x, x) = d(x), 0 off the diagonal.

    The characters of H x H are chi_i (x) chi_j with Plancherel weights
    w_i w_j (Bloom and Heyer 1995, 1.5), and (x, y) has Haar weight
    lam(x) lam(y), so with a = lam^2 d the transform of u is the n x n
    matrix F = conj(X) diag(a) conj(X)^T of the character rows X of H, and
    H x H is never built:

    * |u|_A = sum_ij w_i w_j |F_ij|;
    * |u|_{B_lambda} is the pairing of :func:`norm_Blambda` with its dual
      witness f = conj(X^T (w P w) X), P the phase of F, after the same
      check that f^ lies in the unit ball; only the diagonal of f pairs
      with u;
    * |u|_{MA} is the largest column l1-sum of the multiplication matrix
      m[(k, l), (i, j)] = w_k w_l sum_x a(x) conj(chi_k chi_l)(x) (chi_i chi_j)(x).
      It is symmetric in i, j and in k, l, so its columns are taken for
      i <= j and its rows for k <= l, those with k < l counted twice.
    """
    if ct.size != H.size:
        raise SingularCharacterBasis(
            f"{H.name}: {ct.size} characters for {H.size} elements"
        )
    X, w, lam = ct.chars, ct.plancherel, H.lam
    a = lam * lam * _as_dense(H, d)
    F = (X.conj() * a) @ X.conj().T
    norm_a = float(w @ np.abs(F) @ w)
    f = (X.T @ (w[:, None] * _phase(F) * w) @ X).conj()
    sup = float(np.max(np.abs(X.conj() @ (lam[:, None] * f * lam) @ X.conj().T)))
    if sup > 1.0 + 1e-8:
        raise ArithmeticError(f"{H.name} x {H.name}: dual witness leaves the C*_lam ball")
    norm_b = abs(complex(np.sum(a * np.diagonal(f))))
    i, j = np.triu_indices(H.size)
    Y = X[i] * X[j]
    row_weights = np.where(i < j, 2.0, 1.0) * w[i] * w[j]
    norm_ma = float(np.max(row_weights @ np.abs(Y.conj() @ (a * Y).T)))
    return norm_a, norm_b, norm_ma


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
    lam = H.lam
    wc = np.einsum("x,xg,ix->ig", lam, w, ct.chars.conj())
    return float(
        sum(ct.plancherel[i] * group_a_norm(G, wc[i]) for i in range(ct.size))
    )


# Random rank-one coefficient functions of G that product_ma_norm tries
# besides the point mass.
MCB_SAMPLES = 3


def product_ma_norm(
    H: HypergroupTable,
    ct: CharacterTable,
    G: FiniteGroup,
    u,
    seed: int = DEFAULT_SEED,
) -> float:
    """|u x 1_G|_{MA(H x G)} via extreme inputs chi (x) coefficient functions.

    The extreme points of the A(H x G) unit ball are single-character blocks
    carrying rank-one coefficient functions of G; the sup over the point-mass
    coefficient is attained, the MCB_SAMPLES random ones double-check that
    multiplication by u x 1 does not mix the G-side.
    """
    ud = _as_dense(H, u)
    rng = np.random.default_rng(seed)
    n = G.order
    phis = [np.eye(n)[G.identity].astype(complex)]
    for _ in range(MCB_SAMPLES):
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
    products: dict | None = None,
) -> tuple[float, dict[str, float]]:
    """sup_G |u x 1_G|_{MA(H x G)} over the supplied finite groups.

    For commutative H this must reproduce norm_MA(u); the operation exists
    to verify that equality, not to improve on it.  Abelian groups are also
    routed through the plain commutative path on the product table as a
    cross-check.  ``products`` holds, by group, the product table H x G and
    its characters; it is filled as they are built, so that a caller who
    passes one dict for several functions on H builds each once.
    """
    if groups is None:
        groups = default_mcb_groups()
    if products is None:
        products = {}
    per_group = {}
    for G in groups:
        val = product_ma_norm(H, ct, G, u, seed=seed)
        if G.abelian:
            if G not in products:
                K = product(H, group_hypergroup(G))
                products[G] = (K, characters(K, seed=seed))
            K, ctk = products[G]
            w = np.repeat(_as_dense(H, u), G.order)
            direct = norm_MA(K, ctk, w)
            if abs(direct - val) > 1e-8 * max(1.0, val):
                raise ArithmeticError(
                    f"{H.name} x {G.name}: block path {val} != commutative path {direct}"
                )
        per_group[G.name] = val
    return max(per_group.values()), per_group


# -- certified intervals on truncated tables --------------------------------


def _a_bounds(H: HypergroupTable, U: np.ndarray) -> tuple[list, list]:
    """The bounds of :func:`a_norm_interval` of each row of the complex array ``U``.

    All rows are taken in one array pass.  Upper: ``|u|_{l2(lam)}``.  Lower:
    the largest dual pairing ``|sum lam u f| / |f|_{l1(lam)}`` over the
    candidates f, the conjugate phase of u on its support and delta_x at
    the first 8 points of the support; a delta's pairing is
    ``|lam_x u_x| / lam_x`` in closed form.  The l2 norm and the phase
    pairing sum each row as ``np.sum`` does a single function: along the
    last axis of a C-ordered array, each row pairwise, bit for bit.
    """
    lam = H.lam
    A = np.abs(U)
    upper = np.sqrt(np.sum(lam * A**2, axis=1)).tolist()
    live = A > 0
    phase = np.conj(_phase(U)) * live
    size = np.abs(phase)
    LU = lam * U
    pairs, weights = LU * phase, lam * size
    # a row with a value that is not finite pairs every delta to NaN
    delta = np.divide(np.hypot(LU.real, LU.imag), lam, out=np.zeros(A.shape),
                      where=live & (np.cumsum(live, axis=1) <= 8) & (lam > 0)
                      & np.isfinite(LU).all(axis=1, keepdims=True))
    lower = np.fmax.reduce(delta, axis=1, initial=0.0).tolist()
    denoms, sums = np.sum(weights, axis=1).tolist(), np.sum(pairs, axis=1).tolist()
    for i in np.flatnonzero((size > 0).any(axis=1)).tolist():
        if denoms[i] > 0:
            lower[i] = max(lower[i], abs(sums[i]) / denoms[i])
    return lower, upper


def a_norm_interval(H: HypergroupTable, u) -> Interval:
    """Certified [lower, upper] for |u|_{A} on a truncated table.

    Upper bound: the factorization (u, delta_e) gives |u|_2 |delta_e|_2.
    Lower bound: dual pairings |sum lam u f| / |f|_{l1(lam)}, the operator
    norm of lam(f) being bounded by the L1 contraction of the convolution.
    """
    (lower,), (upper,) = _a_bounds(H, _as_dense(H, u)[None])
    return Interval(
        lower,
        upper,
        "upper: l2 factorization against delta_e; "
        "lower: dual pairing with |lam(f)| <= |f|_{l1(lam)}",
    )


def ma_norm_intervals(H: HypergroupTable, U, more=()) -> tuple[list, list]:
    """:func:`ma_norm_interval` of each function in ``U``, and the A-norm upper bounds of ``more``.

    Returns the list of intervals and the list of the upper bounds of
    :func:`a_norm_interval` of the functions in ``more``.  Every A-norm
    bound they need is taken in one pass of :func:`_a_bounds`, bit for bit
    as one function at a time.
    """
    U = np.array([_as_dense(H, u) for u in U])
    # the test functions: delta_e and delta at the generator
    V = np.eye(H.size, dtype=complex)[[H.identity, H.generator]]
    k, m = len(U), len(V)
    # the rows: each u, each u v, each v, then ``more``
    lower, upper = _a_bounds(H, np.concatenate(
        (U, (U[:, None] * V).reshape(-1, H.size), V, np.reshape(more, (-1, H.size)))))
    den = upper[k + k * m:k + k * m + m]
    out = []
    for i, u in enumerate(U):
        best = 0.0
        for num, d in zip(lower[k + i * m:k + (i + 1) * m], den):
            if d > 0:
                best = max(best, num / d)
        out.append(Interval(
            best,
            min(upper[i], float(np.sum(np.abs(u) * np.sqrt(H.lam)))),
            "upper: min(l2, sum |u| sqrt(lam)) bound on B_lambda; "
            "lower: |uv|_A / |v|_A on test functions",
        ))
    return out, upper[k + k * m + m:]


def ma_norm_interval(H: HypergroupTable, u) -> Interval:
    """Certified enclosure for the multiplier norm on a truncated table.

    Upper bound: |u|_{MA} <= |u|_{B_lambda} <= min(l2 bound,
    sum_x |u(x)| sqrt(lam(x))).  Lower bound: ratios
    |u v|_{A,lower} / |v|_{A,upper} over the test functions v = delta_e
    and delta at the generator.
    """
    return ma_norm_intervals(H, [u])[0][0]


# -- report assembly ---------------------------------------------------------


@dataclass
class NormReport:
    """All norms of one function, with the factorization witness of its A norm.

    On finite (P2) tables the A, B_lambda and MA norms agree; the invariant
    |u|_A >= |u|_{B_lambda} >= |u|_{MA} is checked up to tolerance.
    """

    table: str
    finite: bool
    norm_A: float | Interval
    norm_Blambda: float | Interval
    norm_MA: float | Interval
    norm_Mcb: float | None = None
    witness: FactorizationWitness | None = None

    def passed(self, tol: float) -> bool:
        """Whether the norms agree: |A - B_lambda|, |B_lambda - MA| and, if
        computed, |Mcb - MA| each within ``tol * max(1, A)``.  A truncated
        report, whose norms are certified enclosures, passes."""
        if not self.finite:
            return True
        a, b, ma = self.norm_A, self.norm_Blambda, self.norm_MA
        gaps = [a - b, b - ma] + ([] if self.norm_Mcb is None else [self.norm_Mcb - ma])
        return all(abs(g) <= tol * max(1.0, a) for g in gaps)


def compute_norm_report(
    H: HypergroupTable,
    u,
    ct: CharacterTable | None = None,
    groups: tuple[FiniteGroup, ...] | None = None,
    with_mcb: bool = False,
    seed: int = DEFAULT_SEED,
    products: dict | None = None,
) -> NormReport:
    """The norms of ``u`` on H; ``ct`` and ``products`` (see
    :func:`norm_Mcb_approx`) carry what a caller computes once for many
    functions."""
    if H.truncated:
        # The A enclosure also encloses |u|_{B_lambda}: the upper bound
        # because B_lambda <= A, the lower one because its dual pairings
        # bound B_lambda directly.
        a = a_norm_interval(H, u)
        return NormReport(H.name, False, a, a, ma_norm_interval(H, u))
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
    if with_mcb:
        mcb, _ = norm_Mcb_approx(H, ct, u, groups=groups, seed=seed, products=products)
    return NormReport(H.name, True, a, b, ma, norm_Mcb=mcb, witness=wit)
