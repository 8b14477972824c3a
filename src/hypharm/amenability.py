"""Amenability machinery: diagonal multipliers, approximate diagonals,
weak-amenability nets and (P2) approximate identities.

The finite-table pipeline follows the explicit construction: the diagonal
coefficient function ``psi(x, x) = 1/lam(x)`` lies in B_lambda(H x H); its
diagonal restriction ``phi = m(psi)``, with ``m(rho) = sum_x rho(x,x) x``,
has a finite value set, so the pointwise reciprocal is again a multiplier
and ``1_Delta = (phi^{-1} (x) 1) psi`` is the diagonal indicator in
MA(H x H).  Approximate diagonals ``m_a = (e_a (x) e_a) 1_Delta`` then
commute with the module actions exactly.

Weak amenability with constant 1 is witnessed through the Voit deformation:
contractive (P2) vectors of H0 on growing balls give positive definite
``e_a = xi ._lam' xi~`` whose multiplier norm on H equals their norm on H0
and is bounded by |xi|_2^2 = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .builders import product
from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    HFunction,
    HypergroupTable,
    convolve_functions,
    involute,
    l2_norm,
)
from .errors import P2Failure, TruncationOverflow, UnboundedValueSet, ZeroValue
from .norms import (
    Interval,
    a_norm_interval,
    ma_norm_interval,
    norm_A,
    norm_Blambda,
    norm_MA,
)
from .spectral import (
    CharacterTable,
    characters,
    check_p2,
    chi0,
    section_operator,
    voit_deform,
)


def pair_index(H: HypergroupTable, x: int, y: int) -> int:
    """Index of (x, y) in the row-major product table H x H."""
    return x * H.size + y


def diagonal_psi(
    H: HypergroupTable, seed: int = DEFAULT_SEED
) -> tuple[HypergroupTable, HFunction, float]:
    """The coefficient function psi(x,y) = delta_{x,y}/lam(x) on H x H.

    Returns the product table, psi and its B_lambda(H x H) norm.
    """
    K = product(H, H)
    psi = HFunction(
        {pair_index(H, x, x): 1 / H.haar[x] for x in range(H.size)}
    )
    ctk = characters(K, seed=seed)
    return K, psi, norm_Blambda(K, ctk, psi)


def restrict_to_diagonal(H: HypergroupTable, rho: HFunction) -> HFunction:
    """m(rho) = sum_x rho(x,x) x: the extension of multiplication to MA."""
    n = H.size
    return HFunction({x: rho[pair_index(H, x, x)] for x in range(n)})


@dataclass
class MultiplierInverse:
    values: HFunction
    ma_norm: float
    value_set_size: int


def invert_multiplier(
    H: HypergroupTable,
    ct: CharacterTable | None,
    phi: HFunction,
    seed: int = DEFAULT_SEED,
) -> MultiplierInverse:
    """Pointwise reciprocal of a multiplier with finite value set.

    Raises :class:`ZeroValue` on a zero value.  On truncated tables, warns
    with :class:`UnboundedValueSet` when the value set keeps growing with the
    radius (the bounded-Haar hypothesis fails); the reciprocal is still
    returned but no multiplier norm is claimed.
    """
    vals = {}
    for x in range(H.size):
        v = phi[x]
        if v == 0:
            raise ZeroValue(f"{H.name}: phi({x}) = 0 cannot be inverted")
        vals[x] = 1 / v if not isinstance(v, float) else 1.0 / v
    inv = HFunction(vals)
    worst = max(abs(complex(phi[x] * inv[x]) - 1.0) for x in range(H.size))
    if worst > 1e-12:
        raise ArithmeticError(f"{H.name}: phi * phi^-1 != 1 by {worst:.2e}")

    def value_count(upto: int) -> int:
        return len({_round_value(phi[x]) for x in range(upto)})

    n_values = value_count(H.size)
    if H.truncated:
        if value_count(H.size) > value_count(max(2, H.size // 2)):
            warnings.warn(
                f"{H.name}: multiplier value set grows with the radius "
                f"({n_values} values in the section)",
                UnboundedValueSet,
            )
        return MultiplierInverse(inv, float("nan"), n_values)
    if ct is None:
        ct = characters(H, seed=seed)
    return MultiplierInverse(inv, norm_MA(H, ct, inv), n_values)


def _round_value(v) -> complex:
    return complex(round(complex(v).real, 12), round(complex(v).imag, 12))


@dataclass
class DiagonalIndicator:
    product_table: HypergroupTable
    one_delta: HFunction
    ma_norm: float
    psi_norm: float
    phi_inverse_ma_norm: float
    pointwise_error: float
    submultiplicative_slack: float


def indicator_diagonal(H: HypergroupTable, seed: int = DEFAULT_SEED) -> DiagonalIndicator:
    """1_Delta = (phi^{-1} (x) 1) psi with its MA(H x H) norm.

    Requires a finite table (automatic (P2)) with a finite Haar value set;
    checks pointwise that the construction reproduces the diagonal
    indicator exactly.
    """
    if H.truncated:
        raise TruncationOverflow("indicator_diagonal needs a finite table")
    K, psi, psi_norm = diagonal_psi(H, seed=seed)
    phi = restrict_to_diagonal(H, psi)
    ct = characters(H, seed=seed)
    inv = invert_multiplier(H, ct, phi, seed=seed)
    one_delta = HFunction(
        {
            pair_index(H, x, y): inv.values[x] * psi[pair_index(H, x, y)]
            for x in range(H.size)
            for y in range(H.size)
        }
    )
    target = HFunction({pair_index(H, x, x): 1 for x in range(H.size)})
    err = one_delta.max_abs_diff(target)
    if err > 1e-12:
        raise ArithmeticError(f"{H.name}: 1_Delta is off the diagonal by {err:.2e}")
    ctk = characters(K, seed=seed)
    ma = norm_MA(K, ctk, one_delta)
    slack = inv.ma_norm * psi_norm - ma
    return DiagonalIndicator(K, one_delta, ma, psi_norm, inv.ma_norm, float(err), float(slack))


@dataclass
class ApproximateDiagonal:
    bound: float
    commutator_norm: float
    identity_residuals: tuple[float, ...]


def approximate_diagonal(
    H: HypergroupTable,
    e_net: list[HFunction] | None = None,
    seed: int = DEFAULT_SEED,
) -> ApproximateDiagonal:
    """m_a = (e_a (x) e_a) 1_Delta and sup_a |m_a|_{A(H x H)}.

    On finite tables the constant 1 alone is a bounded approximate identity,
    giving m = 1_Delta.  The module commutator u.m_a - m_a.u vanishes
    identically (the proof's algebraic cancellation) and is asserted to be
    exactly zero; |u m(m_a) - u| is reported per test function.
    """
    diag = indicator_diagonal(H, seed=seed)
    K = diag.product_table
    ctk = characters(K, seed=seed)
    ct = characters(H, seed=seed)
    if e_net is None:
        e_net = [HFunction({x: 1 for x in range(H.size)})]
    rng = np.random.default_rng(seed)
    tests = [HFunction.delta(x) for x in range(H.size)]
    tests.append(HFunction({x: complex(a, b) for x, (a, b) in enumerate(
        zip(rng.standard_normal(H.size), rng.standard_normal(H.size)))}))

    bound = 0.0
    commutator = 0.0
    residuals = []
    for e in e_net:
        m = HFunction(
            {
                pair_index(H, x, x): e[x] * e[x] * diag.one_delta[pair_index(H, x, x)]
                for x in range(H.size)
            }
        )
        bound = max(bound, norm_A(K, ctk, m, with_witness=False)[0])
        msq = restrict_to_diagonal(H, m)
        for u in tests:
            left = HFunction(
                {pair_index(H, x, y): u[x] * m[pair_index(H, x, y)]
                 for x in range(H.size) for y in range(H.size)}
            )
            right = HFunction(
                {pair_index(H, x, y): m[pair_index(H, x, y)] * u[y]
                 for x in range(H.size) for y in range(H.size)}
            )
            diff = left.max_abs_diff(right)
            if diff != 0.0:
                raise ArithmeticError(
                    f"{H.name}: approximate-diagonal commutator is {diff:.2e}, not 0"
                )
            commutator = max(commutator, diff)
            resid_fn = HFunction(
                {x: u[x] * msq[x] - u[x] for x in range(H.size)}
            )
            residuals.append(norm_A(H, ct, resid_fn, with_witness=False)[0])
    return ApproximateDiagonal(bound, commutator, tuple(residuals))


# -- weak amenability --------------------------------------------------------


@dataclass
class WitnessEntry:
    radius: int
    e_alpha: HFunction
    ma_bound: float
    ma_interval_H: Interval | None
    ma_interval_H0: Interval | None
    residuals: dict[str, float]


@dataclass
class WeakAmenabilityWitness:
    table: str
    constant_bound: float
    entries: tuple[WitnessEntry, ...]
    residuals_decreasing: bool
    notes: str = ""


def _perron_vector(H0: HypergroupTable, radius: int) -> np.ndarray:
    """Top eigenvector of the ball compression, l2(lam')-normalized, >= 0."""
    W = section_operator(H0, radius)
    vals, vecs = np.linalg.eigh(W)
    w = vecs[:, -1]
    if w.sum() < 0:
        w = -w
    w = np.clip(w, 0.0, None)
    w /= np.linalg.norm(w)
    return w / np.sqrt(H0.view.lam[: radius + 1])


def weak_amenability_witness(
    H: HypergroupTable,
    radii: tuple[int, ...] | None = None,
    tol: float = 1e-6,
    seed: int = DEFAULT_SEED,
) -> WeakAmenabilityWitness:
    """A net in A(H) with multiplier norm <= 1 acting as an approximate identity.

    Finite tables: the constant 1 (the identity of A(H), norm exactly 1).
    Truncated families: e_a = xi_a o_lam' xi_a~ on the Voit deformation H0,
    pulled back to H, with xi_a the Perron vectors of growing ball sections.
    The multiplier bound comes from |e_a|_{MA(H)} = |e_a|_{MA(H0)} <=
    |e_a|_{A(H0)} <= |xi_a|_2^2 = 1, cross-checked against interval
    computations on both sides.
    """
    if not H.truncated:
        ct = characters(H, seed=seed)
        ones = HFunction({x: 1 for x in range(H.size)})
        # multiplication by the constant one is the identity operator on
        # A(H), so its multiplier norm is exactly 1; the numeric column-sum
        # computation only cross-checks that within tolerance
        numeric = norm_MA(H, ct, ones)
        if abs(numeric - 1.0) > tol:
            raise ArithmeticError(
                f"{H.name}: |1|_MA computed as {numeric}, should be 1"
            )
        entry = WitnessEntry(0, ones, 1.0, None, None, {"all": 0.0})
        return WeakAmenabilityWitness(
            H.name, 1.0, (entry,), True, "finite table: e = 1 is the identity of A(H)"
        )
    if radii is None:
        radii = (5, 10, 20)
    radii = tuple(sorted(radii))
    if H.radius is None or H.radius < 3 * max(radii):
        raise TruncationOverflow(
            f"{H.name}: need section radius >= {3 * max(radii)} to convolve "
            f"(P2) vectors of radius {max(radii)}"
        )
    chi = chi0(H, seed=seed)
    pair = voit_deform(H, chi, seed=seed)
    H0 = pair.deformed
    tests = {"delta0": HFunction.delta(0), "delta1": HFunction.delta(1),
             "delta2": HFunction.delta(2)}
    entries = []
    for r in radii:
        xi = _perron_vector(H0, r)
        xi_fn = HFunction({i: float(v) for i, v in enumerate(xi) if v > 0})
        e_alpha = convolve_functions(H0, xi_fn, involute(H0, xi_fn))
        norm_sq = l2_norm(H0, xi_fn) ** 2
        iv_H = ma_norm_interval(H, e_alpha)
        iv_H0 = ma_norm_interval(H0, e_alpha)
        bound = norm_sq
        if iv_H.lower > bound + tol or iv_H0.lower > bound + tol:
            raise ArithmeticError(
                f"{H.name}: interval lower bound exceeds the witness bound"
            )
        residuals = {}
        for name, u in tests.items():
            resid = HFunction({x: u[x] * e_alpha[x] - u[x] for x in u.support})
            residuals[name] = a_norm_interval(H, resid).upper
        entries.append(WitnessEntry(r, e_alpha, bound, iv_H, iv_H0, residuals))
    decreasing = all(
        entries[i + 1].residuals[name] < entries[i].residuals[name] + 1e-15
        for name in tests
        for i in range(len(entries) - 1)
        if entries[i].residuals[name] > 1e-13
    )
    return WeakAmenabilityWitness(
        H.name,
        max(e.ma_bound for e in entries),
        tuple(entries),
        decreasing,
        "net from Perron (P2) vectors of the Voit deformation",
    )


def bai_from_p2(
    H: HypergroupTable,
    F: tuple[int, ...],
    eps: float,
    seed: int = DEFAULT_SEED,
) -> HFunction:
    """Positive definite u = xi ._lam xi~ with |u|_A <= 1 and u ~ 1 on F.

    Raises :class:`P2Failure` when the table is certified to fail (P2).
    """
    if not H.truncated:
        return HFunction({x: 1 for x in range(H.size)})
    p2 = check_p2(H, seed=seed)
    if p2.status == "fails":
        raise P2Failure(f"{H.name}: (P2) fails, no bounded approximate identity")
    max_r = (H.size - 1) // 3
    if max(F) >= H.size:
        raise IndexError("test set leaves the section")
    r = max(4, max(F) + 1)
    while r <= max_r:
        xi = _perron_vector(H, r)
        xi_fn = HFunction({i: float(v) for i, v in enumerate(xi) if v > 0})
        u = convolve_functions(H, xi_fn, involute(H, xi_fn))
        if max(abs(complex(u[x]) - 1.0) for x in F) < eps:
            if l2_norm(H, xi_fn) > 1.0 + 1e-12:
                raise ArithmeticError("Perron vector not normalized")
            return u
        r = min(2 * r, max_r) if r < max_r else max_r + 1
    raise TruncationOverflow(
        f"{H.name}: section too small to reach residual {eps} on {F}"
    )


# -- assembled report ---------------------------------------------------------


@dataclass
class AmenabilityReport:
    table: str
    p2_status: str
    psi_norm: float
    phi_values: tuple
    phi_inverse_ma_norm: float
    one_delta_ma_norm: float
    approx_diagonal_bound: float
    commutator_norm: float
    weak_amenability_bound: float
    submultiplicative_slack: float

    def lines(self) -> list[str]:
        return [
            f"amenability report for {self.table}",
            f"  (P2): {self.p2_status}",
            f"  |psi|_Blambda(HxH)    = {self.psi_norm!r}",
            f"  phi = 1/lam           = {tuple(repr(float(v)) for v in self.phi_values)}",
            f"  |phi^-1|_MA           = {self.phi_inverse_ma_norm!r}",
            f"  |1_Delta|_MA(HxH)     = {self.one_delta_ma_norm!r}",
            f"  approx diagonal bound = {self.approx_diagonal_bound!r}",
            f"  commutator norm       = {self.commutator_norm!r}",
            f"  weak amenability bound= {self.weak_amenability_bound!r}",
            f"  construction slack    = {self.submultiplicative_slack!r} (>= 0)",
        ]


def amenability_report(H: HypergroupTable, seed: int = DEFAULT_SEED) -> AmenabilityReport:
    """Run the full finite-table amenability pipeline and collect the numbers."""
    p2 = check_p2(H, seed=seed)
    diag = indicator_diagonal(H, seed=seed)
    approx = approximate_diagonal(H, seed=seed)
    wa = weak_amenability_witness(H, seed=seed)
    phi = restrict_to_diagonal(H, HFunction(
        {pair_index(H, x, x): 1 / H.haar[x] for x in range(H.size)}
    ))
    if diag.submultiplicative_slack < -DEFAULT_TOL:
        raise ArithmeticError(
            f"{H.name}: |1_Delta| exceeds |phi^-1| |psi| by "
            f"{-diag.submultiplicative_slack:.2e}"
        )
    return AmenabilityReport(
        H.name,
        p2.status,
        diag.psi_norm,
        tuple(phi[x] for x in range(H.size)),
        diag.phi_inverse_ma_norm,
        diag.ma_norm,
        approx.bound,
        approx.commutator_norm,
        wa.constant_bound,
        diag.submultiplicative_slack,
    )
