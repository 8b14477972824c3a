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
from fractions import Fraction

import numpy as np

from .builders import check_product_size
from .core import DEFAULT_SEED, DEFAULT_TOL, HypergroupTable, convolve
from .errors import P2Failure, TruncationOverflow, UnboundedValueSet, ZeroValue
from .norms import (
    Interval,
    diagonal_norms,
    l2_norm,
    ma_norm_intervals,
    norm_A,
    norm_MA,
)
from .spectral import (
    CharacterTable,
    characters,
    p2_status,
    section_operator,
    voit_deform,
)


def pair_index(H: HypergroupTable, x: int, y: int) -> int:
    """Index of (x, y) in the row-major product table H x H."""
    return x * H.size + y


def _reciprocal(v):
    """1/v, exact for an int or a Fraction."""
    return Fraction(1) / v if isinstance(v, (int, Fraction)) else 1 / v


def diagonal_psi(H: HypergroupTable) -> tuple:
    """The coefficient function psi(x,y) = delta_{x,y}/lam(x) on H x H.

    Returned as its n diagonal values psi(x,x), exact on exact tables.
    """
    return tuple(_reciprocal(v) for v in H.haar)


def on_diagonal(H: HypergroupTable, values) -> np.ndarray:
    """The function on H x H with ``values`` on the diagonal and 0 elsewhere."""
    out = np.zeros(H.size * H.size, dtype=complex)
    out[:: H.size + 1] = np.asarray(values, dtype=complex)
    return out


def restrict_to_diagonal(H: HypergroupTable, rho) -> tuple:
    """m(rho) = sum_x rho(x,x) x: the extension of multiplication to MA.

    ``rho`` holds the n^2 values of a function on H x H, indexed by
    :func:`pair_index`; its n diagonal values are returned as given.
    """
    if len(rho) != H.size * H.size:
        raise ValueError("function length does not match the table H x H")
    return tuple(rho[:: H.size + 1])


@dataclass
class MultiplierInverse:
    values: tuple
    ma_norm: float
    value_set_size: int


def invert_multiplier(
    H: HypergroupTable,
    ct: CharacterTable | None,
    phi,
    seed: int = DEFAULT_SEED,
) -> MultiplierInverse:
    """Pointwise reciprocal of a multiplier with finite value set.

    ``phi`` holds the multiplier's n values; their reciprocals are exact
    where the values are.  Raises :class:`ZeroValue` on a zero value.  On
    truncated tables, warns with :class:`UnboundedValueSet` when the value
    set keeps growing with the radius (the bounded-Haar hypothesis fails);
    the reciprocal is still returned but no multiplier norm is claimed.
    """
    for x, v in enumerate(phi):
        if v == 0:
            raise ZeroValue(f"{H.name}: phi({x}) = 0 cannot be inverted")
    inv = tuple(_reciprocal(v) for v in phi)
    worst = max(abs(complex(v * w) - 1.0) for v, w in zip(phi, inv))
    if worst > 1e-12:
        raise ArithmeticError(f"{H.name}: phi * phi^-1 != 1 by {worst:.2e}")

    def value_count(upto: int) -> int:
        return len({_round_value(phi[x]) for x in range(upto)})

    n_values = value_count(H.size)
    if H.truncated:
        if n_values > value_count(max(2, H.size // 2)):
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
    """1_Delta with the table H and the character table of H it was built from.

    ``phi`` and ``one_delta`` are functions supported on the diagonal of
    H x H, held as their n diagonal values (exact on exact tables);
    ``a_norm`` and ``ma_norm`` are 1_Delta's A and MA norms on H x H.
    """

    table: HypergroupTable
    characters: CharacterTable
    phi: tuple
    one_delta: tuple
    a_norm: float
    ma_norm: float
    psi_norm: float
    phi_inverse_ma_norm: float
    pointwise_error: float
    submultiplicative_slack: float


def indicator_diagonal(H: HypergroupTable, seed: int = DEFAULT_SEED) -> DiagonalIndicator:
    """1_Delta = (phi^{-1} (x) 1) psi with its MA(H x H) norm.

    Requires a finite table (automatic (P2)) with a finite Haar value set;
    checks pointwise that the construction reproduces the diagonal
    indicator exactly.  Only H is diagonalized, and H x H is never built.

    psi, phi, phi^{-1} and 1_Delta are supported on the diagonal and are
    computed as their n diagonal values; their norms on H x H come from the
    characters of H (:func:`~hypharm.norms.diagonal_norms`).  A table whose
    H x H would exceed the product size cap raises ValueError, as
    :func:`~hypharm.builders.product` does.
    """
    if H.truncated:
        raise TruncationOverflow("indicator_diagonal needs a finite table")
    check_product_size(H.size, H.size)
    ct = characters(H, seed=seed)
    psi = diagonal_psi(H)
    psi_norm = diagonal_norms(H, ct, psi)[1]
    phi = psi  # m(psi): psi's values on the diagonal
    inv = invert_multiplier(H, ct, phi, seed=seed)
    # (phi^{-1} (x) 1) psi vanishes off the diagonal with psi
    one_delta = tuple(a * b for a, b in zip(inv.values, psi))
    err = max(abs(complex(v) - 1) for v in one_delta)
    if err > 1e-12:
        raise ArithmeticError(f"{H.name}: 1_Delta is not 1 on the diagonal, by {err:.2e}")
    a, _, ma = diagonal_norms(H, ct, one_delta)
    slack = inv.ma_norm * psi_norm - ma
    return DiagonalIndicator(
        H, ct, phi, one_delta, a, ma, psi_norm, inv.ma_norm, float(err), float(slack)
    )


@dataclass
class ApproximateDiagonal:
    bound: float
    commutator_norm: float
    identity_residuals: tuple[float, ...]


def approximate_diagonal(
    diag: DiagonalIndicator, seed: int = DEFAULT_SEED
) -> ApproximateDiagonal:
    """m = (e (x) e) 1_Delta and |m|_{A(H x H)}, from a computed indicator.

    On finite tables the constant e = 1 alone is a bounded approximate
    identity, giving m = 1_Delta.  The module commutator u.m - m.u vanishes
    identically (the proof's algebraic cancellation) and is asserted to be
    exactly zero; |u m(m) - u| is reported per test function.
    """
    H = diag.table
    rng = np.random.default_rng(seed)
    # the point masses and one random function, one per row
    tests = np.vstack([np.eye(H.size),
                       rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)])
    # u.m - m.u on H x H, (u.m)(x, y) = u(x) m(x, y) and (m.u)(x, y) = m(x, y) u(y)
    M = on_diagonal(H, diag.one_delta).reshape(H.size, H.size)
    commutator = float(np.abs(tests[:, :, None] * M - M * tests[:, None, :]).max())
    if commutator != 0.0:
        raise ArithmeticError(
            f"{H.name}: approximate-diagonal commutator is {commutator:.2e}, not 0"
        )
    # u m(m) - u, with m(m) the diagonal values of m
    resid = tests * np.diagonal(M) - tests
    residuals = tuple(norm_A(H, diag.characters, r, with_witness=False)[0] for r in resid)
    return ApproximateDiagonal(diag.a_norm, commutator, residuals)


# -- weak amenability --------------------------------------------------------

# How far above 1 a weak-amenability constant may come out and still certify
# the constant 1; and how far |1|_MA, or an interval lower bound on a
# witness's multiplier norm, may stray from the bound the witness certifies.
WEAK_AMENABILITY_SLACK = 1e-6


@dataclass
class WitnessEntry:
    radius: int
    e_alpha: np.ndarray
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

    @property
    def passed(self) -> bool:
        """Constant 1 up to WEAK_AMENABILITY_SLACK, and residuals that decrease."""
        return (self.constant_bound <= 1 + WEAK_AMENABILITY_SLACK
                and self.residuals_decreasing)


def _perron_vector(H0: HypergroupTable, radius: int) -> np.ndarray:
    """Top eigenvector of the ball compression, l2(lam')-normalized, >= 0.

    Returned as a function on all of H0, 0 outside the ball.
    """
    W = section_operator(H0, radius)
    vals, vecs = np.linalg.eigh(W)
    w = vecs[:, -1]
    if w.sum() < 0:
        w = -w
    w = np.clip(w, 0.0, None)
    w /= np.linalg.norm(w)
    xi = np.zeros(H0.size)
    xi[: radius + 1] = w / np.sqrt(H0.lam[: radius + 1])
    return xi


def weak_amenability_witness(
    H: HypergroupTable,
    radii: tuple[int, ...] | None = None,
    seed: int = DEFAULT_SEED,
    ct: CharacterTable | None = None,
) -> WeakAmenabilityWitness:
    """A net in A(H) with multiplier norm <= 1 acting as an approximate identity.

    Finite tables: the constant 1 (the identity of A(H), norm exactly 1).
    Truncated families: e_a = xi_a o_lam' xi_a~ on the Voit deformation H0,
    pulled back to H, with xi_a the Perron vectors of growing ball sections.
    The multiplier bound comes from |e_a|_{MA(H)} = |e_a|_{MA(H0)} <=
    |e_a|_{A(H0)} <= |xi_a|_2^2 = 1, cross-checked against interval
    computations on both sides.  Raises ArithmeticError when the
    deformation's axiom violation, Haar defect or dual-map residual exceeds
    its bound (:meth:`~hypharm.spectral.DeformedPair.defect`): the bound
    |xi_a|_2^2 rests on lam' being a Haar measure of H0.  ``ct``, the
    character table of a finite H, is computed when not given.
    """
    if not H.truncated:
        if ct is None:
            ct = characters(H, seed=seed)
        ones = np.ones(H.size)
        # multiplication by the constant one is the identity operator on
        # A(H), so its multiplier norm is exactly 1; the numeric column-sum
        # computation only cross-checks that within tolerance
        numeric = norm_MA(H, ct, ones)
        if abs(numeric - 1.0) > WEAK_AMENABILITY_SLACK:
            raise ArithmeticError(
                f"{H.name}: |1|_MA computed as {numeric}, should be 1"
            )
        entry = WitnessEntry(0, ones, 1.0, None, None, {"all": 0.0})
        return WeakAmenabilityWitness(H.name, 1.0, (entry,), True)
    radii = tuple(sorted((5, 10, 20) if radii is None else radii))
    if not radii or radii[0] < 0 or len(set(radii)) < len(radii):
        raise ValueError(f"radii must be a non-empty list of distinct radii >= 0, got {radii}")
    if H.radius is None or H.radius < 3 * max(radii):
        raise TruncationOverflow(
            f"{H.name}: need section radius >= {3 * max(radii)} to convolve "
            f"(P2) vectors of radius {max(radii)}"
        )
    pair = voit_deform(H, seed=seed)
    if (defect := pair.defect()) is not None:
        raise ArithmeticError(defect)
    H0 = pair.deformed
    tests = {f"delta{x}": np.eye(H.size)[x] for x in range(3)}
    xis = [_perron_vector(H0, r) for r in radii]
    nets = [convolve(H0, xi, xi[H0.view.inv]) for xi in xis]
    # the bounds of every radius on each table in one array pass
    ivs_H, upper = ma_norm_intervals(H, nets, more=[u * e - u for e in nets
                                                    for u in tests.values()])
    ivs_H0, _ = ma_norm_intervals(H0, nets)
    m = len(tests)
    entries = []
    for i, r in enumerate(radii):
        bound = l2_norm(H0, xis[i]) ** 2
        limit = bound + WEAK_AMENABILITY_SLACK
        if ivs_H[i].lower > limit or ivs_H0[i].lower > limit:
            raise ArithmeticError(
                f"{H.name}: interval lower bound exceeds the witness bound"
            )
        residuals = dict(zip(tests, upper[i * m:(i + 1) * m]))
        entries.append(WitnessEntry(r, nets[i], bound, ivs_H[i], ivs_H0[i], residuals))
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
    )


def bai_from_p2(
    H: HypergroupTable,
    F: tuple[int, ...],
    eps: float,
) -> np.ndarray:
    """Positive definite u = xi ._lam xi~ with |u|_A <= 1 and u ~ 1 on F.

    Raises :class:`P2Failure` when the table is certified to fail (P2).
    """
    if not H.truncated:
        return np.ones(H.size)
    if p2_status(H)[0] == "fails":
        raise P2Failure(f"{H.name}: (P2) fails, no bounded approximate identity")
    max_r = (H.size - 1) // 3
    if max(F) >= H.size:
        raise IndexError("test set leaves the section")
    r = max(4, max(F) + 1)
    while r <= max_r:
        xi = _perron_vector(H, r)
        u = convolve(H, xi, xi[H.view.inv])
        if max(abs(u[x] - 1.0) for x in F) < eps:
            if l2_norm(H, xi) > 1.0 + 1e-12:
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

    @property
    def passed(self) -> bool:
        """The approximate diagonal commutes and the weak-amenability
        constant is 1 up to WEAK_AMENABILITY_SLACK."""
        return (
            self.commutator_norm == 0.0
            and self.weak_amenability_bound <= 1 + WEAK_AMENABILITY_SLACK
        )


def amenability_report(H: HypergroupTable, seed: int = DEFAULT_SEED,
                       tol: float = DEFAULT_TOL) -> AmenabilityReport:
    """Run the full finite-table amenability pipeline and collect the numbers.

    Raises ArithmeticError when |1_Delta| exceeds |phi^-1| |psi| by more
    than ``tol``.
    """
    status = p2_status(H)[0]
    diag = indicator_diagonal(H, seed=seed)
    approx = approximate_diagonal(diag, seed=seed)
    wa = weak_amenability_witness(H, seed=seed, ct=diag.characters)
    if diag.submultiplicative_slack < -tol:
        raise ArithmeticError(
            f"{H.name}: |1_Delta| exceeds |phi^-1| |psi| by "
            f"{-diag.submultiplicative_slack:.2e}"
        )
    return AmenabilityReport(
        H.name,
        status,
        diag.psi_norm,
        diag.phi,
        diag.phi_inverse_ma_norm,
        diag.ma_norm,
        approx.bound,
        approx.commutator_norm,
        wa.constant_bound,
        diag.submultiplicative_slack,
    )
