"""Characters, Plancherel weights, Fourier transform, (P2) and the Voit map.

Characters of a finite commutative table are the joint eigenvectors of the
commuting structure matrices ``(A_x)_{y,z} = c^z_{x,y}``: a multiplicative
function chi satisfies ``A_x chi = chi(x) chi``.  On l2(lam) the adjoint of
``A_x`` is ``A_x~``, so for real random a and b (fixed seed) the combination
``M = sum_x r_x A_x`` with ``r = (a + a~) + i (b - b~)`` is self-adjoint, and
``Lam^{1/2} M Lam^{-1/2}`` is a Hermitian matrix.  Its one eigendecomposition,
corrected to first order by a second such combination, gives the characters
as ``chi = Lam^{-1/2} u``, normalized to chi(e) = 1 and ordered descending by
the value at the designated generator.

For truncated N-indexed families the same matrices are compressed to growing
balls.  Top eigenvalues of the compressions give monotone lower bounds on
the spectrum of the generator; a weighted Schur test with geometric test
functions gives a certified upper bound, which decides (P2) and pins the
dominant positive character chi_0 used by the Voit deformation
``x o y = (chi_0 / chi_0(x.y)) x.y`` with Haar ``lam' = chi_0^2 lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    HFunction,
    HypergroupTable,
    NNTail,
    verify_axioms,
)
from .errors import DegenerateSpectrum, DominationFailure

_GAP_THRESHOLD = 1e-8
# Draws whose smallest eigenvalue gap is below this share of the scale get a
# first-order correction of their eigenvectors; above it the residual stays
# below about 1e-12.
_SPLIT_BELOW = 1e-3
_RETRY_BUDGET = 5
# Values gathered at once by the batched multiplicativity residual: 64 KB
# of complex128 per temporary, so that batching does not raise peak memory.
RESIDUAL_BATCH = 2**12


@dataclass
class CharacterTable:
    """All multiplicative functionals of a finite commutative table.

    Rows of ``chars`` are characters evaluated on the elements (column j =
    element j); ``plancherel[i] = 1 / sum_x lam(x) |chi_i(x)|^2``.  For
    finite tables every character lies in the support of the Plancherel
    measure.
    """

    table: str
    size: int
    chars: np.ndarray
    plancherel: np.ndarray
    generator: int
    trivial_index: int
    residual: float
    positive: tuple[bool, ...] = field(default_factory=tuple)

    def lines(self) -> list[str]:
        out = [f"character table of {self.table} ({self.size} characters)"]
        for i in range(self.size):
            vals = " ".join(_fmt_complex(v) for v in self.chars[i])
            out.append(f"  chi{i}  w={float(self.plancherel[i])!r}  [{vals}]")
        return out


def _fmt_complex(v: complex) -> str:
    if abs(v.imag) < 1e-14:
        return repr(float(v.real))
    return repr(complex(v))


def _multiplicativity_residual(H: HypergroupTable, chi: np.ndarray) -> float:
    """max over stored products of |chi(x) chi(y) - sum_z c^z_{x,y} chi(z)|.

    ``chi`` is one function or a 2-D array of them, one per row, taken in
    blocks of rows that gather at most RESIDUAL_BATCH values at once.
    """
    V = H.view
    chis = np.atleast_2d(chi)
    filled = V.starts[:-1] < V.starts[1:]
    cols = slice(None) if filled.all() else filled
    step = max(1, RESIDUAL_BATCH // max(1, len(V.z)))
    worst = 0.0
    for lo in range(0, len(chis), step):
        block = chis[lo:lo + step]
        d = block[:, V.px] * block[:, V.py]
        if filled.any():
            d[:, cols] -= np.add.reduceat(V.c * block[:, V.z], V.starts[:-1][filled], axis=1)
        worst = max(worst, float(np.abs(d).max(initial=0.0)))
    return worst


def characters(
    H: HypergroupTable, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> CharacterTable:
    """Compute all |H| characters of a finite commutative table.

    Raises :class:`DegenerateSpectrum` if the joint diagonalization cannot
    split the spectrum after the retry budget, which for an axiom-valid
    table would indicate a non-semisimple function algebra and is treated
    as an error rather than silently returning fewer characters.
    """
    if H.truncated:
        raise ValueError("characters() needs a finite table; use the (P2)/chi0 path")
    if not H.commutative:
        raise ValueError("characters() needs a commutative table")
    n = H.size
    e = H.identity
    V = H.view
    if not np.isfinite(V.c).all():
        raise ValueError(f"{H.name}: structure constants must be finite")
    lam = V.lam
    if not ((lam > 0) & (lam < np.inf)).all():
        raise DegenerateSpectrum(f"{H.name}: Haar weights must be positive and finite")
    cells = V.y * n + V.z
    root = np.sqrt(lam)
    rng = np.random.default_rng(seed)
    last_error = "no attempt"

    def combination() -> np.ndarray:
        # M = sum_x r_x A_x with (A_x)_{y,z} = c^z_{x,y}, self-adjoint on
        # l2(lam); returned as the Hermitian Lam^{1/2} M Lam^{-1/2}
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        a, b = a + a[V.inv], b - b[V.inv]
        M = np.bincount(cells, weights=a[V.x] * V.c, minlength=n * n).reshape(n, n)
        if b.any():
            M = M + 1j * np.bincount(cells, weights=b[V.x] * V.c,
                                     minlength=n * n).reshape(n, n)
        return root[:, None] * M / root

    for _ in range(_RETRY_BUDGET):
        vals, vecs = np.linalg.eigh(combination())
        gaps = np.diff(vals)
        scale = max(1.0, np.abs(vals).max())
        if n > 1 and gaps.min() < _GAP_THRESHOLD * scale:
            last_error = f"eigenvalue gap {gaps.min():.2e}"
            continue
        if n > 1 and gaps.min() < _SPLIT_BELOW * scale:
            # eigh mixes two eigenvectors by about eps |M| / gap, so a close
            # pair of eigenvalues costs accuracy.  A second combination M2
            # generically splits that pair widely: in the basis found, M2 is
            # diagonal up to B_ij = E_ij (d_i - d_j) for the mixing E, and one
            # first-order step takes E out of each pair whose gap is wider in
            # M2 than in M
            B = vecs.conj().T @ (combination() @ vecs)
            d = B.diagonal().real
            wider = np.abs(d - d[:, None]) > np.abs(vals - vals[:, None])
            vecs = vecs + vecs @ (np.where(wider, B, 0) / np.where(wider, d - d[:, None], 1))
        if np.abs(vecs[e]).min() < 1e-12:
            last_error = "eigenvector vanishes at identity"
            continue
        chars = (vecs / vecs[e]).T * (root[e] / root)
        ct = _character_table(H, chars.astype(complex, copy=False), tol, seed)
        if isinstance(ct, CharacterTable):
            return ct
        last_error = ct
    raise DegenerateSpectrum(f"{H.name}: joint diagonalization failed ({last_error})")


def product_characters(
    K: HypergroupTable,
    ct1: CharacterTable,
    ct2: CharacterTable,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> CharacterTable:
    """The characters of ``K = product(H1, H2)`` from those of H1 and H2.

    The characters of a product are the tensor products chi1 (x) chi2
    (Bloom and Heyer 1995, 1.5), on point ``(x, u) = x |H2| + u``: the rows
    of ``kron(ct1.chars, ct2.chars)``, with no diagonalization of K.  They
    are ordered, weighted and checked on K as :func:`characters` does its
    own (multiplicativity, hermitian symmetry, Parseval and orthogonality),
    so factor tables that do not belong to K raise :class:`DegenerateSpectrum`.
    """
    if K.truncated or not K.commutative:
        raise ValueError("product_characters() needs a finite commutative table")
    if ct1.chars.shape[1] * ct2.chars.shape[1] != K.size:
        raise ValueError(f"{K.name}: factor characters of {ct1.table} and {ct2.table} "
                         f"do not cover {K.size} points")
    ct = _character_table(K, np.kron(ct1.chars, ct2.chars), tol, seed)
    if not isinstance(ct, CharacterTable):
        raise DegenerateSpectrum(f"{K.name}: product characters fail their checks ({ct})")
    return ct


def _character_table(
    H: HypergroupTable, chars: np.ndarray, tol: float, seed: int
) -> CharacterTable | str:
    """The checked :class:`CharacterTable` of the rows ``chars``, or what is wrong.

    A residual or hermitian defect above the tolerance is returned as a
    message; a Parseval or orthogonality failure raises
    :class:`DegenerateSpectrum`.  Equal or nearly equal rows fail Parseval or
    orthogonality.
    """
    n = H.size
    residual = _multiplicativity_residual(H, chars)
    herm = float(np.abs(chars[:, H.view.inv] - chars.conj()).max())
    if residual > max(tol, 1e-9) or herm > max(tol, 1e-9):
        return f"residual {residual:.2e}, hermitian defect {herm:.2e}"
    # descending by the value at the generator, then by every value
    # (real parts before imaginary ones); values within 1e-9 tie
    g = H.generator
    real, imag = _ranks(-chars.real), _ranks(-chars.imag)
    chars = chars[np.lexsort(np.vstack(
        [imag.T[::-1], real.T[::-1], imag[:, g], real[:, g]]))]
    weights = plancherel(H, chars, seed=seed)
    trivial = int(np.abs(chars - 1.0).max(axis=1).argmin())
    positive = tuple(map(bool, (np.abs(chars.imag) < 1e-10).all(axis=1)
                         & (chars.real > 0).all(axis=1)))
    ct = CharacterTable(H.name, n, chars, weights, g, trivial, residual, positive)
    _check_orthogonality(H, ct, tol=max(tol, 1e-9))
    return ct


def _ranks(key: np.ndarray) -> np.ndarray:
    """Rank of each value in its column, counting neighbours within 1e-9 as equal.

    Unlike rounding to a grid, two equal values that differ by noise never
    fall on two sides of a rounding boundary.
    """
    order = np.argsort(key, axis=0)
    step = np.diff(np.take_along_axis(key, order, axis=0), axis=0) > 1e-9
    ranks = np.zeros(key.shape, dtype=int)
    np.put_along_axis(ranks, order[1:], np.cumsum(step, axis=0), axis=0)
    return ranks


def _check_orthogonality(H: HypergroupTable, ct: CharacterTable, tol: float) -> None:
    lam = H.view.lam
    G = (ct.chars * lam) @ ct.chars.conj().T
    off = G - np.diag(np.diag(G))
    scale = np.abs(np.diag(G)).max()
    if np.abs(off).max() > tol * scale * 10:
        raise DegenerateSpectrum(
            f"{H.name}: character rows not orthogonal (defect {np.abs(off).max():.2e})"
        )
    expected = 1.0 / ct.plancherel
    if np.max(np.abs(np.diag(G).real - expected) / expected) > 1e-6:
        raise DegenerateSpectrum(f"{H.name}: Plancherel weights inconsistent")


def plancherel(
    H: HypergroupTable, chars: np.ndarray, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Plancherel weights w(chi) = (sum_x lam(x) |chi(x)|^2)^{-1}.

    The normalization is pinned by Parseval, which is enforced here on a
    seeded random function before the weights are returned.
    """
    lam = H.view.lam
    weights = 1.0 / np.einsum("x,ix->i", lam, np.abs(chars) ** 2).real
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
    uhat = (lam * u) @ chars.conj().T
    lhs = float(np.sum(weights * np.abs(uhat) ** 2))
    rhs = float(np.sum(lam * np.abs(u) ** 2))
    if abs(lhs - rhs) > 1e-8 * max(1.0, rhs):
        raise DegenerateSpectrum(
            f"{H.name}: Parseval check failed ({lhs} vs {rhs})"
        )
    return weights


def _as_dense(H: HypergroupTable, f) -> np.ndarray:
    if isinstance(f, HFunction):
        out = np.zeros(H.size, dtype=complex)
        for i, v in f.values.items():
            out[i] = complex(v)
        return out
    arr = np.asarray(f, dtype=complex)
    if arr.shape != (H.size,):
        raise ValueError("function length does not match the table")
    return arr


def fourier(H: HypergroupTable, ct: CharacterTable, f) -> np.ndarray:
    """u^(chi) = sum_x lam(x) u(x) conj(chi(x))."""
    return (H.view.lam * _as_dense(H, f)) @ ct.chars.conj().T


def inverse_fourier(H: HypergroupTable, ct: CharacterTable, coeffs) -> HFunction:
    """u(x) = sum_chi w(chi) u^(chi) chi(x); round-trips within 1e-10."""
    coeffs = np.asarray(coeffs, dtype=complex)
    vals = (ct.plancherel * coeffs) @ ct.chars
    return HFunction(enumerate(vals))


# -- (P2) -----------------------------------------------------------------


@dataclass
class P2Report:
    """Outcome of the (P2) test: 1 in supp(Plancherel) or not.

    Finite tables always hold.  For truncated tables the report carries a
    spectral interval for the generator operator on l2(lam): ``lower_bound``
    is the largest section eigenvalue (certified from below, monotone in the
    radius), ``cert_bound`` the smallest value certifiable by the weighted
    Schur test from the stored rows plus the declared tail bounds.  Status
    is 'fails' when cert_bound < 1 - tol, 'inconclusive' within the band
    |cert_bound - 1| <= tol (or when no tail metadata exists), and 'holds'
    when even the sharpest certificate exceeds 1 + tol while the section
    bounds increase toward 1.
    """

    table: str
    status: str
    lower_bound: float
    upper_bound: float
    cert_bound: float | None
    tol: float
    section_bounds: tuple[tuple[int, float], ...] = ()
    certificate: str = ""

    def lines(self) -> list[str]:
        out = [f"(P2) report for {self.table}: {self.status}"]
        out.append(
            f"  spectral interval [{self.lower_bound!r}, {self.upper_bound!r}]"
        )
        if self.cert_bound is not None:
            out.append(f"  certified Schur bound {self.cert_bound!r}")
        for r, b in self.section_bounds:
            out.append(f"  section radius {r}: lower bound {b!r}")
        out.append(f"  certificate: {self.certificate}")
        return out


def section_operator(H: HypergroupTable, radius: int) -> np.ndarray:
    """Symmetrized compression W = D^{1/2} A_g D^{-1/2} to ball(radius)."""
    g = H.generator
    n = radius + 1
    lam = [float(v) for v in H.haar[:n]]
    W = np.zeros((n, n))
    for y in range(n):
        if not H.has_row(g, y):
            continue
        for z, c in H.row(g, y):
            if z < n:
                W[y, z] = math.sqrt(lam[y] / lam[z]) * float(c)
    return 0.5 * (W + W.T)


def _section_lower_bounds(H: HypergroupTable, radii=None):
    R = H.radius
    max_r = R - 1
    if radii is None:
        radii = sorted({max(2, max_r // 4), max(2, max_r // 2), max_r})
    out = []
    for r in radii:
        r = min(r, max_r)
        W = section_operator(H, r)
        out.append((r, float(np.linalg.eigvalsh(W)[-1])))
    return tuple(out)


def _schur_bound(H: HypergroupTable) -> tuple[float, float]:
    """min over geometric test functions r^grade of the Schur row bound.

    Returns (bound, argmin r).  Valid as an upper bound on the generator
    spectrum of the infinite table: stored rows are checked from the data,
    rows beyond the section from the declared tail sups.  The bound is the
    exact (rational) Schur sum at the returned r, rounded up to a double.

    Every stored row gives sum_k |c_k| r^k with integer k, and the tail
    gives alpha/r + d + beta r; each is convex on r > 0, also as a function
    of log r, so their max is convex and a golden-section search on log r
    finds its global minimum without a backstop.
    """
    g = H.generator
    tail: NNTail = H.tail
    rows: list[tuple[tuple[int, object], ...]] = []
    last_stored = -1
    for n in range(H.size):
        if not H.has_row(g, n):
            continue
        last_stored = n
        rows.append(tuple((z - n, abs(c)) for z, c in H.row(g, n)))
    if tail.start > last_stored + 1:
        raise ValueError(
            f"{H.name}: tail bounds start at {tail.start} but generator rows "
            f"are stored only through {last_stored}"
        )
    rows.append(((-1, tail.alpha_sup), (0, tail.diag_sup), (1, tail.beta_sup)))
    exps = sorted({k for row in rows for k, _ in row})
    coeffs = np.array([[float(dict(row).get(k, 0)) for k in exps] for row in rows])

    def worst(t: float) -> float:
        return float((coeffs @ np.exp(t * np.array(exps))).max())

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = math.log(1e-3), math.log(1.5)
    t1, t2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = worst(t1), worst(t2)
    while hi - lo > 1e-13:
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - inv_phi * (hi - lo)
            f1 = worst(t1)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + inv_phi * (hi - lo)
            f2 = worst(t2)
    r = math.exp(t1 if f1 <= f2 else t2)
    rq = Fraction(r)
    exact = max(sum(Fraction(c) * rq**k for k, c in row) for row in rows)
    bound = float(exact)
    if Fraction(bound) < exact:
        bound = math.nextafter(bound, math.inf)
    return bound, r


def check_p2(H: HypergroupTable, tol: float = 1e-6, seed: int = DEFAULT_SEED) -> P2Report:
    """Decide whether the constant character lies in supp(Plancherel)."""
    if not H.truncated:
        lam_sum = float(sum(float(v) for v in H.haar))
        return P2Report(
            H.name,
            "holds",
            1.0,
            1.0,
            None,
            tol,
            certificate=(
                "finite table: the l2-normalized constant vector is fixed by "
                "every translation (Plancherel weight of the constant "
                f"character: {1.0 / lam_sum!r})"
            ),
        )
    sections = _section_lower_bounds(H)
    lower = max(b for _, b in sections)
    if H.tail is None:
        return P2Report(
            H.name,
            "inconclusive",
            lower,
            1.0,
            None,
            tol,
            sections,
            "truncated table without tail metadata: only section lower bounds",
        )
    bound, r_opt = _schur_bound(H)
    upper = min(bound, 1.0)
    if bound < 1.0 - tol:
        status = "fails"
        cert = (
            f"Schur test with geometric weights r={r_opt!r} certifies the "
            f"generator spectrum <= {bound!r} < 1"
        )
    elif bound <= 1.0 + tol:
        status = "inconclusive"
        cert = f"certified bound {bound!r} lies within {tol:g} of 1"
    else:
        status = "holds"
        cert = (
            f"no Schur certificate below 1 exists (best {bound!r}); section "
            "lower bounds increase toward 1"
        )
    return P2Report(H.name, status, lower, upper, bound, tol, sections, cert)


# -- dominant positive character and the Voit deformation ------------------


def solve_character(H: HypergroupTable, value_at_generator: float) -> np.ndarray:
    """Solve the generator recurrence for the character with chi(g) = value.

    For graded families this evaluates the orthogonal-polynomial system at
    the given spectral point; the result is multiplicative on every stored
    row by construction.
    """
    g = H.generator
    n = H.size
    chi = np.zeros(n)
    chi[0] = 1.0
    s = float(value_at_generator)
    for m in range(n - 1):
        if not H.has_row(g, m):
            raise DominationFailure(
                f"{H.name}: generator row at {m} missing; cannot continue recurrence"
            )
        row = dict(H.row(g, m))
        top = max(row)
        if top <= m:
            raise DominationFailure(f"{H.name}: generator row at {m} has no up-step")
        acc = s * chi[m] - sum(float(c) * chi[z] for z, c in row.items() if z != top)
        chi[top] = acc / float(row[top])
    return chi


def chi0(
    H: HypergroupTable,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    samples: int = 17,
) -> np.ndarray:
    """The positive character dominating supp(Plancherel).

    Finite tables: the constant 1, after checking |chi(x)| <= 1 for every
    character row.  Truncated (P2)-failing families: the recurrence solution
    at the certified top of the spectrum, verified positive, multiplicative
    and dominating over sampled characters; raises
    :class:`DominationFailure` when the verification fails (truncation too
    small).
    """
    if not H.truncated:
        ct = characters(H, tol=tol, seed=seed)
        excess = float(np.max(np.abs(ct.chars)) - 1.0)
        if excess > max(tol, 1e-9):
            raise DominationFailure(
                f"{H.name}: constant character fails to dominate by {excess:.2e}"
            )
        return np.ones(H.size)
    p2 = check_p2(H, seed=seed)
    if p2.status != "fails":
        cand = np.ones(H.size)
        top = p2.lower_bound
    else:
        top = p2.cert_bound
        cand = solve_character(H, top)
        if np.min(cand) <= 0:
            raise DominationFailure(
                f"{H.name}: recurrence solution at {top!r} is not positive; "
                "increase the truncation radius"
            )
    resid = _multiplicativity_residual(H, cand.astype(complex))
    if resid > max(tol, 1e-9):
        raise DominationFailure(
            f"{H.name}: candidate chi0 multiplicativity residual {resid:.2e}"
        )
    for c in np.linspace(-top, top, samples):
        sample = solve_character(H, c)
        if np.any(np.abs(sample) > cand * (1.0 + 1e-7) + 1e-12):
            raise DominationFailure(
                f"{H.name}: sampled character at {c!r} escapes the candidate chi0"
            )
    return cand


@dataclass
class DeformedPair:
    """Original table, dominant character and the Voit deformation H0.

    The deformed convolution is c'^z_{x,y} = chi0(z) c^z_{x,y} /
    (chi0(x) chi0(y)) with Haar lam' = chi0^2 lam; characters of H0 are
    exactly chi/chi0 for the dominated characters chi of H.
    """

    base: HypergroupTable
    chi0: np.ndarray
    deformed: HypergroupTable
    haar_deformed: tuple
    axiom_violation: float
    dual_map_residual: float


def voit_deform(
    H: HypergroupTable, chi0_values, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED
) -> DeformedPair:
    """Build H0 from a verified positive multiplicative character."""
    chi = np.asarray(chi0_values, dtype=float)
    if chi.shape != (H.size,):
        raise ValueError("chi0 length does not match the table")
    if np.min(chi) <= 0:
        raise DominationFailure(f"{H.name}: chi0 must be strictly positive")
    resid = _multiplicativity_residual(H, chi.astype(complex))
    if resid > max(tol, 1e-9):
        raise DominationFailure(
            f"{H.name}: chi0 multiplicativity residual {resid:.2e}"
        )

    if not H.truncated and np.max(np.abs(chi - 1.0)) == 0.0 and H.exact:
        deformed = H.relabeled(f"{H.name}_voit")
        pair = DeformedPair(H, chi, deformed, deformed.haar, 0.0, 0.0)
        return pair

    rows = {}
    for (x, y), entries in H.rows.items():
        rows[(x, y)] = [
            (z, chi[z] * float(c) / (chi[x] * chi[y])) for z, c in entries
        ]
    haar_def = tuple(chi[x] ** 2 * float(H.haar[x]) for x in range(H.size))
    tail = _deformed_tail(H, chi) if (H.truncated and H.tail is not None) else None
    deformed = HypergroupTable(
        f"{H.name}_voit",
        H.size,
        H.involution,
        rows,
        identity=H.identity,
        haar=haar_def,
        commutative=H.commutative,
        truncated=H.truncated,
        radius=H.radius,
        tail=tail,
        generator=H.generator,
        elements=H.elements,
    )
    report = verify_axioms(deformed, tol=max(tol, 1e-10))
    worst = max(chk.violation for chk in report.checks.values())

    # dual map: chi_c / chi0 must be multiplicative for H0
    dual_resid = 0.0
    if H.truncated:
        top = chi[H.generator]
        for c in np.linspace(-top, top, 7):
            sample = solve_character(H, c) / chi
            dual_resid = max(
                dual_resid,
                _multiplicativity_residual(deformed, sample.astype(complex)),
            )
    else:
        chars = characters(H, tol=tol, seed=seed).chars
        dominated = (np.abs(chars) <= chi + 1e-9).all(axis=1)
        dual_resid = _multiplicativity_residual(deformed, chars[dominated] / chi)
    return DeformedPair(H, chi, deformed, haar_def, float(worst), float(dual_resid))


def _deformed_tail(H: HypergroupTable, chi: np.ndarray) -> NNTail | None:
    """Sup bounds for the deformed generator rows beyond the section.

    The deformed down-mass increases to sqrt(alpha beta)/s and the up-mass
    decreases to the same limit (s = chi0 at the generator), so sups over
    the tail are the limit resp. the last computable value; monotonicity is
    checked on the section and the bounds are dropped when it fails.
    """
    g = H.generator
    s = chi[g]
    t = H.tail
    limit = math.sqrt(t.alpha_sup * t.beta_sup) / s
    alphas, betas, diags = [], [], []
    for n in range(max(1, t.start), H.size - 1):
        if not H.has_row(g, n):
            break
        row = dict(H.row(g, n))
        up, down = n + 1, n - 1
        if up not in row:
            break
        a = chi[down] * float(row.get(down, 0.0)) / (s * chi[n])
        b = chi[up] * float(row[up]) / (s * chi[n])
        d = float(row.get(n, 0.0)) / s
        alphas.append(a)
        betas.append(b)
        diags.append(d)
    if len(betas) < 3:
        return None
    k = len(betas)
    tail_window = range(max(0, k - 8), k - 1)
    if any(betas[i + 1] > betas[i] + 1e-12 for i in tail_window):
        return None
    if any(alphas[i + 1] < alphas[i] - 1e-12 for i in tail_window):
        return None
    alpha_sup = max(alphas[-1], limit) + 1e-12
    beta_sup = max(betas[-1], limit) + 1e-12
    diag_sup = max(diags[-1], t.diag_sup / s) + 1e-12
    last_row = max(1, t.start) + k - 1
    return NNTail(alpha_sup, diag_sup, beta_sup, start=last_row, exact=False)
