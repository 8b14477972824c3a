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

import numpy as np

from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    HypergroupTable,
    NNTail,
    verify_axioms,
)
from .errors import DegenerateSpectrum, DominationFailure
from .view import TableView

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
    measure.  ``residual`` is their multiplicativity residual, or for the
    characters of a product (:func:`product_characters`) a bound on it from
    the factors.
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
    return _residual(H.view, np.atleast_2d(chi))


def _residual(V: TableView, chis: np.ndarray) -> float:
    """:func:`_multiplicativity_residual` of the rows ``chis`` on the view ``V``."""
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
    lam = H.lam
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
        chars = ((vecs / vecs[e]).T * (root[e] / root)).astype(complex, copy=False)
        ct = _character_table(H, chars, _multiplicativity_residual(H, chars), tol, seed)
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
    of ``kron(ct1.chars, ct2.chars)``, with no diagonalization of K.  Their
    multiplicativity residual is bounded from the factors
    (:func:`_product_residual`), on the factor views K was built from; they
    are ordered and weighted, and their hermitian symmetry, Parseval and
    orthogonality are checked, on K, as :func:`characters` does its own.
    So factor tables that do not belong to K raise
    :class:`DegenerateSpectrum`.  Raises ValueError for a K that is not a
    product of two tables (``K.view.factors``), or whose factors the
    characters do not fit.
    """
    if K.truncated or not K.commutative:
        raise ValueError("product_characters() needs a finite commutative table")
    if K.view.factors is None:
        raise ValueError(f"{K.name}: product_characters() needs a table built as a product")
    V1, V2 = K.view.factors
    if (ct1.chars.shape[1], ct2.chars.shape[1]) != (V1.n, V2.n):
        raise ValueError(f"{K.name}: characters of {ct1.table} and {ct2.table} do not fit "
                         f"its factors of {V1.n} and {V2.n} points")
    ct = _character_table(K, np.kron(ct1.chars, ct2.chars),
                          _product_residual(V1, ct1.chars, V2, ct2.chars), tol, seed)
    if not isinstance(ct, CharacterTable):
        raise DegenerateSpectrum(f"{K.name}: product characters fail their checks ({ct})")
    return ct


def _product_residual(V1: TableView, chars1: np.ndarray, V2: TableView,
                      chars2: np.ndarray) -> float:
    """A bound on the multiplicativity residual of ``kron(chars1, chars2)`` on ``V1 x V2``.

    With ``a_i = chi_i(x) chi_i(y)`` and ``b_i = sum_z c^z chi_i(z)`` on
    factor i, the residual of chi1 (x) chi2 at a product of the product
    table is ``a1 a2 - b1 b2 = a1 (a2 - b2) + b2 (a1 - b1)``.  With
    ``|chi_i| <= m_i`` and factor residuals ``r_i``, ``|a1| <= m1**2`` and
    ``|b2| <= m2**2 + r2``, so it is at most ``m1**2 r2 + (m2**2 + r2) r1``.
    Each r_i is computed here, on the factor's view.

    Rounding is added on top.  A residual of rows with at most k entries
    and absolute row sums at most S is evaluated in float64 within
    ``(k + 8) u m (m + S)`` of its exact value (``u = 2**-53``; the sum of
    k products and a complex product, Higham 2002, ch. 3), which widens
    each r_i.  The product's coefficients and character values are rounded
    once more than the products of the factors' (``6 u m (m + S)`` for
    ``m = m1 m2``, ``S = S1 S2``), and its own residual is evaluated with k1 k2
    entries per row.
    """
    u = 2.0**-53
    parts = []
    for V, chars in ((V1, chars1), (V2, chars2)):
        m = float(np.abs(chars).max(initial=0.0))
        k = int(np.diff(V.starts).max(initial=0))
        S = float(np.bincount(V.pair, np.abs(V.c), len(V.px)).max(initial=0.0))
        r = _residual(V, chars)
        parts.append((m, k, S, r + (k + 8) * u * m * (m + S)))
    (m1, k1, S1, r1), (m2, k2, S2, r2) = parts
    m, S = m1 * m2, S1 * S2
    return m1 * m1 * r2 + (m2 * m2 + r2) * r1 + (k1 * k2 + 14) * u * m * (m + S)


def _character_table(
    H: HypergroupTable, chars: np.ndarray, residual: float, tol: float, seed: int
) -> CharacterTable | str:
    """The checked :class:`CharacterTable` of the rows ``chars``, or what is wrong.

    ``residual`` is the multiplicativity residual of ``chars``, or a bound
    on it.  A residual or hermitian defect above the tolerance is returned
    as a message; a Parseval or orthogonality failure raises
    :class:`DegenerateSpectrum`.  Equal or nearly equal rows fail Parseval
    or orthogonality.
    """
    n = H.size
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
    lam = H.lam
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
    lam = H.lam
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
    """``f``, a function on the table, as a complex array of length ``n``."""
    arr = np.asarray(f, dtype=complex)
    if arr.shape != (H.size,):
        raise ValueError("function length does not match the table")
    return arr


def fourier(H: HypergroupTable, ct: CharacterTable, f) -> np.ndarray:
    """u^(chi) = sum_x lam(x) u(x) conj(chi(x))."""
    return (H.lam * _as_dense(H, f)) @ ct.chars.conj().T


def inverse_fourier(H: HypergroupTable, ct: CharacterTable, coeffs) -> np.ndarray:
    """u(x) = sum_chi w(chi) u^(chi) chi(x); round-trips within 1e-10."""
    return (ct.plancherel * np.asarray(coeffs, dtype=complex)) @ ct.chars


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
    n = radius + 1
    _, y, z, c = H.generator_rows
    inside = (y < n) & (z < n)
    y, z, lam = y[inside], z[inside], H.lam
    W = np.zeros((n, n))
    W[y, z] = np.sqrt(lam[y] / lam[z]) * c[inside]
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
    rows beyond the section from the declared tail sups.

    Every stored row gives sum_k |c_k| r^k with integer k, and the tail
    gives alpha/r + d + beta r; each is convex on r > 0, also as a function
    of log r, so their max is convex and a golden-section search on log r
    finds its global minimum without a backstop.

    The bound is the largest row sum at r in float64, rounded outward.  A
    row has at most m = len(exps) nonnegative terms |c_k| r^k, each rounded
    at most four times by u = 2**-53 (|c_k|, r**k within one ulp, the
    product), and any order of summation adds m - 1 roundings, so its float
    sum s~ is within gamma_{m+3} <= (m + 4) u of the exact sum s, relatively
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    sec. 3.1): s <= s~ (1 + 2 (m + 4) u), a factor that is a double, and one
    step up covers the product's rounding.  The exact rational sums are the
    test oracle.
    """
    tail: NNTail = H.tail
    stored, y, z, c = H.generator_rows
    last_stored = int(stored[-1]) if len(stored) else -1
    if tail.start > last_stored + 1:
        raise ValueError(
            f"{H.name}: tail bounds start at {tail.start} but generator rows "
            f"are stored only through {last_stored}"
        )
    # one row of coefficients |c| per stored row, by the exponent z - y,
    # and a last row for the tail
    exps = np.array(sorted(set((z - y).tolist()) | {-1, 0, 1}))
    coeffs = np.zeros((len(stored) + 1, len(exps)))
    coeffs[np.searchsorted(stored, y), np.searchsorted(exps, z - y)] = np.abs(c)
    coeffs[-1, np.searchsorted(exps, [-1, 0, 1])] = (
        tail.alpha_sup, tail.diag_sup, tail.beta_sup)

    def worst(t: float) -> float:
        return float((coeffs @ np.exp(t * exps)).max())

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
    top = float((coeffs @ np.array([r**k for k in exps.tolist()])).max())
    return math.nextafter(top * (1.0 + (len(exps) + 4) * 2.0**-52), math.inf), r


def check_p2(H: HypergroupTable, tol: float = 1e-6) -> P2Report:
    """Decide whether the constant character lies in supp(Plancherel)."""
    if not H.truncated:
        lam_sum = sum(H.lam.tolist())
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


def solve_character(H: HypergroupTable, value_at_generator) -> np.ndarray:
    """Solve the generator recurrence for the character with chi(g) = value.

    For graded families this evaluates the orthogonal-polynomial system at
    the given spectral point; the result is multiplicative on every stored
    row by construction.  ``value_at_generator`` is one value, or a 1-D
    array of values, which gives one row per value.
    """
    s = np.asarray(value_at_generator, dtype=float)
    n = H.size
    stored, y, z, c = H.generator_rows
    has = np.zeros(n, dtype=bool)
    has[stored] = True
    # the entries of row m are ends[m]:ends[m + 1], their largest z last
    ends = np.searchsorted(y, np.arange(n + 1)).tolist()
    z, c = z.tolist(), c.tolist()
    chi = np.zeros(s.shape + (n,))
    chi[..., 0] = 1.0
    for m in range(n - 1):
        if not has[m]:
            raise DominationFailure(
                f"{H.name}: generator row at {m} missing; cannot continue recurrence"
            )
        first, top = ends[m], ends[m + 1] - 1
        if top < first or z[top] <= m:
            raise DominationFailure(f"{H.name}: generator row at {m} has no up-step")
        below = 0
        for i in range(first, top):
            below = below + c[i] * chi[..., z[i]]
        chi[..., z[top]] = (s * chi[..., m] - below) / c[top]
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
    p2 = check_p2(H)
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
    grid = np.linspace(-top, top, samples)
    escapes = (np.abs(solve_character(H, grid)) > cand * (1.0 + 1e-7) + 1e-12).any(axis=1)
    if escapes.any():
        raise DominationFailure(
            f"{H.name}: sampled character at {grid[escapes.argmax()]!r} escapes the "
            "candidate chi0"
        )
    return cand


# The largest axiom violation of a deformation H0 and the largest
# multiplicativity residual of its dual map that a sound deformation has.
DEFORM_AXIOM_BOUND = 1e-10
DEFORM_DUAL_MAP_BOUND = 1e-8


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

    def defect(self) -> str | None:
        """Which evidence of the deformation exceeds its bound, or None if none does.

        The bounds are :data:`DEFORM_AXIOM_BOUND` and
        :data:`DEFORM_DUAL_MAP_BOUND`; NaN exceeds them.
        """
        for name, value, bound in (
            ("axiom violation", self.axiom_violation, DEFORM_AXIOM_BOUND),
            ("dual map residual", self.dual_map_residual, DEFORM_DUAL_MAP_BOUND),
        ):
            if not value <= bound:
                return f"{self.deformed.name}: {name} {value:.2e} exceeds {bound:g}"
        return None


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

    # c'^z_{x,y} = chi(z) c^z_{x,y} / (chi(x) chi(y)) on the entries of the
    # view; a commutative table gives its products once, x <= y
    V = H.view
    c = chi[V.z] * V.c / (chi[V.x] * chi[V.y])
    given = V.x <= V.y if H.commutative else slice(None)
    view = TableView(H.size, H.identity, V.inv, H.commutative,
                     V.x[given], V.y[given], V.z[given], c[given])
    haar_def = tuple((chi**2 * H.lam).tolist())
    tail = _deformed_tail(H, chi) if (H.truncated and H.tail is not None) else None
    deformed = HypergroupTable(
        f"{H.name}_voit",
        view,
        haar=haar_def,
        truncated=H.truncated,
        radius=H.radius,
        tail=tail,
        generator=H.generator,
        elements=H.elements,
    )
    report = verify_axioms(deformed, tol=max(tol, 1e-10))
    worst = max(chk.violation for chk in report.checks.values())

    # dual map: chi_c / chi0 must be multiplicative for H0
    if H.truncated:
        top = chi[H.generator]
        samples = solve_character(H, np.linspace(-top, top, 7)) / chi
        dual_resid = _multiplicativity_residual(deformed, samples.astype(complex))
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
    s = chi[H.generator]
    t = H.tail
    limit = math.sqrt(t.alpha_sup * t.beta_sup) / s
    stored, y, z, c = H.generator_rows
    G = np.zeros((H.size, H.size))
    G[y, z] = c
    # the rows from max(1, t.start) up to the first that is missing or has
    # no up-step
    rows = np.arange(max(1, t.start), H.size - 1)
    ok = np.isin(rows, stored) & (G[rows, rows + 1] != 0)
    rows = rows[:len(rows) if ok.all() else int(ok.argmin())]
    if len(rows) < 3:
        return None
    alphas = (chi[rows - 1] * G[rows, rows - 1] / (s * chi[rows])).tolist()
    betas = (chi[rows + 1] * G[rows, rows + 1] / (s * chi[rows])).tolist()
    diags = (G[rows, rows] / s).tolist()
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
