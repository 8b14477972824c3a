import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hypharm import (
    builders,
    characters,
    check_p2,
    chi0,
    fourier,
    groups,
    inverse_fourier,
    solve_character,
    spectral,
    verify_axioms,
    voit_deform,
)
from hypharm.builders import FamilySpec, family
from hypharm.core import HypergroupTable
from hypharm.spectral import _multiplicativity_residual, _schur_bound, section_operator
from hypharm.errors import DegenerateSpectrum, DominationFailure

# S3 character table over classes (e, transpositions, 3-cycles)
S3_CHARS = [(1, 1, 1), (1, -1, 1), (2, 0, -1)]


def _rows_as_set(ct, ndigits=8):
    return {
        tuple(complex(round(v.real, ndigits), round(v.imag, ndigits)) for v in row)
        for row in ct.chars
    }


def test_characters_z2():
    H = family(FamilySpec("cyclic", n=2))
    ct = characters(H)
    assert _rows_as_set(ct) == {(1, 1), (1, -1)}
    assert np.allclose(ct.plancherel, [0.5, 0.5])


def test_characters_conj_s3():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    ct = characters(H)
    expected = {
        tuple(complex(chi[c] / chi[0]) for c in range(3)) for chi in S3_CHARS
    }
    assert _rows_as_set(ct) == expected
    # descending at the generator, so the constant character comes first
    assert ct.trivial_index == 0
    assert np.allclose(sorted(ct.plancherel), [1 / 6, 1 / 6, 2 / 3])


def test_characters_irr_s3_duality():
    # characters of Irr(S3) are indexed by classes: chi_C(pi) = chi_pi(C)/d_pi
    H = builders.irr_hypergroup(groups.symmetric(3))
    ct = characters(H)
    dims = [int(lab.split("d")[1]) for lab in H.elements]
    cols = {tuple(round(chi[j] / chi[0], 8) for chi in S3_CHARS) for j in range(3)}
    got = set()
    for row in ct.chars:
        got.add(tuple(round((row[a]).real, 8) for a in range(3)))
    # each character row lists chi_pi(C)/d_pi over pi, for a fixed class C
    by_class = {
        tuple(round(chi[j] / dims[a], 8) for a, chi in enumerate(_chars_in_elem_order(H)))
        for j in range(3)
    }
    assert got == by_class


def _chars_in_elem_order(H):
    # unnormalized S3 characters matched to the table's element order by dim
    dims = [int(lab.split("d")[1]) for lab in H.elements]
    out = []
    used = set()
    for d in dims:
        for i, chi in enumerate(S3_CHARS):
            if chi[0] == d and i not in used:
                # disambiguate the two 1-dim characters by the sign pattern
                out.append(chi)
                used.add(i)
                break
    # fix order of triv/sgn: element 0 is trivial (all rows sum to it),
    # the remaining 1-dim is sgn
    if dims[0] == 1:
        out[0] = (1, 1, 1)
        for k in range(1, 3):
            if dims[k] == 1:
                out[k] = (1, -1, 1)
    return out


def test_character_multiplicativity_property(finite_tables):
    for name, H in finite_tables.items():
        ct = characters(H)
        assert ct.size == H.size, name
        assert ct.residual < 1e-9, name
        # explicit check: chi(x)chi(y) = sum_z c^z chi(z)
        for chi in ct.chars:
            for (x, y), entries in H.rows.items():
                s = sum(float(c) * chi[z] for z, c in entries)
                assert abs(chi[x] * chi[y] - s) < 1e-9, name


def test_character_orthogonality(finite_tables):
    for name, H in finite_tables.items():
        ct = characters(H)
        lam = np.array([float(v) for v in H.haar])
        G = (ct.chars * lam) @ ct.chars.conj().T
        off = np.abs(G - np.diag(np.diag(G))).max()
        assert off < 1e-9 * np.abs(np.diag(G)).max(), name
        assert np.allclose(np.diag(G).real, 1.0 / ct.plancherel, rtol=1e-9), name


def test_plancherel_conj_s3_values():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    ct = characters(H)
    # trivial character: 1/sum(lam) = 1/6; standard: 2/3
    assert ct.plancherel[ct.trivial_index] == pytest.approx(1 / 6, abs=1e-12)
    std = next(
        i for i in range(3) if abs(ct.chars[i][2] + 0.5) < 1e-8
    )
    assert ct.plancherel[std] == pytest.approx(2 / 3, abs=1e-12)


def test_fourier_delta_e_and_characters():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    ct = characters(H)
    uhat = fourier(H, ct, np.eye(3)[0])
    assert np.allclose(uhat, 1.0)
    # a character transforms to a point mass of weight 1/w(chi)
    for i in range(3):
        chat = fourier(H, ct, ct.chars[i])
        expected = np.zeros(3)
        expected[i] = 1.0 / ct.plancherel[i]
        assert np.allclose(chat, expected, atol=1e-9)


def test_fourier_roundtrip_and_parseval(finite_tables):
    rng = np.random.default_rng(123)
    for name, H in finite_tables.items():
        ct = characters(H)
        lam = np.array([float(v) for v in H.haar])
        for _ in range(100):
            u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
            uhat = fourier(H, ct, u)
            back = inverse_fourier(H, ct, uhat)
            err = np.abs(back - u).max()
            assert err < 1e-10, name
            parseval = abs(
                np.sum(ct.plancherel * np.abs(uhat) ** 2)
                - np.sum(lam * np.abs(u) ** 2)
            )
            assert parseval < 1e-10 * max(1.0, np.sum(lam * np.abs(u) ** 2)), name


@pytest.mark.parametrize("n", [128, 192, 256])
@pytest.mark.parametrize("seed", [1, 7, 12345, 2**31 - 1])
def test_cyclic_characters_match_closed_form(n, seed):
    # the characters of Z_n are x -> w^{kx}, w = exp(2 pi i / n), with k
    # read off chi(1); one eigh and a first-order correction, no Newton
    # polish, so this pins the accuracy margin
    ct = characters(family(FamilySpec("cyclic", n=n)), seed=seed)
    k = np.rint(np.angle(ct.chars[:, 1]) * n / (2 * np.pi)).astype(int) % n
    # descending Re chi(1), and of a conjugate pair Im chi(1) > 0 first; at
    # Z192, seed 7, the computed real parts of one pair straddle a 10-decimal
    # rounding boundary, so the order must not round
    pairs = [j for i in range(1, n // 2) for j in (i, n - i)]
    assert list(k) == [0, *pairs, n // 2]
    closed = np.exp(2j * np.pi * np.outer(k, np.arange(n)) / n)
    assert np.abs(ct.chars - closed).max() < 1e-9
    assert ct.residual <= 1e-10


def test_degenerate_spectrum_on_broken_table():
    # two copies of the same point glued: not a hypergroup, characters repeat
    rows = {
        (0, 0): [(0, 1.0)],
        (0, 1): [(1, 1.0)],
        (0, 2): [(2, 1.0)],
        (1, 1): [(0, 0.5), (1, 0.25), (2, 0.25)],
        (1, 2): [(0, 0.5), (1, 0.25), (2, 0.25)],
        (2, 2): [(0, 0.5), (1, 0.25), (2, 0.25)],
    }
    H = HypergroupTable.from_rows("broken", 3, [0, 1, 2], rows, haar=[1.0, 2.0, 2.0])
    with pytest.raises(DegenerateSpectrum):
        characters(H)


@pytest.mark.parametrize("square, haar, error", [
    # c^e_{1,1} = -1 gives lam(1) = -1: there is no l2(lam) to diagonalize on
    ([(0, -1.0)], None, DegenerateSpectrum),
    ([(0, 1.0)], [1.0, math.inf], DegenerateSpectrum),
    ([(0, 0.5), (1, math.nan)], None, ValueError),
], ids=["negative-haar", "infinite-haar", "nan-coefficient"])
def test_characters_need_finite_input_and_positive_haar(square, haar, error):
    rows = {(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)], (1, 1): square}
    with pytest.raises(error, match="must be"):
        characters(HypergroupTable.from_rows("bad", 2, [0, 1], rows, haar=haar))


# -- characters of a product ------------------------------------------------


# the tables of the benchmark's amenability jobs, whose norms on H x H come
# from the products of H's own characters
AMENABILITY_SPECS = [FamilySpec(f, group=g) for g in ("s3", "s4", "a4", "d4", "q8", "klein", "z5")
                     for f in ("conj", "irr")] + [FamilySpec("cyclic", n=n) for n in (3, 4, 5, 6)]


def _check_kron_characters(K, ct1, ct2, want):
    """The rows of ``kron(ct1.chars, ct2.chars)`` are the characters ``want`` of K, with weights w1 w2."""
    got = np.kron(ct1.chars, ct2.chars)
    order = [int(np.abs(got - row).max(axis=1).argmin()) for row in want.chars]
    assert sorted(order) == list(range(K.size))
    assert np.abs(got[order] - want.chars).max() < 1e-9
    assert np.abs(np.kron(ct1.plancherel, ct2.plancherel)[order] - want.plancherel).max() < 1e-9
    assert order[want.trivial_index] == ct1.trivial_index * ct2.size + ct2.trivial_index
    assert tuple(np.kron(ct1.positive, ct2.positive).astype(bool)[order]) == want.positive
    assert _multiplicativity_residual(K, got) < 1e-9


@pytest.mark.parametrize("spec", AMENABILITY_SPECS, ids=lambda s: f"{s.name}-{s.group or s.n}")
def test_product_characters_match_diagonalization(spec):
    # the characters of H x H are chi_i (x) chi_j (Bloom and Heyer 1995, 1.5),
    # the identity on which norms.diagonal_norms rests
    H = family(spec)
    K = builders.product(H, H)
    for seed in (7, 12345):
        ct = characters(H, seed=seed)
        _check_kron_characters(K, ct, ct, characters(K, seed=seed))


def test_product_characters_of_distinct_factors():
    H1 = builders.irr_hypergroup(groups.dihedral4())
    H2 = builders.conjugacy_hypergroup(groups.quaternion8())
    K = builders.product(H1, H2)
    ct1, ct2 = characters(H1), characters(H2)
    _check_kron_characters(K, ct1, ct2, characters(K))
    # the factors in the wrong order are not characters of K
    assert _multiplicativity_residual(K, np.kron(ct2.chars, ct1.chars)) > 1e-3


# the 21 products of test_view's six factors, and the H x H of Z12, Z16 and Z20
PRODUCT_FACTORS = [FamilySpec(f, group=g) for f, g in (
    ("conj", "s3"), ("irr", "s3"), ("conj", "klein"), ("irr", "a4"), ("irr", "d4"), ("conj", "q8"))]
FACTOR_PAIRS = [(a, b) for i, a in enumerate(PRODUCT_FACTORS) for b in PRODUCT_FACTORS[i:]]
FACTOR_PAIRS += [(s, s) for s in AMENABILITY_SPECS]
FACTOR_PAIRS += [(FamilySpec("cyclic", n=n),) * 2 for n in (12, 16, 20)]


@pytest.mark.parametrize("specs", FACTOR_PAIRS,
                         ids=lambda p: "x".join(f"{s.name}-{s.group or s.n}" for s in p))
def test_product_residual_bounds_the_full_residual(specs):
    # at a product of K, a1 a2 - b1 b2 = a1 (a2 - b2) + b2 (a1 - b1) with
    # a_i = chi_i(x) chi_i(y) and b_i = sum_z c^z chi_i(z), so with |chi_i| <= 1
    # the residual of chi1 (x) chi2 on K is at most r2 + (1 + r2) r1 for the
    # factor residuals r_i, up to rounding
    H1, H2 = (family(s) for s in specs)
    K = builders.product(H1, H2)
    ct1, ct2 = characters(H1), characters(H2)
    full = _multiplicativity_residual(K, np.kron(ct1.chars, ct2.chars))
    r1, r2 = (_multiplicativity_residual(H, ct.chars) for H, ct in ((H1, ct1), (H2, ct2)))
    assert full < r2 + 2 * r1 + 1e-13
    assert full < 1e-9


# -- (P2) --------------------------------------------------------------------


def test_p2_finite_tables_hold(finite_tables):
    for name, H in finite_tables.items():
        rep = check_p2(H)
        assert rep.status == "holds", name


def test_p2_su2_sections_hold():
    for R in (20, 40):
        rep = check_p2(builders.su2_fusion(R))
        assert rep.status == "holds"
        assert rep.lower_bound < 1.0 <= rep.upper_bound + 1e-12
        # monotone lower bounds
        bounds = [b for _, b in rep.section_bounds]
        assert bounds == sorted(bounds)


def test_p2_tree_fails_with_certified_bound():
    rep = check_p2(builders.tree_radial(2, 40))
    assert rep.status == "fails"
    target = 2 * math.sqrt(2) / 3
    assert abs(rep.cert_bound - target) < 1e-3
    # oracle: top eigenvalue of the truncated Jacobi matrix at R = 200
    R = 200
    diag = np.zeros(R + 1)
    off = np.full(R, math.sqrt(2) / 3)
    off[0] = 1 / math.sqrt(3)
    jac = np.diag(off, 1) + np.diag(off, -1) + np.diag(diag)
    oracle = float(np.linalg.eigvalsh(jac)[-1])
    assert abs(rep.cert_bound - oracle) < 1e-3
    assert rep.lower_bound <= rep.cert_bound


def test_p2_tree_q3():
    rep = check_p2(builders.tree_radial(3, 40))
    assert rep.status == "fails"
    assert abs(rep.cert_bound - 2 * math.sqrt(3) / 4) < 1e-3


def _schur_rows(H):
    """Generator rows and the tail as (exponent, |coefficient|) pairs."""
    g, t = H.generator, H.tail
    rows = [
        [(z - n, abs(c)) for z, c in H.row(g, n)]
        for n in range(H.size)
        if H.has_row(g, n)
    ]
    rows.append([(-1, t.alpha_sup), (0, t.diag_sup), (1, t.beta_sup)])
    return rows


SCHUR_SECTIONS = {
    "tree_q2": FamilySpec("tree_radial", q=2),
    "tree_q3": FamilySpec("tree_radial", q=3),
    "su2": FamilySpec("su2_fusion"),
    "suq2_half": FamilySpec("suq2_fusion", q=Fraction(1, 2)),
    "suq2_two_thirds": FamilySpec("suq2_fusion", q=Fraction(2, 3)),
}


def _section(name, radius):
    spec = SCHUR_SECTIONS[name]
    return family(FamilySpec(spec.name, q=spec.q, radius=radius))


def _deformed_section(name, radius):
    H = _section(name, radius)
    return voit_deform(H).deformed


def _schur_cases():
    cases = [
        pytest.param(_section, "tree_q2", 40, 2 * math.sqrt(2) / 3, id="tree_q2"),
        pytest.param(_section, "tree_q3", 40, math.sqrt(3) / 2, id="tree_q3"),
        pytest.param(_section, "suq2_half", 40, 0.8, id="suq2_half"),
    ]
    cases += [pytest.param(_section, name, r, None, id=f"{name}_R{r}")
              for name in SCHUR_SECTIONS for r in (24, 36, 48, 60)]
    # the deformed sections that keep tail bounds: those of the trees
    cases += [pytest.param(_deformed_section, name, r, None, id=f"{name}_R{r}_voit")
              for name in ("tree_q2", "tree_q3") for r in (12, 20, 28)]
    return cases


@pytest.mark.parametrize("build, name, radius, closed_form", _schur_cases())
def test_schur_bound_is_exact_upper_bound(build, name, radius, closed_form):
    H = build(name, radius)
    bound, r = _schur_bound(H)
    rows = _schur_rows(H)
    m = len({k for row in rows for k, _ in row})
    rq = Fraction(r)
    exact = max(sum(Fraction(c) * rq**k for k, c in row) for row in rows)
    # at least the exact sum at r, and at most that sum rounded outward: a
    # float sum within (m + 4) 2**-53 of it, times 1 + 2 (m + 4) 2**-53, one
    # step up
    assert exact <= Fraction(bound) <= exact * (1 + Fraction(m + 4, 2**51))
    if closed_form is not None:
        assert abs(bound - closed_form) < 1e-9


@pytest.mark.parametrize("R", [24, 40, 60])
def test_schur_bound_not_above_grid_minimum(R):
    # the 401-point grid the search replaced, kept as an oracle
    grid = np.linspace(1e-3, 1.5, 401)
    for H in (
        builders.tree_radial(2, R),
        builders.tree_radial(3, R),
        builders.su2_fusion(R),
        builders.su2_fusion(R, q=Fraction(1, 2)),
    ):
        rows = [[(k, float(c)) for k, c in row] for row in _schur_rows(H)]
        grid_min = min(
            max(sum(c * r**k for k, c in row) for row in rows) for r in grid
        )
        assert _schur_bound(H)[0] <= grid_min + 1e-12, H.name


def test_p2_without_tail_is_inconclusive():
    T = builders.tree_radial(2, 20)
    stripped = HypergroupTable.from_rows(
        "naked", T.size, T.involution, dict(T.rows), haar=T.haar,
        truncated=True, radius=T.radius, tail=None, generator=1,
    )
    rep = check_p2(stripped)
    assert rep.status == "inconclusive"


# -- chi0 and the deformation -------------------------------------------------


def test_chi0_finite_is_constant(finite_tables):
    for name, H in finite_tables.items():
        assert np.array_equal(chi0(H), np.ones(H.size)), name


def test_chi0_su2_is_constant():
    assert np.array_equal(chi0(builders.su2_fusion(30)), np.ones(30))


@pytest.mark.parametrize("R, radii", [(2, [1]), (3, [2]), (4, [2, 3]), (5, [2, 4])])
def test_section_radii_are_clamped_then_taken_once(R, radii):
    # a quarter, half and all of the R - 1 radii, each at least 2 and at most R - 1
    rep = check_p2(builders.tree_radial(2, R))
    assert [r for r, _ in rep.section_bounds] == radii


def _chi0_from_the_report(H):
    """chi0 of a (P2)-failing section as it was found: from all of check_p2."""
    return solve_character(H, check_p2(H).cert_bound)


@pytest.mark.parametrize("H", [builders.tree_radial(2, 28), builders.tree_radial(3, 30),
                               builders.su2_fusion(28, q=Fraction(1, 2)),
                               builders.su2_fusion(24, q=Fraction(1, 2))],
                         ids=lambda H: H.name)
def test_chi0_of_a_failing_section_takes_no_section_bounds(H, monkeypatch):
    want = _chi0_from_the_report(H)

    def unread(H):
        raise AssertionError("section bounds taken but not read")

    monkeypatch.setattr(spectral, "_section_lower_bounds", unread)
    assert chi0(H).tobytes() == want.tobytes()


@pytest.mark.parametrize("R", [12, 24, 30])
def test_chi0_of_su2_takes_one_schur_bound(R, monkeypatch):
    calls = []
    bound = spectral._schur_bound
    monkeypatch.setattr(spectral, "_schur_bound", lambda H: calls.append(1) or bound(H))
    H = builders.su2_fusion(R)
    assert np.array_equal(chi0(H), np.ones(H.size))
    assert len(calls) == 1


def test_chi0_tree_closed_form():
    T = builders.tree_radial(2, 60)
    c = chi0(T)
    assert c[1] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)
    exact = np.array([2 ** (-n / 2) * (1 + n / 3) for n in range(61)])
    assert np.max(np.abs(c - exact)) < 1e-9
    # multiplicativity at radius 60 within 1e-9 is checked inside chi0;
    # domination against sampled characters as well
    for cval in np.linspace(-c[1], c[1], 9):
        sample = solve_character(T, cval)
        assert np.all(np.abs(sample) <= c * (1 + 1e-7) + 1e-12)


def test_voit_deform_finite_identity(finite_tables):
    H = finite_tables["conj_s3"]
    pair = voit_deform(H)
    assert pair.deformed.rows == H.rows
    assert pair.axiom_violation == pair.haar_defect == 0.0


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.symmetric(4)],
                         ids=["s3", "s4"])
def test_voit_deform_finite_float_table(group, monkeypatch):
    # a float table takes the finite branch that checks every dominated character
    H = builders.conjugacy_hypergroup(group)
    F = HypergroupTable.from_rows(f"{H.name}_float", H.size, H.involution,
                                  {k: [(z, float(c)) for z, c in row]
                                   for k, row in H.rows.items()})
    assert not F.exact
    calls = []

    def counting(H, *args, **kwargs):
        calls.append(H.name)
        return characters(H, *args, **kwargs)

    monkeypatch.setattr(spectral, "characters", counting)
    pair = voit_deform(F)
    # one diagonalization serves chi0's domination check and the dual map
    assert calls == [F.name]
    assert pair.dual_map_residual < 1e-12
    assert pair.axiom_violation < 1e-12
    assert pair.haar_defect < 1e-12


def test_voit_deform_tree():
    T = builders.tree_radial(2, 40)
    pair = voit_deform(T)
    c = pair.chi0
    assert pair.axiom_violation < 1e-10
    assert dict(pair.deformed.row(1, 1))[0] == pytest.approx(3 / 8, abs=1e-12)
    lam = T.haar
    for n in range(41):
        assert pair.deformed.lam[n] == pytest.approx(
            c[n] ** 2 * float(lam[n]), abs=1e-10
        )
    assert 0 < pair.haar_defect <= 1e-12
    rep = check_p2(pair.deformed)
    assert rep.status == "holds"
    assert verify_axioms(pair.deformed, tol=1e-10).passed
    # deformed characters are chi/chi0 for dominated chi (dual map residual)
    assert pair.dual_map_residual < 1e-8


def test_chi0_and_deform_on_quantum_d_table():
    # experiment hook: the quantum-dimension hypergroup of SU_q(2) at q < 1
    # fails (P2) (the weights [n]_q^2 grow too fast) and the deformation
    # restores it; no further claims are attached to this run
    Hd = builders.su2_fusion(40, q=Fraction(1, 2))
    rep = check_p2(Hd)
    assert rep.status == "fails"
    assert rep.cert_bound == pytest.approx(2 / 2.5, abs=1e-2)
    pair = voit_deform(Hd)
    assert np.min(pair.chi0) > 0
    assert pair.axiom_violation < 1e-10
    assert pair.passed


def test_deformed_pair_passes_on_a_sound_deformation_restoring_p2():
    T = builders.tree_radial(2, 24)
    pair = voit_deform(T)
    assert pair.p2_status == check_p2(pair.deformed).status
    assert pair.passed
    assert not dataclasses.replace(pair, axiom_violation=1.0).passed
    # T is certified to fail (P2): as H0 it restores nothing
    assert not dataclasses.replace(pair, deformed=T).passed
    # the status is cached, so the pair cannot take another H0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.deformed = T
    assert pair.passed


# -- generator rows from the view -----------------------------------------------


def _section_operator_loop(H, radius):
    """The former row loop of section_operator, kept as its reference."""
    g, n = H.generator, radius + 1
    lam = [float(v) for v in H.haar[:n]]
    W = np.zeros((n, n))
    for y in range(n):
        if not H.has_row(g, y):
            continue
        for z, c in H.row(g, y):
            if z < n:
                W[y, z] = math.sqrt(lam[y] / lam[z]) * float(c)
    return 0.5 * (W + W.T)


def _solve_character_loop(H, s):
    """The former row loop of solve_character, kept as its reference."""
    g = H.generator
    chi = np.zeros(H.size)
    chi[0] = 1.0
    for m in range(H.size - 1):
        row = dict(H.row(g, m))
        top = max(row)
        acc = s * chi[m] - sum(float(c) * chi[z] for z, c in row.items() if z != top)
        chi[top] = acc / float(row[top])
    return chi


def _voit(H):
    return voit_deform(H).deformed


SECTION_BUILDS = {
    "tree2": lambda: builders.tree_radial(2, 24),
    "tree3": lambda: builders.tree_radial(3, 24),
    "su2": lambda: builders.su2_fusion(24),
    "suq2": lambda: builders.su2_fusion(24, q=Fraction(1, 2)),
    "tree2_voit": lambda: _voit(builders.tree_radial(2, 20)),
}


@pytest.mark.parametrize("name", sorted(SECTION_BUILDS))
def test_section_operator_matches_the_row_loop(name):
    H = SECTION_BUILDS[name]()
    for r in (2, 11, H.radius - 1):
        assert section_operator(H, r).tobytes() == _section_operator_loop(H, r).tobytes()


@pytest.mark.parametrize("name", sorted(SECTION_BUILDS))
def test_solve_character_on_an_array_equals_single_values(name):
    H = SECTION_BUILDS[name]()
    values = np.linspace(-1.2, 1.2, 17)
    rows = solve_character(H, values)
    assert rows.shape == (17, H.size)
    for v, row in zip(values, rows):
        assert row.tobytes() == solve_character(H, v).tobytes()
        assert row.tobytes() == _solve_character_loop(H, v).tobytes()


def test_solve_character_reports_a_missing_row():
    T = builders.tree_radial(2, 10)
    rows = {k: v for k, v in T.rows.items() if k != (1, 4)}
    H = HypergroupTable.from_rows("holed", T.size, T.involution, rows, haar=T.haar,
                                  truncated=True, radius=T.radius, generator=1)
    with pytest.raises(DominationFailure, match="generator row at 4 missing"):
        solve_character(H, np.array([0.5, 0.9]))


# -- one pass through a section's deformation -----------------------------------


def _schur_bound_before(H):
    """:func:`_schur_bound` with its former step, ``coeffs @ exp(t * exps)`` on integer
    exponents: the oracle of its iterates."""
    t = H.tail
    stored, y, z, c = H.generator_rows
    exps = np.array(sorted(set((z - y).tolist()) | {-1, 0, 1}))
    coeffs = np.zeros((len(stored) + 1, len(exps)))
    coeffs[np.searchsorted(stored, y), np.searchsorted(exps, z - y)] = np.abs(c)
    coeffs[-1, np.searchsorted(exps, [-1, 0, 1])] = (t.alpha_sup, t.diag_sup, t.beta_sup)

    def worst(t):
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


ONE_PASS_RADII = (12, 24, 28, 30, 48, 60)
# every section family, and the deformations that keep tail bounds: those of the trees
ONE_PASS_TABLES = [pytest.param(_section, name, R, id=f"{name}_R{R}")
                   for name in SCHUR_SECTIONS for R in ONE_PASS_RADII] + [
    pytest.param(_deformed_section, name, R, id=f"{name}_R{R}_voit")
    for name in ("tree_q2", "tree_q3") for R in ONE_PASS_RADII]


@pytest.mark.parametrize("build, name, radius", ONE_PASS_TABLES)
def test_schur_bound_keeps_its_iterates(build, name, radius):
    H = build(name, radius)
    assert H.tail is not None
    assert _schur_bound(H) == _schur_bound_before(H)


@pytest.mark.parametrize("build, name, radius", ONE_PASS_TABLES)
def test_chi0_candidate_and_grid_are_the_rows_of_separate_calls(build, name, radius):
    H = build(name, radius)
    top = _schur_bound(H)[0]
    values = np.append(top, np.linspace(-top, top, spectral.CHI0_SAMPLES))
    rows = solve_character(H, values)
    for v, row in zip(values, rows):
        assert row.tobytes() == solve_character(H, v).tobytes()


@pytest.mark.parametrize("build, name, radius", ONE_PASS_TABLES)
def test_deformation_shares_its_products_index(build, name, radius):
    # chi0 on H and the dual map on H0 read one index: H0 holds the arrays of H
    H = build(name, radius)
    pair = voit_deform(H)
    assert pair.deformed.view.products_once is H.view.products_once
    assert pair.deformed.view.px is H.view.px and pair.deformed.view.pair is H.view.pair
