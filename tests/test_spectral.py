import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from hypharm import (
    HFunction,
    builders,
    characters,
    check_p2,
    chi0,
    fourier,
    groups,
    inverse_fourier,
    product_characters,
    solve_character,
    verify_axioms,
    voit_deform,
)
from hypharm.builders import FamilySpec, family
from hypharm.core import HypergroupTable
from hypharm.spectral import _schur_bound
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
    uhat = fourier(H, ct, HFunction.delta(0))
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
            err = max(abs(back[i] - u[i]) for i in range(H.size))
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
    H = HypergroupTable("broken", 3, [0, 1, 2], rows, haar=[1.0, 2.0, 2.0])
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
        characters(HypergroupTable("bad", 2, [0, 1], rows, haar=haar))


# -- product characters ---------------------------------------------------------


# the tables of the benchmark's amenability jobs, whose H x H get product characters
AMENABILITY_SPECS = [FamilySpec(f, group=g) for g in ("s3", "s4", "a4", "d4", "q8", "klein", "z5")
                     for f in ("conj", "irr")] + [FamilySpec("cyclic", n=n) for n in (3, 4, 5, 6)]


@pytest.mark.parametrize("spec", AMENABILITY_SPECS, ids=lambda s: f"{s.name}-{s.group or s.n}")
def test_product_characters_match_diagonalization(spec):
    H = family(spec)
    K = builders.product(H, H)
    for seed in (7, 12345):
        ct = characters(H, seed=seed)
        got, want = product_characters(K, ct, ct, seed=seed), characters(K, seed=seed)
        assert got.size == want.size == K.size
        assert (got.trivial_index, got.positive) == (want.trivial_index, want.positive)
        assert np.abs(got.chars - want.chars).max() < 1e-9
        assert np.abs(got.plancherel - want.plancherel).max() < 1e-9
        assert got.residual < 1e-9


def test_product_characters_of_distinct_factors():
    H1 = builders.irr_hypergroup(groups.dihedral4())
    H2 = builders.conjugacy_hypergroup(groups.quaternion8())
    K = builders.product(H1, H2)
    got = product_characters(K, characters(H1), characters(H2))
    assert np.abs(got.chars - characters(K).chars).max() < 1e-9
    with pytest.raises(DegenerateSpectrum):  # the factors in the wrong order
        product_characters(K, characters(H2), characters(H1))


def test_perturbed_factor_character_is_rejected():
    H = builders.conjugacy_hypergroup(groups.symmetric(4))
    K = builders.product(H, H)
    ct = characters(H)
    bad = copy.copy(ct)
    bad.chars = ct.chars.copy()
    bad.chars[2, 3] += 1e-6
    # the multiplicativity residual on K, not the hermitian check, rejects it
    verdict = r"residual 1\.\d\de-06, hermitian defect 0\.00e\+00"
    with pytest.raises(DegenerateSpectrum, match=verdict):
        product_characters(K, ct, bad)
    with pytest.raises(DegenerateSpectrum, match=verdict):
        product_characters(K, bad, ct)
    # each row a character, but one of them twice: Parseval rejects it
    twice = copy.copy(ct)
    twice.chars = ct.chars.copy()
    twice.chars[2] = ct.chars[1]
    with pytest.raises(DegenerateSpectrum, match="Parseval check failed"):
        product_characters(K, ct, twice)


def test_product_characters_need_a_matching_size():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    K = builders.product(H, H)
    Z2 = characters(family(FamilySpec("cyclic", n=2)))
    with pytest.raises(ValueError):
        product_characters(K, characters(H), Z2)


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


@pytest.mark.parametrize(
    "spec, closed_form",
    [
        (FamilySpec("tree_radial", q=2, radius=40), 2 * math.sqrt(2) / 3),
        (FamilySpec("tree_radial", q=3, radius=40), math.sqrt(3) / 2),
        (FamilySpec("suq2_fusion", q=Fraction(1, 2), radius=40), 0.8),
    ],
    ids=["tree_q2", "tree_q3", "suq2_half"],
)
def test_schur_bound_is_exact_upper_bound(spec, closed_form):
    H = family(spec)
    bound, r = _schur_bound(H)
    rq = Fraction(r)
    exact = max(sum(Fraction(c) * rq**k for k, c in row) for row in _schur_rows(H))
    assert Fraction(bound) >= exact
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
    stripped = HypergroupTable(
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
    pair = voit_deform(H, np.ones(3))
    assert pair.deformed.rows == H.rows
    assert pair.axiom_violation == 0.0


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.symmetric(4)],
                         ids=["s3", "s4"])
def test_voit_deform_finite_float_table(group):
    # a float table takes the finite branch that checks every dominated character
    H = builders.conjugacy_hypergroup(group)
    F = HypergroupTable(f"{H.name}_float", H.size, H.involution,
                        {k: [(z, float(c)) for z, c in row] for k, row in H.rows.items()})
    assert not F.exact
    pair = voit_deform(F, np.ones(F.size))
    assert pair.dual_map_residual < 1e-12
    assert pair.axiom_violation < 1e-12


def test_voit_deform_tree():
    T = builders.tree_radial(2, 40)
    c = chi0(T)
    pair = voit_deform(T, c)
    assert pair.axiom_violation < 1e-10
    assert dict(pair.deformed.row(1, 1))[0] == pytest.approx(3 / 8, abs=1e-12)
    lam = T.haar
    for n in range(41):
        assert pair.haar_deformed[n] == pytest.approx(
            c[n] ** 2 * float(lam[n]), abs=1e-10
        )
    rep = check_p2(pair.deformed)
    assert rep.status == "holds"
    assert verify_axioms(pair.deformed, tol=1e-10).passed
    # deformed characters are chi/chi0 for dominated chi (dual map residual)
    assert pair.dual_map_residual < 1e-8


def test_voit_deform_rejects_bad_chi():
    T = builders.tree_radial(2, 10)
    with pytest.raises(DominationFailure):
        voit_deform(T, np.full(11, 0.9))  # not multiplicative


def test_chi0_and_deform_on_quantum_d_table():
    # experiment hook: the quantum-dimension hypergroup of SU_q(2) at q < 1
    # fails (P2) (the weights [n]_q^2 grow too fast) and the deformation
    # restores it; no further claims are attached to this run
    Hd = builders.su2_fusion(40, q=Fraction(1, 2))
    rep = check_p2(Hd)
    assert rep.status == "fails"
    assert rep.cert_bound == pytest.approx(2 / 2.5, abs=1e-2)
    c = chi0(Hd)
    assert np.min(c) > 0
    pair = voit_deform(Hd, c)
    assert pair.axiom_violation < 1e-10
    assert check_p2(pair.deformed).status in ("holds", "inconclusive")
