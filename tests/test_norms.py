import numpy as np
import pytest

from hypharm import (
    HFunction,
    builders,
    characters,
    chi0,
    groups,
    norm_A,
    norm_Blambda,
    norm_MA,
    norm_Mcb_approx,
    voit_deform,
)
from hypharm.builders import FamilySpec, family, product, group_hypergroup
from hypharm.norms import (
    a_norm_interval,
    compute_norm_report,
    group_a_norm,
    ma_norm_interval,
    multiplication_matrix,
    product_a_norm,
)
from hypharm import convolve_functions, involute


@pytest.fixture(scope="module")
def conj_s3():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    return H, characters(H)


def test_norm_A_frozen_values(conj_s3):
    H, ct = conj_s3
    # characters have A-norm 1 (orthogonality forces a unit point mass)
    for i in range(3):
        val, wit = norm_A(H, ct, ct.chars[i])
        assert val == pytest.approx(1.0, abs=1e-12)
    # constant 1 and delta_e
    assert norm_A(H, ct, np.ones(3))[0] == pytest.approx(1.0, abs=1e-12)
    assert norm_A(H, ct, np.eye(3)[0])[0] == pytest.approx(1.0, abs=1e-12)
    # delta on the 3-cycle class: sum_chi w |2 conj chi(C2)| = 4/3
    assert norm_A(H, ct, np.eye(3)[2])[0] == pytest.approx(4 / 3, abs=1e-12)


def test_norm_A_witness_reproduces_u(conj_s3):
    H, ct = conj_s3
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val, wit = norm_A(H, ct, u)
        assert wit.product_error < 1e-10
        assert wit.value_error < 1e-9 * max(1.0, val)
        # independent recomputation through the convolution machinery
        prod = convolve_functions(H, wit.xi, involute(H, wit.eta))
        assert max(abs(prod[i] - u[i]) for i in range(3)) < 1e-10


def test_norm_Blambda_character_and_zero(conj_s3):
    H, ct = conj_s3
    for i in range(3):
        assert norm_Blambda(H, ct, ct.chars[i]) == pytest.approx(1.0, abs=1e-12)
    assert norm_Blambda(H, ct, np.zeros(3)) == 0.0


def test_regularity_character_products(finite_tables):
    # |chi1 chi2|_Blambda <= 1 with chi0 = 1 on every finite built-in
    for name, H in finite_tables.items():
        ct = characters(H)
        for i in range(ct.size):
            for j in range(ct.size):
                v = norm_Blambda(H, ct, ct.chars[i] * ct.chars[j])
                assert v <= 1.0 + 1e-9, name


def test_norm_MA_z2_closed_form():
    H = family(FamilySpec("cyclic", n=2))
    ct = characters(H)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u = a * ct.chars[0] + b * ct.chars[1]
        assert norm_MA(H, ct, u) == pytest.approx(abs(a) + abs(b), abs=1e-12)


def test_norm_MA_equals_Blambda_on_deltas(conj_s3):
    H, ct = conj_s3
    for x in range(3):
        u = np.eye(3)[x]
        assert norm_MA(H, ct, u) == pytest.approx(
            norm_Blambda(H, ct, u), abs=1e-10
        )


def test_norm_equality_theorem_random(finite_tables):
    rng = np.random.default_rng(99)
    for name, H in finite_tables.items():
        ct = characters(H)
        for _ in range(100):
            u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
            a, _ = norm_A(H, ct, u, with_witness=False)
            b = norm_Blambda(H, ct, u)
            ma = norm_MA(H, ct, u)
            scale = max(1.0, a)
            assert abs(a - b) < 1e-8 * scale, name
            assert abs(b - ma) < 1e-8 * scale, name


def test_norm_submultiplicative(finite_tables):
    rng = np.random.default_rng(4)
    for name, H in finite_tables.items():
        ct = characters(H)
        for _ in range(20):
            u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
            v = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
            auv = norm_A(H, ct, u * v, with_witness=False)[0]
            au = norm_A(H, ct, u, with_witness=False)[0]
            av = norm_A(H, ct, v, with_witness=False)[0]
            assert auv <= au * av + 1e-9, name


def test_norm_B_finite_flagged(conj_s3):
    H, ct = conj_s3
    u = np.array([0.3, -1.2, 0.9])
    rep = compute_norm_report(H, u, ct=ct)
    assert rep.norm_B == rep.norm_Blambda == norm_Blambda(H, ct, u)
    assert any("C*(H)=C*_lam(H) convention" in fl for fl in rep.flags)


# -- the Mcb supremum ---------------------------------------------------------


def test_group_a_norm_values():
    G = groups.symmetric(3)
    delta_e = np.eye(6)[G.identity]
    assert group_a_norm(G, delta_e) == pytest.approx(1.0, abs=1e-12)
    assert group_a_norm(G, np.ones(6)) == pytest.approx(1.0, abs=1e-12)


def test_product_a_norm_cross_norm(conj_s3):
    H, ct = conj_s3
    G = groups.dihedral4()
    rng = np.random.default_rng(8)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = np.outer(u, v)
    lhs = product_a_norm(H, ct, G, w)
    rhs = norm_A(H, ct, u, with_witness=False)[0] * group_a_norm(G, v)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_product_a_norm_matches_commutative_path(conj_s3):
    # for abelian G the block formula must agree with the plain character
    # computation on the product table
    H, ct = conj_s3
    G = groups.cyclic(3)
    K = product(H, group_hypergroup(G))
    ctk = characters(K)
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = product_a_norm(H, ct, G, w)
        rhs = norm_A(K, ctk, w.reshape(-1), with_witness=False)[0]
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_mcb_approx_equals_ma(conj_s3):
    H, ct = conj_s3
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ma = norm_MA(H, ct, u)
        val, per = norm_Mcb_approx(H, ct, u)
        assert set(per) == {"Z2", "S3", "D4"}
        for g, v in per.items():
            assert abs(v - ma) < 1e-8 * max(1.0, ma), g
        assert abs(val - ma) < 1e-8 * max(1.0, ma)


def test_mcb_delta_e_tensor_invariance(conj_s3):
    H, ct = conj_s3
    u = np.eye(3)[0]
    val, _ = norm_Mcb_approx(H, ct, u, groups=(groups.symmetric(3),))
    assert val == pytest.approx(norm_MA(H, ct, u), abs=1e-9)


# -- intervals on truncations --------------------------------------------------


def test_interval_sanity_tree():
    T = builders.tree_radial(2, 24)
    for u in (HFunction.delta(1), HFunction({0: 1.0, 2: -0.5})):
        iv = a_norm_interval(T, u)
        assert 0 <= iv.lower <= iv.upper
        ivb = compute_norm_report(T, u).norm_Blambda
        assert ivb.lower <= iv.upper
        ivm = ma_norm_interval(T, u)
        assert ivm.lower <= ivm.upper


def test_interval_contains_exact_value_on_finite_table(conj_s3):
    # cross-check the interval machinery against exact values where both run
    H, ct = conj_s3
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        exact = norm_A(H, ct, u, with_witness=False)[0]
        iv = a_norm_interval(H, u)
        assert iv.lower - 1e-10 <= exact <= iv.upper + 1e-10


def test_voit_isometry_intervals():
    # |u|_A(H) interval contains the |u/chi0|_A(H0) interval, and the
    # l2 upper bounds coincide exactly (the Voit map is an l2 isometry)
    T = builders.tree_radial(2, 40)
    c = chi0(T)
    H0 = voit_deform(T, c).deformed
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = HFunction(dict(enumerate(rng.standard_normal(6))))
        ud = np.zeros(41)
        for i, v in u.values.items():
            ud[i] = float(v)
        iv_H = a_norm_interval(T, ud)
        iv_H0 = a_norm_interval(H0, ud / c)
        assert iv_H.upper == pytest.approx(iv_H0.upper, rel=1e-12)
        assert iv_H.lower <= iv_H0.lower + 1e-9
    # remark item 1: |u|_A(H0) <= |u|_A(H) for u in both (upper bounds)
    for _ in range(10):
        u = rng.standard_normal(8)
        ud = np.zeros(41)
        ud[:8] = u
        assert a_norm_interval(H0, ud).upper <= a_norm_interval(T, ud).upper + 1e-9


def test_ma_invariance_intervals_overlap():
    # |phi|_MA(H) = |phi|_MA(H0): certified intervals must overlap
    T = builders.tree_radial(2, 40)
    c = chi0(T)
    H0 = voit_deform(T, c).deformed
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = np.zeros(41)
        u[:5] = rng.standard_normal(5)
        iv_H = ma_norm_interval(T, u)
        iv_H0 = ma_norm_interval(H0, u)
        assert iv_H.lower <= iv_H0.upper + 1e-9
        assert iv_H0.lower <= iv_H.upper + 1e-9


def test_norm_report_assembly(conj_s3):
    H, ct = conj_s3
    rep = compute_norm_report(H, np.array([1.0, 0.5, -0.25]), ct=ct, with_mcb=True)
    assert rep.finite
    assert rep.norm_Mcb == pytest.approx(rep.norm_MA, abs=1e-8)
    T = builders.tree_radial(2, 16)
    rep_t = compute_norm_report(T, HFunction.delta(1))
    assert not rep_t.finite
    assert rep_t.norm_A.lower <= rep_t.norm_A.upper


def test_multiplication_matrix_triv_column(conj_s3):
    # the column at the trivial character reproduces the Blambda norm
    H, ct = conj_s3
    rng = np.random.default_rng(44)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = multiplication_matrix(H, ct, u)
    col = np.sum(np.abs(m), axis=0)[ct.trivial_index]
    assert col == pytest.approx(norm_Blambda(H, ct, u), abs=1e-10)


BENCHMARK_GROUPS = ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")


@pytest.mark.parametrize("spec", [FamilySpec(fam, group=g) for g in BENCHMARK_GROUPS
                                  for fam in ("conj", "irr")]
                         + [FamilySpec("cyclic", n=16)],
                         ids=lambda spec: f"{spec.name}_{spec.group or spec.n}")
def test_conjugate_is_computed_once_per_table(spec):
    """``norm_Blambda`` conjugates its witness once, with no per-row search for
    the conjugate character, and the B_lambda norm of a character is 1."""
    H = family(spec)
    ct = characters(H)
    for u in ct.chars[:3]:
        assert norm_Blambda(H, ct, u) == pytest.approx(1.0, abs=1e-9)
