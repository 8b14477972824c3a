from fractions import Fraction

import numpy as np
import pytest

from hypharm import (
    builders,
    characters,
    diagonal_norms,
    diagonal_psi,
    groups,
    norm_A,
    norm_Blambda,
    norm_MA,
    norm_Mcb_approx,
    voit_deform,
)
from hypharm.builders import FamilySpec, family, product, group_hypergroup
from hypharm.amenability import on_diagonal, weak_amenability_witness
from hypharm.errors import SingularCharacterBasis
from hypharm.norms import (
    Interval,
    NormReport,
    _phase,
    a_norm_interval,
    compute_norm_report,
    group_a_norm,
    ma_norm_interval,
    ma_norm_intervals,
    multiplication_matrix,
    l2_norm,
    product_a_norm,
)
from hypharm.spectral import _as_dense

from calculus import HFunction, convolve_functions, involute


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
        # independent recomputation through the exact convolution calculus
        xi, eta = HFunction(enumerate(wit.xi)), HFunction(enumerate(wit.eta))
        prod = convolve_functions(H, xi, involute(H, eta))
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
            assert NormReport(name, True, a, b, ma).passed(1e-8), name


@pytest.mark.parametrize("norms, passed", [
    ((2.0, 2.0 - 3e-9, 2.0 - 3e-9, None), True),
    ((2.0, 2.0 - 5e-9, 2.0 - 5e-9, None), False),
    ((2.0, 2.0, 2.0 - 5e-9, None), False),
    ((2.0, 2.0, 2.0, 2.0 + 3e-9), True),
    ((2.0, 2.0, 2.0, 2.0 + 5e-9), False),
    ((0.5, 0.5, 0.5 - 3e-9, None), False),
], ids=["within", "a-b", "b-ma", "mcb-within", "mcb-ma", "scale-at-least-one"])
def test_norm_report_passes_when_its_norms_agree(norms, passed):
    # each gap within tol * max(1, A), here 2e-9 * 2 = 4e-9 while A = 2
    a, b, ma, mcb = norms
    assert NormReport("t", True, a, b, ma, norm_Mcb=mcb).passed(2e-9) is passed


def test_truncated_norm_report_passes():
    iv = Interval(0.0, 5.0)
    assert NormReport("t", False, iv, iv, Interval(0.0, 1.0)).passed(0.0)


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


def test_norm_report_finite_blambda(conj_s3):
    H, ct = conj_s3
    u = np.array([0.3, -1.2, 0.9])
    rep = compute_norm_report(H, u, ct=ct)
    assert rep.norm_Blambda == norm_Blambda(H, ct, u)


# -- norms on H x H of functions on its diagonal --------------------------------


def test_diagonal_norms_match_the_product_table(finite_tables):
    # the oracle: H x H built and diagonalized, its norms taken as on any table
    tables = dict(finite_tables)
    tables.update({f"z{n}": family(FamilySpec("cyclic", n=n)) for n in range(2, 7)})
    tables["conj_s3 x irr_d4"] = product(builders.conjugacy_hypergroup(groups.symmetric(3)),
                                         builders.irr_hypergroup(groups.dihedral4()))
    rng = np.random.default_rng(2016)
    for name, H in tables.items():
        ct = characters(H)
        K = product(H, H)
        ctk = characters(K)
        noise = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
        for d in (diagonal_psi(H), np.ones(H.size), noise):
            u = on_diagonal(H, d)
            want = (norm_A(K, ctk, u)[0], norm_Blambda(K, ctk, u), norm_MA(K, ctk, u))
            assert diagonal_norms(H, ct, d) == pytest.approx(want, rel=1e-9), name


def test_diagonal_norms_need_the_characters_of_h(conj_s3):
    H, _ = conj_s3
    z2 = characters(family(FamilySpec("cyclic", n=2)))
    with pytest.raises(SingularCharacterBasis):
        diagonal_norms(H, z2, np.ones(H.size))


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
    for u in (np.eye(T.size)[1], np.array([1.0, 0, -0.5] + [0] * (T.size - 3))):
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
    pair = voit_deform(T)
    H0, c = pair.deformed, pair.chi0
    rng = np.random.default_rng(12)
    for _ in range(10):
        ud = np.zeros(41)
        ud[:6] = rng.standard_normal(6)
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
    H0 = voit_deform(T).deformed
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
    rep_t = compute_norm_report(T, np.eye(T.size)[1])
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


def test_mcb_products_are_built_once_per_group(monkeypatch):
    import hypharm.norms as norms_module

    H = builders.irr_hypergroup(groups.symmetric(3))
    ct = characters(H)
    built = []
    real = norms_module.characters
    monkeypatch.setattr(norms_module, "characters",
                        lambda K, **kw: built.append(K.name) or real(K, **kw))
    products = {}
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = rng.standard_normal(H.size)
        rep = compute_norm_report(H, u, ct=ct, with_mcb=True, products=products)
        assert rep.norm_Mcb == pytest.approx(rep.norm_MA, abs=1e-8)
    # Z2 is the one abelian default group: one product table and one diagonalization
    assert len(built) == 1 and len(products) == 1


# -- the batched intervals against the per-function loop -----------------------


def _a_norm_interval_loop(H, u):
    """``a_norm_interval`` of one function, one candidate dual at a time."""
    ud = _as_dense(H, u)
    lam = H.lam
    cands = []
    phase = np.conj(_phase(ud)) * (np.abs(ud) > 0)
    if np.any(np.abs(phase) > 0):
        cands.append(phase)
    for x in np.nonzero(np.abs(ud) > 0)[0][:8]:
        d = np.zeros(H.size, dtype=complex)
        d[x] = 1.0
        cands.append(d)
    lower = 0.0
    for f in cands:
        pair = abs(complex(np.sum(lam * ud * f)))
        denom = float(np.sum(lam * np.abs(f)))
        if denom > 0:
            lower = max(lower, pair / denom)
    return Interval(lower, l2_norm(H, ud))


def _ma_norm_interval_loop(H, u):
    """``ma_norm_interval`` of one function against delta_e and delta_generator."""
    ud = _as_dense(H, u)
    upper = min(l2_norm(H, ud), float(np.sum(np.abs(ud) * np.sqrt(H.lam))))
    lower = 0.0
    for v in np.eye(H.size)[[H.identity, H.generator]]:
        vd = _as_dense(H, v)
        num = _a_norm_interval_loop(H, ud * vd).lower
        den = _a_norm_interval_loop(H, vd).upper
        if den > 0:
            lower = max(lower, num / den)
    return Interval(lower, upper)


def _same_bits(got, want):
    return all(type(g) is float and np.float64(g).tobytes() == np.float64(w).tobytes()
               for g, w in zip((got.lower, got.upper), (want.lower, want.upper)))


@pytest.mark.parametrize("spec", [FamilySpec("tree_radial", q=2), FamilySpec("tree_radial", q=3),
                                  FamilySpec("su2_fusion"),
                                  FamilySpec("suq2_fusion", q=Fraction(1, 2))],
                         ids=lambda spec: f"{spec.name}_{spec.q}")
@pytest.mark.parametrize("radius, radii", [(24, (2, 4, 7)), (30, (3, 6, 9))])
def test_batched_intervals_equal_the_loop_bit_for_bit(spec, radius, radii):
    # the witness's functions on H and on its deformation H0, two random
    # complex functions as ``norms --random`` draws them, and a function whose
    # largest value sits at the ninth point of its support, which no delta
    # candidate takes
    H = family(FamilySpec(spec.name, q=spec.q, radius=radius))
    H0 = voit_deform(H).deformed
    deltas = np.eye(H.size)[:3]
    rng = np.random.default_rng(radius)
    randoms = [rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size) for _ in range(2)]
    randoms.append(np.r_[np.ones(8), 1e3, np.zeros(H.size - 9)])
    for entry in weak_amenability_witness(H, radii).entries:
        e = entry.e_alpha
        residuals = [u * e - u for u in deltas]
        (iv,), upper = ma_norm_intervals(H, [e], more=residuals)
        assert _same_bits(iv, _ma_norm_interval_loop(H, e))
        assert _same_bits(iv, entry.ma_interval_H)
        assert upper == [_a_norm_interval_loop(H, r).upper for r in residuals]
        assert upper == list(entry.residuals.values())
        (iv0,), _ = ma_norm_intervals(H0, [e])
        assert _same_bits(iv0, _ma_norm_interval_loop(H0, e))
        for T in (H, H0):
            for u in [e, e * deltas[0], e * deltas[1]] + residuals + randoms:
                assert _same_bits(a_norm_interval(T, u), _a_norm_interval_loop(T, u))
                assert _same_bits(ma_norm_interval(T, u), _ma_norm_interval_loop(T, u))


def test_batched_intervals_of_functions_that_are_not_finite():
    # a value that is not finite pairs every delta to NaN, which no bound takes
    T = builders.tree_radial(2, 12)
    for bad in (np.nan, np.inf, complex(1, np.inf)):
        u = np.zeros(T.size, dtype=complex)
        u[:4] = [1.0, -2.0, bad, 0.5j]
        with np.errstate(all="ignore"):
            got, want = a_norm_interval(T, u), _a_norm_interval_loop(T, u)
        assert np.float64(got.lower).tobytes() == np.float64(want.lower).tobytes()
        assert np.float64(got.upper).tobytes() == np.float64(want.upper).tobytes()
