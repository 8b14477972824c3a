from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypharm import (
    builders,
    convolve,
    groups,
    haar_weights,
    load_table,
    save_table,
    verify_axioms,
    voit_deform,
)
from hypharm.errors import (
    FileFormatError,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    ReciprocityError,
    TruncationOverflow,
    ZeroDiagonal,
)
from hypharm.quantum import (
    group_fusion_ring,
    hypergroup_d,
    hypergroup_n,
    load_fusion_ring,
    save_fusion_ring,
    su2_fusion_ring,
)
from hypharm.core import HypergroupTable

from calculus import (HFunction, convolve_functions, convolve_point, involute, l1_norm,
                      translate)
from conftest import brute_force_class_products


@pytest.fixture(scope="module")
def conj_s3():
    return builders.conjugacy_hypergroup(groups.symmetric(3))


def test_convolve_point_conj_s3(conj_s3):
    # brute force over the 36 products in the S3 Cayley table
    oracle = brute_force_class_products(groups.symmetric(3))
    got = convolve_point(conj_s3, 1, 1)
    assert got[0] == oracle[(1, 1)][0] == Fraction(1, 3)
    assert got[2] == oracle[(1, 1)][2] == Fraction(2, 3)
    assert got[1] == 0


def test_convolve_point_identity_row(conj_s3):
    for x in range(3):
        assert convolve_point(conj_s3, 0, x) == HFunction.delta(x)


def test_convolve_point_irr_s3():
    # sigma.sigma from the S3 character table: triv + sgn + sigma with
    # weights d_gamma / 4
    H = builders.irr_hypergroup(groups.symmetric(3))
    sigma = next(i for i, lab in enumerate(H.elements) if lab.endswith("d2"))
    row = dict(convolve_point(H, sigma, sigma).values)
    others = [i for i in range(3) if i != sigma]
    assert row[sigma] == Fraction(1, 2)
    assert all(row[i] == Fraction(1, 4) for i in others)


def test_convolve_functions_identity(conj_s3):
    g = HFunction({0: 2.0, 1: -1.5, 2: 0.25})
    assert convolve_functions(conj_s3, HFunction.delta(0), g) == g


def test_convolve_functions_z2_group_case():
    H = builders.family(builders.FamilySpec("cyclic", n=2))
    out = convolve_functions(H, HFunction.delta(1), HFunction.delta(1))
    assert out == HFunction.delta(0)


def test_convolve_functions_conj_s3_class_indicators(conj_s3):
    # oracle: 1_{C1} * 1_{C1} in the group algebra of S3 has class values
    # (3, 0, 3) (each pair of transpositions multiplies to e or a 3-cycle)
    out = convolve_functions(conj_s3, HFunction.delta(1), HFunction.delta(1))
    assert out == HFunction({0: Fraction(3), 2: Fraction(3)})


def test_convolve_functions_matches_group_algebra(conj_s3):
    # ZL1(S3) with counting-measure convolution <-> l1(Conj(S3), lam)
    G = groups.symmetric(3)
    classes = G.conjugacy_classes()
    cls_of = G.class_of()
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        F = [f[cls_of[x]] for x in range(6)]
        Gg = [g[cls_of[x]] for x in range(6)]
        conv = [
            sum(F[a] * Gg[G.mul(G.inverse[a], x)] for a in range(6))
            for x in range(6)
        ]
        got = convolve_functions(conj_s3, HFunction(dict(enumerate(f))),
                                 HFunction(dict(enumerate(g))))
        for k, cl in enumerate(classes):
            assert abs(complex(got[k]) - conv[cl[0]]) < 1e-12


CONVOLVE_TABLES = {
    **{f"{fam}_{g}": (lambda fam=fam, g=g: builders.family(
        builders.FamilySpec(fam, group=g)))
       for g in ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")
       for fam in ("conj", "irr")},
    "cyclic_16": lambda: builders.family(builders.FamilySpec("cyclic", n=16)),
    "cyclic_96": lambda: builders.family(builders.FamilySpec("cyclic", n=96)),
    "irr_d4_x_conj_q8": lambda: builders.product(
        builders.irr_hypergroup(groups.dihedral4()),
        builders.conjugacy_hypergroup(groups.quaternion8())),
    "tree_radial_2_30": lambda: builders.tree_radial(2, 30),
}


@pytest.mark.parametrize("name", sorted(CONVOLVE_TABLES))
def test_convolve_matches_exact_calculus(name):
    """The array convolution reproduces convolve_functions within 1e-13 of the scale."""
    H = CONVOLVE_TABLES[name]()
    rng = np.random.default_rng(5)
    # on a section, supports in the ball of half its radius keep products stored
    m = H.radius // 2 + 1 if H.truncated else H.size
    for _ in range(3):
        f, g = np.zeros((2, H.size), dtype=complex)
        f[:m], g[:m] = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        f[rng.integers(m)] = 0
        want = convolve_functions(H, HFunction(enumerate(f)), HFunction(enumerate(g)))
        want = np.array([complex(want[x]) for x in range(H.size)])
        got = convolve(H, f, g)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), name
    # real inputs give a real result
    assert convolve(H, f.real, g.real).dtype == float


def test_l1_contraction_random():
    rng = np.random.default_rng(11)
    tables = [
        builders.conjugacy_hypergroup(groups.symmetric(3)),
        builders.irr_hypergroup(groups.dihedral4()),
        builders.tree_radial(2, 16),
        builders.su2_fusion(16),
    ]
    for H in tables:
        m = min(H.size, 5)
        for _ in range(100):
            f = HFunction(dict(enumerate(rng.standard_normal(m))))
            g = HFunction(dict(enumerate(rng.standard_normal(m))))
            prod = convolve_functions(H, f, g)
            assert l1_norm(H, prod) <= l1_norm(H, f) * l1_norm(H, g) + 1e-9


def test_convolution_commutative_associative_exact(conj_s3):
    fs = [
        HFunction({0: Fraction(1), 1: Fraction(-2)}),
        HFunction({1: Fraction(1, 3), 2: Fraction(5)}),
        HFunction({0: Fraction(2), 2: Fraction(-1, 7)}),
    ]
    f, g, h = fs
    assert convolve_functions(conj_s3, f, g) == convolve_functions(conj_s3, g, f)
    left = convolve_functions(conj_s3, convolve_functions(conj_s3, f, g), h)
    right = convolve_functions(conj_s3, f, convolve_functions(conj_s3, g, h))
    assert left == right


def test_translate(conj_s3):
    assert translate(conj_s3, 0, HFunction({1: 3.5, 2: 1.0})) == HFunction(
        {1: 3.5, 2: 1.0}
    )
    # L_{C1} delta_{C0}(y) = c^{C0}_{C1,y}: 1/3 at y = C1
    out = translate(conj_s3, 1, HFunction.delta(0))
    assert out == HFunction({1: Fraction(1, 3)})


def test_translate_tree_radial():
    T = builders.tree_radial(2, 8)
    out = translate(T, 1, HFunction.delta(0))
    assert out == HFunction({1: Fraction(1, 3)})


def test_involute():
    # symmetric table, real function: fixed
    T = builders.tree_radial(2, 6)
    f = HFunction({0: 1.0, 3: -2.0})
    assert involute(T, f) == f
    # group case: conjugate-reversed vector
    H = builders.family(builders.FamilySpec("cyclic", n=3))
    f = HFunction({1: 1 + 2j, 2: -1j})
    out = involute(H, f)
    assert out == HFunction({2: 1 - 2j, 1: 1j})
    assert involute(H, HFunction.delta(1)) == HFunction.delta(2)


def test_verify_axioms_all_pass_exact(conj_s3):
    rep = verify_axioms(conj_s3)
    assert rep.passed and rep.commutative
    assert all(chk.violation == 0.0 for chk in rep.checks.values())


def test_verify_axioms_detects_bad_row():
    rows = {
        (0, 0): [(0, Fraction(1))],
        (0, 1): [(1, Fraction(1))],
        (1, 1): [(0, Fraction(9, 10))],
    }
    H = HypergroupTable.from_rows("bad", 2, [0, 1], rows, haar=[1, 1])
    rep = verify_axioms(H)
    assert not rep.checks["probability"].passed
    assert rep.checks["probability"].violation == pytest.approx(0.1)


def test_verify_axioms_suq2_section():
    H = builders.su2_fusion(12, q=Fraction(1, 2))
    rep = verify_axioms(H, tol=1e-12)
    assert rep.passed
    assert rep.triples_checked > 0


def test_noncommutative_group_table_is_still_hypergroup():
    H = builders.group_hypergroup(groups.symmetric(3))
    rep = verify_axioms(H)
    assert rep.passed
    assert not rep.commutative


def test_haar_weights(conj_s3, builtin_groups):
    assert haar_weights(conj_s3) == (1, 3, 2)
    HI = builders.irr_hypergroup(groups.symmetric(3))
    assert sorted(haar_weights(HI)) == [1, 1, 4]
    for name in ("z4", "s3", "q8"):
        H = builders.group_hypergroup(builtin_groups[name])
        assert all(v == 1 for v in haar_weights(H))


def test_haar_invariance_identity_checked():
    # identity: lam(y) c^z_{x,y} = lam(z) c^y_{x~,z} on all stored triples
    for H in (
        builders.conjugacy_hypergroup(groups.alternating(4)),
        builders.irr_hypergroup(groups.quaternion8()),
        builders.tree_radial(3, 10),
    ):
        haar_weights(H)  # raises on violation


def test_haar_zero_diagonal():
    rows = {
        (0, 0): [(0, 1.0)],
        (0, 1): [(1, 1.0)],
        (1, 1): [(1, 1.0)],  # support law broken: no mass at e
    }
    H = HypergroupTable.from_rows("nozero", 2, [0, 1], rows)
    with pytest.raises(ZeroDiagonal):
        _ = H.haar


@pytest.mark.parametrize("weight", [0, -384])
def test_haar_weights_are_positive(weight):
    # no stored triple of the section constrains the weight of its boundary point 8
    T = builders.tree_radial(2, 8)
    H = HypergroupTable.from_rows(T.name, T.size, T.involution, T.rows,
                                  haar=T.haar[:-1] + (weight,), truncated=True,
                                  radius=T.radius, tail=T.tail, generator=T.generator)
    with pytest.raises(ZeroDiagonal, match=rf"lam\(8\) = {weight} is not > 0"):
        haar_weights(H)


def test_truncation_overflow():
    T = builders.tree_radial(2, 8)
    with pytest.raises(TruncationOverflow):
        convolve_point(T, 5, 6)
    with pytest.raises(TruncationOverflow):
        convolve_functions(T, HFunction.delta(5), HFunction.delta(6))
    delta = np.eye(T.size)
    with pytest.raises(TruncationOverflow, match="5.6"):
        convolve(T, delta[5], delta[6] + delta[1])
    # inside the section the two calculi agree
    assert np.allclose(convolve(T, delta[5], delta[3]),
                       [float(convolve_functions(T, HFunction.delta(5), HFunction.delta(3))[x])
                        for x in range(T.size)], rtol=0, atol=1e-15)
    with pytest.raises(IndexError):
        convolve_point(T, 0, 99)


@pytest.mark.parametrize("radius", [None, 1, 8])
def test_section_needs_a_radius_up_to_its_size(radius):
    # the rule load_table applies to a file: 2 <= R <= size
    T = builders.tree_radial(2, 6)
    with pytest.raises(ValueError, match=f"2 <= R <= 7, got {radius}"):
        HypergroupTable.from_rows("tree", T.size, T.involution, T.rows, haar=T.haar,
                                  truncated=True, radius=radius)
    for ok in (2, 7):
        assert HypergroupTable.from_rows("tree", T.size, T.involution, T.rows, haar=T.haar,
                                         truncated=True, radius=ok).radius == ok


def test_every_section_builder_keeps_a_radius_within_its_size(tmp_path):
    tables = [builders.tree_radial(2, 2), builders.su2_fusion(2), builders.su2_fusion(12, 0.5)]
    tables += [voit_deform(T).deformed for T in tables[:2]]
    ring = su2_fusion_ring(8, Fraction(1, 2))
    tables += [hypergroup_n(ring), hypergroup_d(ring)]
    for T in tables:
        assert T.truncated and 2 <= T.radius <= T.size
        p = tmp_path / "section.hyp"
        save_table(T, str(p))
        assert f"radius {T.radius}\n" in p.read_text() and load_table(str(p)).radius == T.radius


def test_table_file_roundtrip_rational(tmp_path, conj_s3):
    p = tmp_path / "conj_s3.hyp"
    save_table(conj_s3, str(p))
    back = load_table(str(p))
    assert back.rows == conj_s3.rows
    assert back.haar == conj_s3.haar
    assert back.involution == conj_s3.involution
    # bit-exact round trip in rational mode
    p2 = tmp_path / "again.hyp"
    save_table(back, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_table_file_roundtrip_truncated_float(tmp_path):
    D = voit_deform(builders.tree_radial(2, 10)).deformed
    p = tmp_path / "deformed.hyp"
    save_table(D, str(p))
    back = load_table(str(p))
    assert back.rows == D.rows
    assert back.tail == D.tail
    assert back.radius == D.radius and back.truncated


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.hyp"
    p.write_text("not a header\n")
    with pytest.raises(FileFormatError):
        load_table(str(p))


# -- loader fuzzing -------------------------------------------------------------


def _saved(save, obj, path):
    save(obj, str(path))
    return path.read_text()


@pytest.fixture(scope="module")
def loader_cases(tmp_path_factory):
    """Per loader: the loader, the errors it may raise and valid seed files."""
    d = tmp_path_factory.mktemp("seeds")
    return {
        "table": (load_table, (FileFormatError,), [
            _saved(save_table, builders.conjugacy_hypergroup(groups.symmetric(3)), d / "a"),
            _saved(save_table, builders.tree_radial(2, 4), d / "b"),
        ]),
        "group": (groups.load_group,
                  (FileFormatError, NotLatinSquare, NoIdentity, NotAssociative), [
            _saved(groups.save_group, groups.symmetric(3), d / "c"),
        ]),
        "ring": (load_fusion_ring, (FileFormatError, ReciprocityError), [
            _saved(save_fusion_ring, group_fusion_ring(groups.symmetric(3)), d / "d"),
            _saved(save_fusion_ring, su2_fusion_ring(4, q=Fraction(1, 2)), d / "e"),
        ]),
    }


_ODD_TOKENS = ["#", "-1", "0", "1", "2", "99", "1/0", "1/2", "x", "nan", "inf", "1e400"]


def _mutants(seed: str):
    """Files made of the seed's first line plus a mix of its lines and junk."""
    lines = seed.splitlines()
    vocab = sorted({t for line in lines for t in line.split()}) + _ODD_TOKENS
    junk = st.lists(st.sampled_from(vocab), max_size=6).map(" ".join)
    body = st.lists(st.one_of(st.sampled_from(lines), junk), max_size=len(lines) + 3)
    edit = st.tuples(st.integers(0, len(lines)), junk, st.booleans()).map(
        lambda e: lines[: e[0]] + [e[1]] + lines[e[0] + (1 if e[2] else 0):]
    )
    return st.one_of(body.map(lambda b: [lines[0], *b]), edit).map(
        lambda ls: "\n".join(ls) + "\n"
    )


@pytest.mark.parametrize("kind", ["table", "group", "ring"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loaders_fail_only_with_their_own_errors(loader_cases, tmp_path_factory, kind, data):
    # any text either loads or raises FileFormatError; well-formed files may
    # instead fail the object's own validation
    load, allowed, seeds = loader_cases[kind]
    seed = data.draw(st.sampled_from(seeds))
    text = data.draw(st.one_of(st.text(), _mutants(seed)))
    p = tmp_path_factory.getbasetemp() / f"fuzz_{kind}.txt"
    p.write_text(text)
    try:
        load(str(p))
    except allowed:
        pass
