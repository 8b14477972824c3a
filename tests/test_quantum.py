import dataclasses
import io
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from hypharm import builders, characters, groups, verify_axioms
from hypharm.cli import run
from hypharm.errors import FileFormatError, ReciprocityError
from hypharm.quantum import (
    CentralFunction,
    CentralMeasure,
    FusionRing,
    central_convolve,
    convolve_central_measures,
    group_fusion_ring,
    hat_map,
    hypergroup_d,
    hypergroup_n,
    inverse_hat_map,
    is_kac,
    load_fusion_ring,
    quantum_character_decomposition,
    save_fusion_ring,
    su2_fusion_ring,
    zl1_norm,
    zm_to_b,
)

GROUPS = ("s3", "z4", "d4", "q8")


def test_group_fusion_ring_s3():
    ring = group_fusion_ring(groups.symmetric(3))
    assert is_kac(ring)
    sigma = next(i for i, l in enumerate(ring.labels) if l.endswith("d2"))
    assert ring.N(sigma, sigma, sigma) == 1
    others = [i for i in range(3) if i != sigma]
    assert all(ring.N(sigma, sigma, g) == 1 for g in others)


def test_hypergroup_n_equals_irr_table(builtin_groups):
    for name, G in builtin_groups.items():
        ring = group_fusion_ring(G)
        Hn = hypergroup_n(ring)
        HI = builders.irr_hypergroup(G)
        assert Hn.rows == HI.rows, name
        assert Hn.haar == HI.haar, name


def _with_N(entries, triple, n):
    """The arrays ``entries`` with N set to ``n`` at ``triple``, added if it has no entry."""
    a, b, g, N = entries
    at = np.flatnonzero((a == triple[0]) & (b == triple[1]) & (g == triple[2]))
    if at.size:
        N = N.copy()
        N[at] = n
        return a, b, g, N
    return tuple(np.append(v, x) for v, x in zip(entries, (*triple, n)))


def _without_row(entries, a, b):
    """The arrays ``entries`` without the row ``(a, b)``."""
    keep = (entries[0] != a) | (entries[1] != b)
    return tuple(v[keep] for v in entries)


def _same_entries(R, S):
    return all(np.array_equal(u, v) for u, v in zip(R.entries, S.entries))


def test_ring_with_each_product_in_one_order_is_complete(tmp_path):
    # Irr(S3) given only its rows a <= b, built and through a file
    G = groups.symmetric(3)
    ring = group_fusion_ring(G)
    a, b, _, _ = ring.entries
    half = dataclasses.replace(ring, entries=tuple(v[a <= b] for v in ring.entries))
    half.validate()
    path = tmp_path / "half.fus"
    save_fusion_ring(half, str(path))
    HI = builders.irr_hypergroup(G)
    for FR in (half, load_fusion_ring(str(path))):
        assert FR.complete
        Hn = hypergroup_n(FR)
        assert not Hn.truncated and Hn.radius is None
        assert Hn.rows == HI.rows and Hn.haar == HI.haar
        assert np.allclose(characters(Hn).plancherel, characters(HI).plancherel)
    # one product given in neither order
    short = dataclasses.replace(half, entries=_without_row(half.entries, 1, 2))
    assert not short.complete
    assert hypergroup_n(short).truncated and hypergroup_n(short).radius == 3


def test_frobenius_reciprocity_validated():
    ring = group_fusion_ring(groups.quaternion8())
    ring.validate()
    two_dim = next(i for i, l in enumerate(ring.labels) if l.endswith("d2"))
    bad_entries = _with_N(ring.entries, (two_dim,) * 3, ring.N(two_dim, two_dim, two_dim) + 1)
    from hypharm.quantum import FusionRing

    bad = FusionRing(
        "bad", ring.labels, ring.trivial, ring.conjugate, bad_entries,
        ring.ndims, ring.ddims,
    )
    with pytest.raises(ReciprocityError):
        bad.validate()


def test_su2_ring_kac_and_tables():
    ring1 = su2_fusion_ring(10, q=1)
    assert is_kac(ring1)
    assert hypergroup_n(ring1).rows == hypergroup_d(ring1).rows

    ringq = su2_fusion_ring(12, q=Fraction(1, 2))
    assert not is_kac(ringq)
    assert float(ringq.ddims[1]) == 2.5
    Hd = hypergroup_d(ringq)
    row = dict(Hd.row(1, 1))
    assert row[0] == Fraction(4, 25) and row[2] == Fraction(21, 25)
    # the d-table agrees with the family builder (independent closed form)
    assert Hd.rows == builders.su2_fusion(12, q=Fraction(1, 2)).rows
    rep = verify_axioms(Hd, tol=1e-12)
    assert rep.passed


@pytest.mark.parametrize("q", [1, Fraction(1, 2), Fraction(2, 3), 0.7], ids=str)
def test_su2_ring_tables_are_the_family_tables(q):
    for R in (2, 5, 12, 16):
        ring = su2_fusion_ring(R, q=q)
        for H, K in ((hypergroup_d(ring), builders.su2_fusion(R, q=q)),
                     (hypergroup_n(ring), builders.su2_fusion(R))):
            V, W = H.view, K.view
            for name in ("px", "py", "starts", "x", "y", "z"):
                assert np.array_equal(getattr(V, name), getattr(W, name)), (R, name)
            assert V.c.tobytes() == W.c.tobytes(), R
            assert H.rows == K.rows and H.tail == K.tail and H.haar == K.haar, R


def test_rings_are_validated_once(monkeypatch):
    from hypharm.quantum import FusionRing

    calls = []
    validate = FusionRing.validate
    monkeypatch.setattr(FusionRing, "validate", lambda self: calls.append(validate(self)))
    for make in (lambda: su2_fusion_ring(8, q=Fraction(1, 2)),
                 lambda: group_fusion_ring(groups.symmetric(3))):
        ring = make()
        hypergroup_n(ring), hypergroup_d(ring), quantum_character_decomposition(ring, 1, 1)
    assert len(calls) == 2


def test_haar_of_d_table_is_inverse_diagonal():
    ring = su2_fusion_ring(12, q=Fraction(1, 2))
    Hd = hypergroup_d(ring)
    for b in range(6):
        assert Hd.haar[b] == 1 / dict(Hd.row(b, b))[0]


def test_quantum_character_decomposition():
    ring = su2_fusion_ring(10, q=Fraction(1, 2))
    assert quantum_character_decomposition(ring, 1, 1) == {0: 1, 2: 1}
    assert quantum_character_decomposition(ring, 0, 4) == {4: 1}
    ring_s3 = group_fusion_ring(groups.symmetric(3))
    sigma = next(i for i, l in enumerate(ring_s3.labels) if l.endswith("d2"))
    dec = quantum_character_decomposition(ring_s3, sigma, sigma)
    assert dec == {g: 1 for g in range(3)}


# -- hat map -------------------------------------------------------------------


def test_hat_map_spot_value_s3():
    G = groups.symmetric(3)
    data = builders.group_character_data(G)
    sigma = next(a for a, d in enumerate(data.dims) if d == 2)
    f = CentralFunction("S3", tuple(data.chars[sigma]))
    fh = hat_map(G, f)
    assert abs(complex(fh[sigma]) - 0.5) < 1e-9
    assert all(abs(complex(fh[a])) < 1e-9 for a in range(3) if a != sigma)
    assert zl1_norm(G, f) == pytest.approx(2 / 3, abs=1e-12)


def test_hat_map_point_mass_and_constant():
    G = groups.symmetric(3)
    k = len(G.conjugacy_classes())
    # f supported on {e} with value |G|: f^(alpha) = chi_alpha(e)/n_alpha = 1
    f = CentralFunction("S3", tuple([G.order] + [0] * (k - 1)))
    fh = hat_map(G, f)
    assert all(abs(complex(fh[a]) - 1) < 1e-9 for a in range(k))
    # f = 1: indicator of the trivial representation
    ones = CentralFunction("S3", tuple([1.0] * k))
    oh = hat_map(G, ones)
    nonzero = [a for a in range(k) if abs(complex(oh[a])) > 1e-9]
    assert nonzero == [0] and abs(complex(oh[0]) - 1) < 1e-9


@pytest.mark.parametrize("gname", GROUPS)
def test_hat_map_isometry_and_multiplicativity(gname):
    G = groups.get_group(gname)
    k = len(G.conjugacy_classes())
    rng = np.random.default_rng(hash(gname) % 2**31)
    table = builders.irr_hypergroup(G)
    from hypharm import norm_A

    ct = characters(table)
    for _ in range(50):
        f = CentralFunction(gname, tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        g = CentralFunction(gname, tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        fh = hat_map(G, f, verify=False)
        gh = hat_map(G, g, verify=False)
        # isometry
        a = norm_A(table, ct, np.array([complex(fh[i]) for i in range(k)]),
                   with_witness=False)[0]
        assert abs(zl1_norm(G, f) - a) < 1e-9 * max(1.0, a)
        # convolution -> pointwise product
        ch = hat_map(G, central_convolve(G, f, g), verify=False)
        err = max(
            abs(complex(ch[i]) - complex(fh[i]) * complex(gh[i])) for i in range(k)
        )
        assert err < 1e-9


def test_inverse_hat_map_roundtrip():
    G = groups.dihedral4()
    k = 5
    rng = np.random.default_rng(7)
    f = CentralFunction("D4", tuple(rng.standard_normal(k)))
    back = inverse_hat_map(G, hat_map(G, f, verify=False))
    assert max(abs(a - b) for a, b in zip(back.values, f.values)) < 1e-9


# -- central measures ------------------------------------------------------------


def test_zm_to_b_point_mass():
    G = groups.symmetric(3)
    mu = CentralMeasure("S3", (1, 0, 0))
    out = zm_to_b(G, mu)
    assert all(abs(complex(out[a]) - 1) < 1e-9 for a in range(3))


def test_zm_to_b_haar_gives_trivial_indicator():
    G = groups.symmetric(3)
    mu = CentralMeasure("S3", (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    out = zm_to_b(G, mu)
    vals = [complex(out[a]) for a in range(3)]
    assert abs(vals[0] - 1) < 1e-9
    assert all(abs(v) < 1e-9 for v in vals[1:])


def test_zm_to_b_class_multiplicativity():
    G = groups.symmetric(3)
    mu = CentralMeasure("S3", (0, 1.0, 0))  # uniform on the transpositions
    nu = CentralMeasure("S3", (0, 0, 1.0))
    conv = convolve_central_measures(G, mu, nu)
    lhs = zm_to_b(G, conv, verify=False)
    a = zm_to_b(G, mu)  # verify=True checks TV equality and squares
    b = zm_to_b(G, nu)
    for i in range(3):
        assert abs(complex(lhs[i]) - complex(a[i]) * complex(b[i])) < 1e-9


@pytest.mark.parametrize("gname", ("s3", "s4", "q8", "d4", "a4"))
def test_central_convolutions_match_the_group(gname):
    """Both central convolutions agree with their definitions on the elements of G."""
    G = groups.get_group(gname)
    classes = G.conjugacy_classes()
    cls_of = G.class_of()
    k = len(classes)
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    # (f * g)(x) = (1/|G|) sum_y f(y) g(y^-1 x)
    want = [sum(f[cls_of[y]] * g[cls_of[G.mul(G.inverse[y], cl[0])]] for y in range(G.order))
            / G.order for cl in classes]
    got = central_convolve(G, CentralFunction(gname, tuple(f)), CentralFunction(gname, tuple(g)))
    assert np.abs(np.array(got.values) - want).max() < 1e-13
    # mu * nu on class C: the mass of the products ab in C, mu and nu uniform on classes
    mu, nu = f.real, g
    want = np.zeros(k, dtype=complex)
    for a in range(G.order):
        for b in range(G.order):
            want[cls_of[G.mul(a, b)]] += (mu[cls_of[a]] / len(classes[cls_of[a]])
                                         * nu[cls_of[b]] / len(classes[cls_of[b]]))
    got = convolve_central_measures(G, CentralMeasure(gname, tuple(mu)),
                                    CentralMeasure(gname, tuple(nu)))
    assert np.abs(np.array(got.masses) - want).max() < 1e-13


# -- files -------------------------------------------------------------------------


def test_fusion_ring_roundtrip(tmp_path):
    ring = su2_fusion_ring(8, q=Fraction(1, 2))
    p = tmp_path / "ring.fus"
    save_fusion_ring(ring, str(p))
    back = load_fusion_ring(str(p))
    assert _same_entries(back, ring)
    assert back.ddims == ring.ddims
    assert back.q == ring.q


def test_fusion_ring_group_roundtrip(tmp_path):
    ring = group_fusion_ring(groups.symmetric(3))
    p = tmp_path / "s3.fus"
    save_fusion_ring(ring, str(p))
    back = load_fusion_ring(str(p))
    assert _same_entries(back, ring) and back.ndims == ring.ndims


def test_fusion_file_reciprocity_rejected(tmp_path):
    p = tmp_path / "bad.fus"
    p.write_text(
        "fusionring v1\n"
        "name bad\n"
        "labels a b\n"
        "trivial 0\n"
        "conj 0 1\n"
        "ndims 1 1\n"
        "ddims 1 1\n"
        "mult\n"
        "a a a 1\n"
        "a b b 1\n"
        "b a b 1\n"
        "b b a 1\n"
        "b b b 1\n"
        "end\n"
    )
    with pytest.raises(ReciprocityError):
        load_fusion_ring(str(p))


def test_ring_with_no_products_validates_and_has_no_table(tmp_path, capsys):
    # a ring of no stored product, whose table would be a section of radius 1
    none = np.zeros(0, dtype=np.int64)
    ring = FusionRing("empty", ("a",), 0, (0,), (none,) * 4, (1,), (Fraction(1),))
    ring.validate()
    assert not ring.complete and not ring.has_row(0, 0)
    with pytest.raises(ValueError, match="needs a radius"):
        hypergroup_n(ring)
    # its file, an empty mult block, is rejected at the mult line
    p = tmp_path / "empty.fus"
    p.write_text("fusionring v1\nlabels a\nndims 1\nconj 0\nmult\nend\n")
    with pytest.raises(FileFormatError, match="line 5: .*at least 2 labels"):
        load_fusion_ring(str(p))
    code = run(["quantum", "--fusion-file", str(p)])
    assert code == 2
    assert "line 5:" in capsys.readouterr().err


def test_fusion_file_parse_error_has_line(tmp_path):
    p = tmp_path / "bad2.fus"
    p.write_text("fusionring v1\nlabels a\nndims 1\nconj 0\nmult\na a a x\nend\n")
    with pytest.raises(FileFormatError) as exc:
        load_fusion_ring(str(p))
    assert "line 6" in str(exc.value)


def test_group_runs_compute_the_character_data_once():
    # one cache entry per group, whatever the seeds of the runs
    builders.group_character_data.cache_clear()
    for seed in range(1, 101):
        with redirect_stdout(io.StringIO()):
            assert run(["quantum", "--group", "s4", "--seed", str(seed),
                        "--format", "structured"]) == 0
    info = builders.group_character_data.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


# -- validation on arrays ------------------------------------------------------


def _validate_loop(ring):
    """Every row checked in turn: the order in which validate() must raise."""
    a, b, _, _ = ring.entries
    for row in dict.fromkeys(zip(a.tolist(), b.tolist())):
        ring._check_row(*row)


def _mutations():
    from hypharm.quantum import FusionRing

    def ring_with(base, change, **fields):
        kw = dict(name="m", labels=base.labels, trivial=base.trivial,
                  conjugate=base.conjugate, entries=change(base.entries), ndims=base.ndims,
                  ddims=base.ddims, q=base.q)
        kw.update(fields)
        return FusionRing(**kw)

    q8, su = group_fusion_ring(groups.quaternion8()), su2_fusion_ring(8, q=Fraction(2, 3))
    return {
        "bump": ring_with(q8, lambda e: _with_N(e, (4, 4, 4), q8.N(4, 4, 4) + 1)),
        "negative": ring_with(su, lambda e: _with_N(e, (0, 0, 0), -1)),
        "negative_late": ring_with(su, lambda e: _with_N(e, (1, 2, 1), -1)),
        "partner": ring_with(su, lambda e: _with_N(e, (2, 3, 2), 2)),
        # row (1, 1) stored with no mass at the trivial label
        "trivial": ring_with(q8, lambda e: _with_N(e, (1, 1, 0), 0)),
        "ddims": ring_with(su, lambda e: e,
                           ddims=su.ddims[:3] + (su.ddims[3] * (1 + Fraction(1, 10**6)),)
                           + su.ddims[4:]),
        "tiny_ddims": ring_with(su, lambda e: e,
                                ddims=su.ddims[:3] + (su.ddims[3] * (1 + Fraction(1, 10**12)),)
                                + su.ddims[4:]),
        "float_ddims": su2_fusion_ring(8, q=0.7),
        "missing_row": ring_with(su, lambda e: _without_row(e, 0, 1)),
    }


@pytest.mark.parametrize("name", sorted(_mutations()))
def test_validate_raises_what_the_row_loop_raises(name):
    ring = _mutations()[name]
    try:
        _validate_loop(ring)
    except ReciprocityError as exc:
        with pytest.raises(ReciprocityError) as got:
            ring.validate()
        assert str(got.value) == str(exc)
    else:
        ring.validate()


@pytest.mark.parametrize("make", [lambda: su2_fusion_ring(12, q=1),
                                  lambda: su2_fusion_ring(12, q=Fraction(1, 2)),
                                  lambda: su2_fusion_ring(12, q=0.7),
                                  lambda: group_fusion_ring(groups.quaternion8())],
                         ids=["su2", "suq2", "suq2-float", "irr-q8"])
def test_ring_tables_hold_the_index_of_the_ring(make):
    ring = make()
    R = ring.view
    for H in (hypergroup_n(ring), hypergroup_d(ring)):
        V = H.view
        for name in ("px", "py", "starts", "pair", "x", "y", "z", "has_row", "inv"):
            assert getattr(V, name) is getattr(R, name), (H.name, name)
        assert V.N is R.N or not V.rational
        # no table builds a checked-triple plan before something checks it
        assert "plan" not in vars(V) and "plan" not in vars(R)


def test_ring_view_is_its_multiplicities():
    ring = su2_fusion_ring(6, q=Fraction(1, 2))
    V = ring.view
    assert ring.view is V and V.rational and set(V.scales) == {1}
    assert V.commutative and tuple(V.inv.tolist()) == ring.conjugate
    # each product given once as a <= b, stored in both orders
    a, b, g, N = ring.entries
    assert len(V.z) == 2 * len(N) - np.count_nonzero(a == b)
    assert all(ring.N(y, x, z) == n == ring.N(x, y, z)
               for x, y, z, n in zip(a.tolist(), b.tolist(), g.tolist(), N.tolist()))
    with pytest.raises(KeyError):
        ring.N(3, 4, 0)  # 4 . 5 leaves the section of radius 6


def test_ring_view_rejects_what_no_commutative_ring_holds():
    from hypharm.quantum import FusionRing

    base = group_fusion_ring(groups.symmetric(3))
    a, b, g, N = base.entries
    sigma = next(i for i, l in enumerate(base.labels) if l.endswith("d2"))
    cases = {
        # the product (0, sigma) given again as (sigma, 0), with another row
        r"conflicting data for row \(0, \d\)": (
            (np.r_[a, sigma], np.r_[b, 0], np.r_[g, 0], np.r_[N, 1]), base.conjugate),
        "names support index": ((np.r_[a, a[:1]], np.r_[b, b[:1]], np.r_[g, g[:1]],
                                 np.r_[N, N[:1]]), base.conjugate),
        "not involutive": (base.entries, (1, 2, 0)),
    }
    for message, (entries, conjugate) in cases.items():
        ring = dataclasses.replace(base, entries=entries, conjugate=conjugate)
        with pytest.raises(ValueError, match=message):
            ring.validate()


def test_decomposition_builds_no_table(monkeypatch):
    rings = (su2_fusion_ring(10, q=Fraction(1, 2)), group_fusion_ring(groups.symmetric(3)))
    fail = lambda *a, **k: pytest.fail("built a table")
    monkeypatch.setattr("hypharm.quantum.hypergroup_d", fail)
    monkeypatch.setattr("hypharm.quantum.fusion_table", fail)
    assert quantum_character_decomposition(rings[0], 1, 1) == {0: 1, 2: 1}
    sigma = next(i for i, l in enumerate(rings[1].labels) if l.endswith("d2"))
    assert quantum_character_decomposition(rings[1], sigma, sigma) == {0: 1, 1: 1, 2: 1}
    with pytest.raises(KeyError):
        quantum_character_decomposition(rings[0], 9, 9)


def test_kac_tables_compare_their_entries():
    # the two tables of a ring hold its index and N, at the two dimensions as scales
    for q, same in ((1, True), (Fraction(1, 2), False)):
        ring = su2_fusion_ring(12, q=q)
        n, d = hypergroup_n(ring).view, hypergroup_d(ring).view
        assert n.z is d.z and n.N is d.N
        assert n.same_entries(d) == d.same_entries(n) == same


def test_hat_and_dual_maps_read_the_cached_irr_data(monkeypatch):
    G = groups.symmetric(4)
    builders.group_character_data(G).irr  # built once per group
    fail = lambda *a, **k: pytest.fail("recomputed per call")
    monkeypatch.setattr(builders, "irr_hypergroup", fail)
    monkeypatch.setattr("hypharm.spectral.characters", fail)
    rng = np.random.default_rng(5)
    k = len(builders.group_character_data(G).dims)
    zm_to_b(G, CentralMeasure(G.name, tuple(rng.random(k))))
    # the class sizes of ZL1 come from the cache too
    monkeypatch.setattr(type(G), "conjugacy_classes", fail)
    f = CentralFunction(G.name, tuple(rng.standard_normal(k)))
    hat_map(G, f)
    assert zl1_norm(G, f) > 0
