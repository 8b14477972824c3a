import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypharm import (
    amenability,
    bai_from_p2,
    builders,
    characters,
    diagonal_psi,
    groups,
    indicator_diagonal,
    invert_multiplier,
    product_characters,
    restrict_to_diagonal,
    weak_amenability_witness,
)
from hypharm.amenability import (
    amenability_report,
    approximate_diagonal,
    on_diagonal,
    pair_index,
)
from hypharm.errors import P2Failure, TruncationOverflow, UnboundedValueSet, ZeroValue
from hypharm.norms import norm_A


@pytest.fixture(scope="module")
def conj_s3():
    return builders.conjugacy_hypergroup(groups.symmetric(3))


def test_diagonal_psi_values(conj_s3):
    psi = diagonal_psi(conj_s3)
    assert psi == (1, Fraction(1, 3), Fraction(1, 2))
    assert all(isinstance(v, Fraction) for v in psi)
    dense = on_diagonal(conj_s3, psi)
    assert dense[pair_index(conj_s3, 1, 1)] == 1 / 3
    assert dense[pair_index(conj_s3, 0, 1)] == 0
    assert np.count_nonzero(dense) == 3
    assert indicator_diagonal(conj_s3).psi_norm == pytest.approx(1.0, abs=1e-9)


def test_diagonal_psi_irr_s3():
    H = builders.irr_hypergroup(groups.symmetric(3))
    psi = diagonal_psi(H)
    assert sorted(float(v) for v in psi) == [0.25, 1.0, 1.0]


def test_diagonal_psi_group_case():
    H = builders.group_hypergroup(groups.cyclic(4))
    psi = diagonal_psi(H)
    assert psi == (1, 1, 1, 1)
    assert indicator_diagonal(H).psi_norm == pytest.approx(1.0, abs=1e-9)


def test_restrict_to_diagonal(conj_s3):
    # m(psi) gives psi's diagonal values back, exactly
    psi = [0] * 9
    for x, v in enumerate(diagonal_psi(conj_s3)):
        psi[pair_index(conj_s3, x, x)] = v
    assert restrict_to_diagonal(conj_s3, psi) == (1, Fraction(1, 3), Fraction(1, 2))
    # rho = u (x) v restricts to the pointwise product uv
    u = [2, -1, 3]
    v = [1, 5, -2]
    rho = np.outer(u, v).ravel()
    assert restrict_to_diagonal(conj_s3, rho) == tuple(u[x] * v[x] for x in range(3))
    assert restrict_to_diagonal(conj_s3, np.zeros(9)) == (0, 0, 0)
    with pytest.raises(ValueError):
        restrict_to_diagonal(conj_s3, np.zeros(3))


def test_invert_multiplier(conj_s3):
    ct = characters(conj_s3)
    phi = (1, Fraction(1, 3), Fraction(1, 2))
    inv = invert_multiplier(conj_s3, ct, phi)
    assert inv.values == (1, 3, 2)
    assert all(isinstance(v, Fraction) for v in inv.values)
    assert inv.value_set_size == 3
    assert np.isfinite(inv.ma_norm)


def test_invert_multiplier_zero(conj_s3):
    with pytest.raises(ZeroValue):
        invert_multiplier(conj_s3, None, (1, 0, 1))


def test_invert_multiplier_unbounded_value_set_warns():
    S = builders.su2_fusion(30)
    phi = tuple(1.0 / float(S.haar[i]) for i in range(S.size))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        invert_multiplier(S, None, phi)
    assert any(w.category is UnboundedValueSet for w in caught)


def test_indicator_diagonal_is_exact(finite_tables):
    for name, H in finite_tables.items():
        diag = indicator_diagonal(H)
        assert diag.pointwise_error == 0.0, name
        assert np.isfinite(diag.ma_norm), name
        assert diag.submultiplicative_slack >= -1e-9, name
        assert diag.one_delta == (1,) * H.size, name


def test_indicator_diagonal_carries_its_tables(conj_s3):
    diag = indicator_diagonal(conj_s3)
    assert diag.table is conj_s3
    assert diag.product_table.size == conj_s3.size ** 2
    assert diag.characters.size == conj_s3.size
    assert diag.product_characters.size == diag.product_table.size
    assert diag.phi == diagonal_psi(conj_s3) == (1, Fraction(1, 3), Fraction(1, 2))


def test_indicator_diagonal_z2_norm_one():
    H = builders.family(builders.FamilySpec("cyclic", n=2))
    diag = indicator_diagonal(H)
    assert diag.ma_norm == pytest.approx(1.0, abs=1e-9)


def test_approximate_diagonal(conj_s3):
    diag = indicator_diagonal(conj_s3)
    ad = approximate_diagonal(diag)
    assert ad.commutator_norm == 0.0
    assert all(r < 1e-9 for r in ad.identity_residuals)
    # with e = 1 the bound is |1_Delta|_A(HxH), here on a fresh character table
    ctk = characters(diag.product_table)
    one_delta = on_diagonal(conj_s3, diag.one_delta)
    want = norm_A(diag.product_table, ctk, one_delta, with_witness=False)[0]
    assert ad.bound == pytest.approx(want, rel=1e-9)


def test_approximate_diagonal_cyclic_bound_one():
    for n in (2, 3, 4, 6):
        H = builders.family(builders.FamilySpec("cyclic", n=n))
        ad = approximate_diagonal(indicator_diagonal(H))
        assert ad.bound == pytest.approx(1.0, abs=1e-9), n


def test_amenability_report_computes_each_table_once(conj_s3, monkeypatch):
    calls = {"characters": [], "product_characters": [], "product": 0}

    def counting_characters(H, *args, **kwargs):
        calls["characters"].append(H.size)
        return characters(H, *args, **kwargs)

    def counting_product_characters(K, *args, **kwargs):
        calls["product_characters"].append(K.size)
        return product_characters(K, *args, **kwargs)

    def counting_product(*args, **kwargs):
        calls["product"] += 1
        return builders.product(*args, **kwargs)

    monkeypatch.setattr(amenability, "characters", counting_characters)
    monkeypatch.setattr(amenability, "product_characters", counting_product_characters)
    monkeypatch.setattr(amenability, "product", counting_product)
    rep = amenability_report(conj_s3)
    # only H is diagonalized; the characters of H x H come from its own
    assert calls["characters"] == [3]
    assert calls["product_characters"] == [9]
    assert calls["product"] == 1
    assert rep.commutator_norm == 0.0


def test_weak_amenability_finite(finite_tables):
    for name, H in finite_tables.items():
        wa = weak_amenability_witness(H)
        assert wa.constant_bound == pytest.approx(1.0, abs=1e-9), name
        assert wa.entries[0].residuals["all"] == 0.0


def test_weak_amenability_tree():
    T = builders.tree_radial(2, 61)
    wa = weak_amenability_witness(T, radii=(5, 10, 20))
    assert wa.constant_bound <= 1 + 1e-6
    assert wa.residuals_decreasing
    res1 = [e.residuals["delta1"] for e in wa.entries]
    res2 = [e.residuals["delta2"] for e in wa.entries]
    assert res1 == sorted(res1, reverse=True) and res1[-1] < res1[0]
    assert res2 == sorted(res2, reverse=True)
    # delta0 residual is identically zero: e_alpha(0) = |xi|^2 = 1
    assert all(e.residuals["delta0"] < 1e-12 for e in wa.entries)
    # MA-norm invariance cross-check recorded on both sides
    for e in wa.entries:
        assert e.ma_interval_H.lower <= e.ma_bound + 1e-6
        assert e.ma_interval_H0.lower <= e.ma_bound + 1e-6


def test_weak_amenability_su2():
    S = builders.su2_fusion(61)
    wa = weak_amenability_witness(S, radii=(5, 10, 20))
    assert wa.constant_bound <= 1 + 1e-6
    assert wa.residuals_decreasing


def _bad_deformation(monkeypatch, **evidence):
    """Make :func:`voit_deform` report ``evidence`` in place of its own."""
    deform = amenability.voit_deform
    monkeypatch.setattr(amenability, "voit_deform",
                        lambda *a, **k: dataclasses.replace(deform(*a, **k), **evidence))


@pytest.mark.parametrize("evidence, message", [
    ({"axiom_violation": 2e-10}, r"tree_radial_q2_R24_voit: axiom violation 2\.00e-10 exceeds 1e-10"),
    ({"axiom_violation": float("nan")}, "axiom violation nan exceeds 1e-10"),
    ({"dual_map_residual": 2e-8}, r"dual map residual 2\.00e-08 exceeds 1e-08"),
], ids=["axioms", "nan", "dual-map"])
def test_weak_amenability_reads_the_deformation(monkeypatch, evidence, message):
    T = builders.tree_radial(2, 24)
    _bad_deformation(monkeypatch, **evidence)
    with pytest.raises(ArithmeticError, match=message):
        weak_amenability_witness(T, radii=(2, 4, 7))


def test_weak_amenability_accepts_evidence_at_its_bounds(monkeypatch):
    T = builders.tree_radial(2, 24)
    _bad_deformation(monkeypatch, axiom_violation=1e-10, dual_map_residual=1e-8)
    assert weak_amenability_witness(T, radii=(2, 4, 7)).constant_bound <= 1 + 1e-6


def test_weak_amenability_needs_room():
    with pytest.raises(TruncationOverflow):
        weak_amenability_witness(builders.tree_radial(2, 30), radii=(5, 10, 20))


@pytest.mark.parametrize("radii", [(), (-1,), (2, -3)])
def test_weak_amenability_rejects_bad_radii(radii):
    with pytest.raises(ValueError, match="radii"):
        weak_amenability_witness(builders.tree_radial(2, 24), radii=radii)


def test_bai_from_p2_finite(conj_s3):
    u = bai_from_p2(conj_s3, (0, 1, 2), 0.5)
    assert np.array_equal(u, np.ones(3))


def test_bai_from_p2_su2():
    S = builders.su2_fusion(40)
    u = bai_from_p2(S, (0, 1, 2), 0.1)
    assert all(abs(complex(u[x]) - 1) < 0.1 for x in (0, 1, 2))
    # positive definite with |u|_A <= 1 via the factorization bound
    assert complex(u[0]).real <= 1 + 1e-9


def test_bai_from_p2_tree_fails():
    with pytest.raises(P2Failure):
        bai_from_p2(builders.tree_radial(2, 30), (0, 1), 0.1)


def test_amenability_report_assembly(finite_tables):
    for name in ("conj_s3", "irr_q8", "irr_d4", "conj_a4"):
        rep = amenability_report(finite_tables[name])
        assert rep.p2_status == "holds"
        assert rep.commutator_norm == 0.0
        assert np.isfinite(rep.one_delta_ma_norm)
        assert rep.weak_amenability_bound <= 1 + 1e-6
        assert rep.submultiplicative_slack >= -1e-9


def test_weak_amenability_quantum_d_table():
    # the quantum-dimension SU_q(2) table fails (P2); the witness runs
    # through the full chi0 + deformation pipeline
    Hd = builders.su2_fusion(40, q=Fraction(1, 2))
    wa = weak_amenability_witness(Hd, radii=(4, 8, 12))
    assert wa.constant_bound <= 1 + 1e-6
    assert wa.residuals_decreasing
