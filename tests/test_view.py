"""The array paths on ``HypergroupTable.view`` against Python loops.

``core._verify_axioms_loop`` and ``core._haar_defect_loop`` check the
axioms and the Haar identity by loops over the stored rows; they are the
exact path for tables whose numerators leave float64's exact range, and the
oracle here.  ``_residual_loop`` below is the multiplicativity residual as a
loop over the stored rows.
"""

import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypharm import builders, characters, chi0, voit_deform
from hypharm.builders import FamilySpec, family
from hypharm.core import (
    HypergroupTable,
    _haar_defect,
    _haar_defect_loop,
    _verify_axioms_loop,
    verify_axioms,
)
from hypharm.spectral import _multiplicativity_residual

GROUPS = ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")
PRODUCT_FACTORS = (("conj", "s3"), ("irr", "s3"), ("conj", "klein"), ("irr", "a4"),
                   ("irr", "d4"), ("conj", "q8"))
SECTIONS = {
    "tree2": FamilySpec("tree_radial", q=2),
    "tree3": FamilySpec("tree_radial", q=3),
    "su2": FamilySpec("su2_fusion"),
    "suq2": FamilySpec("suq2_fusion", q=Fraction(1, 2)),
}


def _builders():
    out = {}
    for g in GROUPS:
        for fam in ("conj", "irr"):
            out[f"{fam}_{g}"] = functools.partial(family, FamilySpec(fam, group=g))
    for n in range(2, 13):
        out[f"z{n}"] = functools.partial(family, FamilySpec("cyclic", n=n))
    for (f1, g1), (f2, g2) in itertools.islice(
            itertools.combinations_with_replacement(PRODUCT_FACTORS, 2), 0, None, 4):
        out[f"{f1}_{g1}x{f2}_{g2}"] = functools.partial(
            lambda a, b: builders.product(family(a), family(b)),
            FamilySpec(f1, group=g1), FamilySpec(f2, group=g2))
    for name, spec in SECTIONS.items():
        for r in (8, 12, 16):
            out[f"{name}_r{r}"] = functools.partial(
                family, FamilySpec(spec.name, q=spec.q, radius=r))
    for name in ("tree2", "suq2"):
        for r in (12, 20, 28):
            out[f"{name}_r{r}_voit"] = functools.partial(_deformed, name, r)
    return out


def _deformed(name, radius):
    spec = SECTIONS[name]
    H = family(FamilySpec(spec.name, q=spec.q, radius=radius))
    return voit_deform(H, chi0(H)).deformed


BUILDERS = _builders()


@functools.cache
def _table(name):
    return BUILDERS[name]()


def _assert_same_report(fast, slow, exact):
    assert fast.mode == slow.mode
    assert fast.triples_checked == slow.triples_checked
    assert fast.triples_skipped == slow.triples_skipped
    assert list(fast.checks) == list(slow.checks)
    for name, chk in slow.checks.items():
        assert fast.checks[name].passed == chk.passed, name
        if exact:
            assert fast.checks[name].violation == chk.violation, name
        else:
            assert fast.checks[name].violation == pytest.approx(chk.violation, abs=1e-14), name


def test_parity_covers_the_listed_tables():
    assert len(BUILDERS) >= 33
    assert sum("x" in k for k in BUILDERS) >= 4


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_verify_axioms_matches_loop(name):
    H = _table(name)
    _assert_same_report(verify_axioms(H), _verify_axioms_loop(H), H.exact)
    fast, slow = _haar_defect(H), _haar_defect_loop(H)
    if H.exact:
        assert fast == slow
    else:
        assert fast == pytest.approx(float(slow), abs=1e-14)


def _residual_loop(H, chi):
    worst = 0.0
    for (x, y), entries in H.rows.items():
        s = sum(float(c) * chi[z] for z, c in entries)
        worst = max(worst, abs(chi[x] * chi[y] - s))
    return worst


@pytest.mark.parametrize("name", sorted(k for k in BUILDERS if "_r" not in k))
def test_character_residual_matches_loop(name):
    H = _table(name)
    for chi in characters(H).chars:
        assert abs(_multiplicativity_residual(H, chi) - _residual_loop(H, chi)) <= 1e-14


@pytest.mark.parametrize("name", ["tree2_r20_voit", "suq2_r28_voit"])
def test_section_residual_matches_loop(name):
    H = _table(name)
    rng = np.random.default_rng(3)
    for _ in range(3):
        chi = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
        assert _multiplicativity_residual(H, chi) == pytest.approx(
            _residual_loop(H, chi), rel=1e-14)


def test_exact_bound_falls_back_to_loop():
    # suq2_fusion(q=1/2) has numerators far beyond sqrt(2**53 / (2 n))
    H = builders.su2_fusion(8, q=Fraction(1, 2))
    assert H.exact and H.view.exact() is None
    assert builders.su2_fusion(8).view.exact() is not None
    assert builders.tree_radial(2, 40).view.exact() is not None


# -- mutated exact tables: the violation path ------------------------------

MUTABLE = ("conj_s3", "irr_s4", "conj_d4", "z4", "conj_s3xirr_d4", "tree2_r8", "su2_r8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(MUTABLE),
    pick=st.integers(min_value=0),
    drop=st.booleans(),
    num=st.integers(-3, 3),
    den=st.integers(1, 6),
)
def test_mutated_table_flags_like_loop(name, pick, drop, num, den):
    base = _table(name)
    rows = {k: dict(v) for k, v in base.rows.items()}
    entries = [(k, z) for k, row in rows.items() for z in row]
    key, z = entries[pick % len(entries)]
    if drop:
        del rows[key][z]
    else:
        rows[key][z] = Fraction(num, den)
    H = HypergroupTable(
        "mutated", base.size, base.involution, {k: r.items() for k, r in rows.items()},
        identity=base.identity, haar=base.haar, commutative=base.commutative,
        truncated=base.truncated, radius=base.radius, generator=base.generator,
    )
    _assert_same_report(verify_axioms(H), _verify_axioms_loop(H), exact=True)
    assert _haar_defect(H) == _haar_defect_loop(H)


# -- memory ----------------------------------------------------------------


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_verify_axioms_memory_is_cubic():
    H = builders.tree_radial(2, 40)
    D = voit_deform(H, chi0(H)).deformed
    # a copy without the view voit_deform built, so that building it counts
    D = HypergroupTable(D.name, D.size, D.involution, D.rows, haar=D.haar,
                        truncated=True, radius=D.radius, generator=D.generator)
    n = D.size
    # no n**4 array and no second float n**3 tensor, view included
    assert _peak_bytes(verify_axioms, D) < 3 * 8 * n**3


def test_characters_memory_is_below_dense_matrices():
    H = family(FamilySpec("cyclic", n=96))
    n = H.size
    # below what n dense n x n structure matrices alone would take
    assert _peak_bytes(characters, H) < 8 * n**3
