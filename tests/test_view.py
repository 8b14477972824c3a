"""The array paths on ``HypergroupTable.view`` against Python loops.

``_verify_axioms_loop`` and ``_haar_defect_loop`` below check the axioms
and the Haar identity by loops over the stored rows, in Fractions for an
exact table; they are the oracle here.  ``_residual_loop`` is the
multiplicativity residual as a loop over the stored rows, and
``_associativity_per_x`` the dense associativity pass with its mask built
for one x at a time and its defects taken over whole slabs.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypharm import (builders, characters, core, groups, haar_weights, quantum, spectral, view,
                     voit_deform)
from hypharm.builders import FamilySpec, family
from hypharm.core import (
    DEFAULT_TOL,
    AxiomCheck,
    AxiomReport,
    HypergroupTable,
    TruncationOverflow,
    _haar_defect,
    verify_axioms,
)
from hypharm.spectral import _multiplicativity_residual
from hypharm.view import TableView, axiom_defects

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
    return voit_deform(H).deformed


BUILDERS = _builders()


# -- the loop oracles ---------------------------------------------------------


def _iter_pairs(H: HypergroupTable):
    """Every stored product (x, y), commutative ones in both orders."""
    for (x, y) in H.rows:
        yield x, y
        if H.commutative and x != y:
            yield y, x


def _verify_axioms_loop(H: HypergroupTable, tol: float = DEFAULT_TOL) -> AxiomReport:
    """``verify_axioms`` by Python loops over the stored Fraction or float rows."""
    report = AxiomReport(H.name, "rational" if H.exact else "float", tol)
    e = H.identity

    viol = 0
    for x, y in _iter_pairs(H):
        row = H.row(x, y)
        s = sum(v for _, v in row)
        viol = max(viol, abs(s - 1), max((abs(min(v, 0)) for _, v in row), default=0))
    report.checks["probability"] = AxiomCheck(float(viol) <= tol, float(viol))

    viol = 0
    if not H.commutative:
        for (x, y) in list(H.rows):
            if H.has_row(y, x):
                a = dict(H.row(x, y))
                b = dict(H.row(y, x))
                for z in set(a) | set(b):
                    viol = max(viol, abs(a.get(z, 0) - b.get(z, 0)))
    report.checks["commutativity"] = AxiomCheck(float(viol) <= tol, float(viol))

    viol = 0
    for x in range(H.size):
        if H.has_row(e, x):
            d = dict(H.row(e, x))
            viol = max(viol, abs(d.get(x, 0) - 1))
            viol = max(viol, sum(abs(v) for z, v in d.items() if z != x))
        if not H.commutative and H.has_row(x, e):
            d = dict(H.row(x, e))
            viol = max(viol, abs(d.get(x, 0) - 1))
            viol = max(viol, sum(abs(v) for z, v in d.items() if z != x))
    report.checks["identity"] = AxiomCheck(float(viol) <= tol, float(viol))

    # involution anti-homomorphism: c^z_{x,y} = c^{z~}_{y~,x~}
    viol = 0
    for x, y in _iter_pairs(H):
        xi, yi = H.involution[x], H.involution[y]
        if not H.has_row(yi, xi):
            continue
        mirror = dict(H.row(yi, xi))
        for z, v in H.row(x, y):
            viol = max(viol, abs(v - mirror.get(H.involution[z], 0)))
    report.checks["involution"] = AxiomCheck(float(viol) <= tol, float(viol))

    # support law: e in supp(x.y) iff y = x~
    viol = 0
    for x, y in _iter_pairs(H):
        ce = dict(H.row(x, y)).get(e, 0)
        if y == H.involution[x]:
            if ce <= 0:
                viol = max(viol, 1.0)
        else:
            viol = max(viol, abs(ce))
    report.checks["support"] = AxiomCheck(float(viol) <= tol, float(viol))

    # associativity of the measure algebra on all triples inside the section
    viol = 0
    checked = skipped = 0
    for x in range(H.size):
        for y in range(H.size):
            if not H.has_row(x, y):
                skipped += H.size
                continue
            for z in range(H.size):
                try:
                    left: dict[int, Value] = {}
                    for w, c in H.row(x, y):
                        for v, c2 in H.row(w, z):
                            left[v] = left.get(v, 0) + c * c2
                    right: dict[int, Value] = {}
                    for w, c in H.row(y, z):
                        for v, c2 in H.row(x, w):
                            right[v] = right.get(v, 0) + c * c2
                except TruncationOverflow:
                    skipped += 1
                    continue
                checked += 1
                for v in set(left) | set(right):
                    viol = max(viol, abs(left.get(v, 0) - right.get(v, 0)))
    report.checks["associativity"] = AxiomCheck(float(viol) <= tol, float(viol))
    report.triples_checked = checked
    report.triples_skipped = skipped
    return report

def _associativity_per_x(V: TableView, C: np.ndarray, p: np.ndarray | None) -> tuple:
    """``view._associativity`` with the mask of checked triples built per block of x.

    A block is the x of one slab; a section's block takes the span of y and
    z that holds its checked triples, and its defects are taken over the
    whole slab, then masked to the checked triples.
    """
    n, lead = V.n, C.shape[:-3]
    left_of = C.reshape(lead + (1, n, n * n))
    missing = ~V.has_row
    gaps = missing.astype(float) if missing.any() else None
    if gaps is not None:
        stored = np.zeros((n, n, n), dtype=bool)
        stored[V.x, V.y, V.z] = True
    rows = max(1, max(n**3 // 4, view.SLAB_FLOOR) // (n * n * math.prod(lead)))
    step, span = max(1, rows // n), min(rows, n)
    worst, checked, flagged = 0.0, 0, [np.empty((0, 3), dtype=np.int64)]
    for x0 in range(0, n, step):
        xs = slice(x0, min(x0 + step, n))
        ok = V.has_row[xs, :, None] & V.has_row
        if gaps is not None:
            ok &= stored[xs].astype(float) @ gaps == 0
            k = ok.shape[0]
            bad = np.bincount((np.arange(k)[:, None] * len(V.px) + V.pair).ravel(),
                              weights=gaps[xs][:, V.z].ravel(), minlength=k * len(V.px))
            b, q = np.divmod(np.flatnonzero(bad), len(V.px))
            ok[b, V.px[q], V.py[q]] = False
        checked += int(ok.sum())
        ys = np.flatnonzero(ok.any(axis=(0, 2)))
        if not ys.size:
            continue
        for lo in range(ys[0], ys[-1] + 1, span):
            hi = min(lo + span, ys[-1] + 1)
            z0, z1 = 0, n
            if gaps is not None:
                zs = np.flatnonzero(ok[:, lo:hi].any(axis=(0, 1)))
                if not zs.size:
                    continue
                z0, z1 = zs[0], zs[-1] + 1
            diff = C[..., xs, lo:hi, :] @ left_of[..., z0 * n:z1 * n]
            diff -= (C[..., lo:hi, z0:z1, :].reshape(lead + (1, -1, n))
                     @ C[..., xs, :, :]).reshape(diff.shape)
            diff = view._defect(diff, p).reshape(diff.shape[:-1] + (z1 - z0, n)).max(axis=-1)
            if gaps is not None:
                diff[..., ~ok[:, lo:hi, z0:z1]] = 0
            top = diff.max()
            worst = view._worst(worst, top)
            if top and V.rational:
                hit = diff.reshape((-1,) + diff.shape[-3:]).max(axis=0)
                flagged.append(np.argwhere(hit > 0) + (x0, lo, z0))
    return worst, checked, np.concatenate(flagged)


def _haar_defect_loop(H: HypergroupTable):
    """Largest |lam(y) c^z_{x,y} - lam(z) c^y_{x~,z}|, by Python loops.

    Of a float table or float weights, each defect is divided by the larger
    of 1 and its two terms' absolute values.
    """
    lam = H.haar
    exact = H.exact and all(isinstance(v, (Fraction, int)) for v in lam)
    worst = 0
    for x, y in _iter_pairs(H):
        xi = H.involution[x]
        for z, c in H.row(x, y):
            if not H.has_row(xi, z):
                continue
            left, right = lam[y] * c, lam[z] * dict(H.row(xi, z)).get(y, 0)
            d = abs(left - right)
            worst = max(worst, d if exact else d / max(1, abs(left), abs(right)))
    return worst


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


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_associativity_does_not_depend_on_the_slab(name, monkeypatch):
    # the slabs of the SLAB_FLOOR against those of the former floor of 4096
    # values and against blocks of a quarter of C
    H = _table(name)
    V = H.view
    if H.exact:  # the float64 pass on N
        assert not _beyond_float64(V)
    C = V.dense(V.N.astype(float) if H.exact else V.c)
    want = view._associativity(V, C, None)
    for floor in (4096, 1):
        monkeypatch.setattr(view, "SLAB_FLOOR", floor)
        got = view._associativity(V, C, None)
        assert got[1] == want[1]
        if H.exact:
            assert got[0] == want[0]
        else:
            assert got[0] == pytest.approx(want[0], abs=1e-15)


def _residual_loop(H, chi):
    worst = 0.0
    for (x, y), entries in H.rows.items():
        s = sum(float(c) * chi[z] for z, c in entries)
        worst = max(worst, abs(chi[x] * chi[y] - s))
    return worst


def _residual_both_orders(H, chi):
    """The multiplicativity residual over every stored product, each order of a
    commutative one included, in blocks of ``spectral.RESIDUAL_BATCH`` values."""
    V, chis = H.view, np.atleast_2d(chi)
    filled = V.starts[:-1] < V.starts[1:]
    cols = slice(None) if filled.all() else filled
    step = max(1, spectral.RESIDUAL_BATCH // max(1, len(V.z)))
    worst = 0.0
    for lo in range(0, len(chis), step):
        block = chis[lo:lo + step]
        d = block[:, V.px] * block[:, V.py]
        if filled.any():
            d[:, cols] -= np.add.reduceat(V.c * block[:, V.z], V.starts[:-1][filled], axis=1)
        worst = max(worst, float(np.abs(d).max(initial=0.0)))
    return worst


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_residual_of_each_product_once_equals_both_orders(name):
    # a commutative table's sums are taken once, against both orders of
    # chi(x) chi(y); the characters are compared apart from random functions,
    # whose O(1) residuals would hide a moved bit of theirs, and one by one
    H = _table(name)
    rng = np.random.default_rng(5)
    chis = rng.standard_normal((4, H.size)) + 1j * rng.standard_normal((4, H.size))
    sets = [chis] if H.truncated else [chis, characters(H).chars]
    for block in sets + list(sets[-1]):
        got = _multiplicativity_residual(H, block)
        assert np.float64(got).tobytes() == np.float64(_residual_both_orders(H, block)).tobytes()
    for chi in chis[:2]:
        assert _multiplicativity_residual(H, chi) == pytest.approx(
            _residual_loop(H, chi), rel=1e-14, abs=1e-14)


def test_residual_peaks_no_higher_than_both_orders():
    # the view holds its index of each product once, which characters(H)
    # has built, so the peak is that of the sums alone
    H = family(FamilySpec("cyclic", n=96))
    chis = characters(H).chars
    got = _peak_bytes(_multiplicativity_residual, H, chis)
    assert got <= _peak_bytes(_residual_both_orders, H, chis)


def test_products_once_index_the_products_with_x_at_most_y():
    V = _table("suq2_r12").view
    px, py, entries, starts = V.products_once
    assert (px <= py).all() and (V.pair[entries] == np.repeat(
        np.flatnonzero(V.px <= V.py), np.diff(starts))).all()
    assert len(px) == np.count_nonzero(V.px <= V.py) == len(starts) - 1


@pytest.mark.parametrize("make", [
    lambda: family(FamilySpec("tree_radial", q=2, radius=24)),
    lambda: _float_copy(family(FamilySpec("conj", group="s4"))),
], ids=["tree2_r24", "conj_s4_float"])
def test_products_once_is_built_once_per_index(monkeypatch, make):
    # the residual of chi0 on H builds the index, and the deformed view, on
    # the index arrays of H, reads it for the dual map's residual
    H = make()
    build, built = vars(TableView)["products_once"].func, []
    counted = functools.cached_property(lambda V: built.append(V) or build(V))
    counted.__set_name__(TableView, "products_once")
    monkeypatch.setattr(TableView, "products_once", counted)
    H0 = voit_deform(H).deformed
    assert H0.view.products_once is H.view.products_once
    assert built == [H.view]


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


def _checked_without_rows(H, tol=DEFAULT_TOL):
    """``verify_axioms`` and the Haar defect of ``H``, asserting that no Fraction row was read."""
    assert H._read == {} and H._rows is None
    report, haar = verify_axioms(H, tol), _haar_defect(H)
    assert H._read == {} and H._rows is None, f"{H.name} read a Fraction row"
    return report, haar


def _sizes_nothing(monkeypatch):
    """Make the exact checks fail when they size an entry or a triple: a valid table flags none."""
    for name in ("_values", "_triple_defect"):
        def sized(V, flagged, *args, size=getattr(view, name)):
            assert not len(flagged), f"{len(flagged)} entries or triples flagged"
            return size(V, flagged, *args)

        monkeypatch.setattr(view, name, sized)


def _beyond_float64(V):
    """True if associativity on the view's N leaves float64's exact range."""
    return 2 * V.n * view.max_abs(V.N) ** 2 > view.EXACT_FLOAT


def _from_rows(H):
    """``H`` built again from its Fraction rows: N over their common denominator D, every s = D."""
    return HypergroupTable.from_rows(H.name, H.size, H.involution, H.rows, identity=H.identity,
                                     haar=H.haar, commutative=H.commutative,
                                     truncated=H.truncated, radius=H.radius,
                                     generator=H.generator)


def test_exact_bound_runs_modulo_primes(monkeypatch):
    # from its rows, suq2_fusion(8, q=1/2) has N far beyond sqrt(2**53 / (2 n));
    # as a section its N is 1
    H = _from_rows(builders.su2_fusion(8, q=Fraction(1, 2)))
    assert H.exact and len(set(H.view.scales)) == 1 and _beyond_float64(H.view)
    assert not _beyond_float64(builders.su2_fusion(8, q=Fraction(1, 2)).view)
    assert not _beyond_float64(builders.tree_radial(2, 40).view)
    assert _beyond_float64(builders.tree_radial(2, 61).view)
    heights = []
    crt_primes = view.crt_primes
    monkeypatch.setattr(view, "crt_primes", lambda n, h: heights.append(h) or crt_primes(n, h))
    fast, haar = _checked_without_rows(H)
    assert heights == [2 * H.size * view.max_abs(H.view.N) ** 2]
    _assert_same_report(fast, _verify_axioms_loop(H), exact=True)
    assert haar == 0


@pytest.mark.parametrize("build", [
    lambda: builders.su2_fusion(16),
    lambda: builders.su2_fusion(16, q=Fraction(1, 2)),
    lambda: quantum.hypergroup_d(quantum.su2_fusion_ring(16, q=Fraction(2, 3))),
    lambda: builders.tree_radial(2, 61),
], ids=["su2_r16", "suq2_r16", "d_q2/3_r16", "tree2_r61"])
def test_valid_tables_over_the_bound_skip_the_loops(build, monkeypatch):
    # the numerators of c over one denominator (N of the table from its rows)
    # are beyond float64's exact range; the checks run on N and the scales
    assert _beyond_float64(_from_rows(build()).view)
    H = build()
    _sizes_nothing(monkeypatch)
    rep, haar = _checked_without_rows(H)
    assert haar == 0
    assert rep.passed and all(chk.violation == 0 for chk in rep.checks.values())
    assert rep.triples_checked + rep.triples_skipped == H.size**3
    assert haar_weights(H) == H.haar


def test_residues_find_a_tiny_defect():
    # a mass of 10**-30 moved between two points of one row: exact row sums,
    # broken associativity far below every float tolerance
    base = _table("suq2_r16")
    rows = {k: dict(v) for k, v in base.rows.items()}
    row = rows[(3, 5)]
    a, b = sorted(row)[:2]
    row[a] += Fraction(1, 10**30)
    row[b] -= Fraction(1, 10**30)
    H = HypergroupTable.from_rows("nudged", base.size, base.involution,
                                  {k: r.items() for k, r in rows.items()}, haar=base.haar,
                                  truncated=True, radius=base.radius, generator=base.generator)
    assert _beyond_float64(H.view)
    fast, haar = _checked_without_rows(H)
    _assert_same_report(fast, _verify_axioms_loop(H), exact=True)
    assert 0 < fast.checks["associativity"].violation < 1e-25
    assert haar == _haar_defect_loop(H) > 0


# -- mutated exact tables: the violation path ------------------------------

# su2_r16 and suq2_r8 are beyond the float64 bound: they run modulo primes
MUTABLE = ("conj_s3", "irr_s4", "conj_d4", "z4", "conj_s3xirr_d4", "tree2_r8", "su2_r8",
           "su2_r16", "suq2_r8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(MUTABLE),
    pick=st.integers(min_value=0),
    drop=st.booleans(),
    num=st.integers(-3, 3),
    den=st.integers(1, 6),
)
def test_mutated_table_flags_like_loop(name, pick, drop, num, den):
    H = _mutated(_table(name), pick, None if drop else Fraction(num, den))
    fast, haar = _checked_without_rows(H)
    _assert_same_report(fast, _verify_axioms_loop(H), exact=True)
    assert haar == _haar_defect_loop(H)


def _mutated(base, pick, value):
    """``base`` from its rows with entry ``pick`` set to ``value``, or dropped if None."""
    rows = {k: dict(v) for k, v in base.rows.items()}
    entries = [(k, z) for k, row in rows.items() for z in row]
    key, z = entries[pick % len(entries)]
    if value is None:
        del rows[key][z]
    else:
        rows[key][z] = value
    return HypergroupTable.from_rows(
        "mutated", base.size, base.involution, {k: r.items() for k, r in rows.items()},
        identity=base.identity, haar=base.haar, commutative=base.commutative,
        truncated=base.truncated, radius=base.radius, generator=base.generator,
    )


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
    D = voit_deform(H).deformed
    rows = D.rows

    def build_and_verify():
        # a copy built from the rows, so that building its view counts
        verify_axioms(HypergroupTable.from_rows(D.name, D.size, D.involution, rows,
                                                haar=D.haar, truncated=True, radius=D.radius,
                                                generator=D.generator))

    n = D.size
    # no n**4 array and no second float n**3 tensor, view included
    assert _peak_bytes(build_and_verify) < 3 * 8 * n**3


def test_product_check_memory_is_below_the_cube():
    # Z20 x Z20 has 400 points: its dense map of entry indices alone took
    # 4 n**3 bytes, its dense associativity pass 8 n**3 per array
    Z20 = family(FamilySpec("cyclic", n=20))
    n = Z20.size**2
    assert _peak_bytes(lambda: verify_axioms(builders.product(Z20, Z20))) < n**3


def test_exact_product_holds_n_once():
    V = family(FamilySpec("cyclic", n=20)).view
    K = TableView.product(V, V)

    def build(k):
        kept = [TableView.product(V, V) for _ in range(k)]  # noqa: F841 (held to the end)

    # what each product keeps, without the temporaries of one build: x, y, z,
    # pair, starts, px and py in int32, N in int64 and has_row (one product
    # per entry here) make 37 bytes per entry; N held twice made 49, and
    # starts in int64 41
    per_product = (_peak_bytes(build, 4) - _peak_bytes(build, 1)) / 3
    assert per_product < 45 * len(K.z)


def test_product_build_peak_is_near_what_it_keeps():
    # Z40 x Z40 has 2.56 million entries and keeps 37 bytes per entry (see
    # above) at a peak of 45; its int64 per-entry temporaries and a second
    # copy of ``pair`` made a peak of 129 bytes per entry
    V = family(FamilySpec("cyclic", n=40)).view
    entries = (V.n * V.n) ** 2
    assert _peak_bytes(TableView.product, V, V) < 56 * entries


def _view_bytes(V):
    """The bytes of every array a view holds, in its attributes or their tuples.

    ``c`` and ``keys``, cached on first use, are left out.
    """
    held = [v for k, v in vars(V).items() if k not in ("c", "keys")]
    held += [a for v in held if isinstance(v, tuple) for a in v]
    return sum(a.nbytes for a in held if isinstance(a, np.ndarray))


def test_view_holds_one_array_per_value():
    H = family(FamilySpec("cyclic", n=96))
    V = H.view
    V.c  # noqa: B018 (cached, and not counted)
    # Z96 has 9,216 entries: x, y, z, pair, px and py in int32, N in int64,
    # starts in int32 and has_row make 37 bytes per entry, with inv and the
    # scales 342,916 bytes; a second copy of N, x, y and z for the 4,656
    # products given once and an int64 map from the entries to them took
    # 166,848 bytes more, and starts in int64 36,868 more.  The index of
    # each product once, built by the first residual and then held, adds
    # px, py and starts in int32 and an intp index per entry for its 4,656
    # products x <= y: 93,124 bytes
    _multiplicativity_residual(H, characters(H).chars)
    assert _view_bytes(V) == 342_916 + 93_124


def test_characters_memory_is_below_dense_matrices():
    H = family(FamilySpec("cyclic", n=96))
    n = H.size
    # below what n dense n x n structure matrices alone would take
    assert _peak_bytes(characters, H) < 8 * n**3


# -- tables given their entries ---------------------------------------------


def _z3_entries():
    # Z3 as a commutative table, each product once: x . y = x + y mod 3
    x, y = np.triu_indices(3)
    return x, y, (x + y) % 3


@pytest.mark.parametrize("change, message", [
    (lambda x, y, z, v, s: (x + 3, y, z, v, s), r"row index \(3, 0\) out of range"),
    (lambda x, y, z, v, s: (x, y, z - 1, v, s), r"support index -1 out of range in row \(0, 0\)"),
    (lambda x, y, z, v, s: (x, y, z, v, [1, 0, 1]), "3 nonzero scales"),
    (lambda x, y, z, v, s: (np.r_[x, 0], np.r_[y, 0], np.r_[z, 0], np.r_[v, 1], s),
     r"row \(0, 0\) names support index 0 twice"),
    # (2, 1) names the product (1, 2) again, with another row
    (lambda x, y, z, v, s: (np.r_[x, 2], np.r_[y, 1], np.r_[z, 1], np.r_[v, 1], s),
     r"conflicting data for row \(1, 2\)"),
    (lambda x, y, z, v, s: (x, y, z, np.r_[v, 1], s), "7 values for 6 entries"),
    # rows of a 2-point table, which go through the same checks
    ({(0, 0): [(0, 1)], (0, 1): [(1, Fraction(1, 2)), (1, Fraction(1, 2))], (1, 1): [(0, 1)]},
     r"row \(0, 1\) names support index 1 twice"),
    ({(0, 0): [(0, 1), (5, 0)], (0, 1): [(1, 1)], (1, 1): [(0, 1)]},
     r"support index 5 out of range in row \(0, 0\)"),
    # the size, identity and involution of the Z3 entries
    ((0, 0, []), "size must be positive"),
    ((3, 3, [0, 2, 1]), "identity index out of range"),
    ((3, 0, [0, 2, 2]), "involution is not a permutation"),
    ((3, 0, [1, 2, 0]), "involution is not involutive"),
], ids=["row-index", "support-index", "zero-scale", "repeated-entry", "conflicting-orders",
        "value-count", "rows-repeated-entry", "rows-zero-out-of-range", "size", "identity",
        "permutation", "involutive"])
def test_entries_are_checked(change, message):
    if isinstance(change, dict):
        with pytest.raises(ValueError, match=message):
            HypergroupTable.from_rows("z2", 2, [0, 1], change)
        return
    head = (3, 0, [0, 2, 1])
    if isinstance(change, tuple):
        head, change = change, lambda *entries: entries
    x, y, z = _z3_entries()
    x, y, z, value, scale = change(x, y, z, np.ones(len(x), dtype=np.int64), [1] * 3)
    with pytest.raises(ValueError, match=message):
        TableView(*head, True, x, y, z, value, scale=scale)


def test_products_given_in_both_orders_build_the_once_ordered_view():
    # each product (y, x) repeats (x, y), the first also with a zero entry, which is dropped
    V = builders.tree_radial(2, 28).view
    head = (V.n, V.identity, V.inv, True)
    once = V.x <= V.y
    want = TableView(*head, V.x[once], V.y[once], V.z[once], V.N[once], scale=V.scales)
    zero = ([1], [0], [5], [0])
    got = TableView(*head, *(np.r_[a, extra] for a, extra in zip((V.x, V.y, V.z, V.N), zero)),
                    scale=V.scales)
    assert (V.x > V.y).any()
    for name in ("x", "y", "z", "N", "px", "py", "starts", "pair", "has_row"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_entries_of_float_tables_must_be_finite():
    x, y, z = _z3_entries()
    c = np.ones(len(x))
    c[2] = np.nan
    with pytest.raises(ValueError, match=r"must be finite, got nan in row \(0, 2\)"):
        TableView(3, 0, [0, 2, 1], True, x, y, z, c)


@pytest.mark.parametrize("name", ["tree2_r16", "tree3_r16", "su2_r16", "suq2_r12"])
def test_deformed_view_shares_the_index_arrays_of_its_base(name):
    H = _table(name)
    D = voit_deform(H).deformed
    V, W = H.view, D.view
    for attr in view._INDEX:
        if attr in vars(V):
            assert getattr(W, attr) is getattr(V, attr), attr
    assert not W.rational and W.factors is None and not W.c.flags.writeable
    # the view the constructor builds of the deformed entries, x <= y
    once = V.x <= V.y
    built = TableView(V.n, V.identity, V.inv, True, V.x[once], V.y[once], V.z[once], W.c[once])
    for attr in ("px", "py", "starts", "pair", "x", "y", "z", "has_row", "inv"):
        assert np.array_equal(getattr(W, attr), getattr(built, attr)), attr
    assert W.c.tobytes() == built.c.tobytes()


def test_reweighted_values_must_be_finite_like_the_entries():
    x, y, z = _z3_entries()
    V = TableView(3, 0, [0, 2, 1], True, x, y, z, np.ones(len(x)))
    c = np.ones(len(V.z))
    c[[5, 7]] = np.inf  # the entries of 1.2 and of its mirror 2.1
    once = V.x <= V.y
    for build in (lambda: V.reweighted(c),
                  lambda: TableView(3, 0, V.inv, True, V.x[once], V.y[once], V.z[once], c[once])):
        with pytest.raises(ValueError, match=r"must be finite, got inf in row \(1, 2\)$"):
            build()


@pytest.mark.parametrize("scale", [[1, 2, 3], [Fraction(1, 2), 5, Fraction(-7, 3)],
                                   [1.0, 2.5, 0.1], [1, 2.5, Fraction(1, 3)], [3**40, 1, 2]],
                         ids=["ints", "fractions", "floats", "mixed", "big"])
def test_rescaled_view_is_the_view_at_those_scales(scale):
    x, y, z = _z3_entries()
    N = np.arange(1, len(x) + 1, dtype=np.int64)
    V = TableView(3, 0, [0, 2, 1], True, x, y, z, N, scale=[1] * 3)
    W = V.rescaled(scale)
    if all(isinstance(s, (int, Fraction)) for s in scale):
        built = TableView(3, 0, [0, 2, 1], True, x, y, z, N, scale=scale)
        assert W.rational and W.scales == built.scales and W.N is V.N
        assert W._scale[0].dtype == built._scale[0].dtype
    else:
        s = np.array([float(v) for v in scale])
        built = TableView(3, 0, [0, 2, 1], True, x, y, z, s[z] * N / (s[x] * s[y]))
        assert not W.rational
    assert W.same_entries(built) and W.c.tobytes() == built.c.tobytes()
    for attr in ("px", "py", "starts", "pair", "x", "y", "z", "has_row", "inv"):
        assert getattr(W, attr) is getattr(V, attr), attr
    assert W.factors is None and "plan" not in vars(V) and "plan" not in vars(W)


def test_rescaled_view_shares_a_built_plan_and_builds_none():
    V = builders.su2_fusion(8).view
    assert "plan" not in vars(V.rescaled([1] * 8)) and "plan" not in vars(V)
    plan = V.plan
    assert V.rescaled([2] * 8).plan is plan and V.rescaled([2.0] * 8).plan is plan


@pytest.mark.parametrize("scale, message", [
    ([1, 2], "3 nonzero scales"),
    ([1, 0, 1], "3 nonzero scales"),
    ([1.0, 0.0, 1.0], r"must be finite, got (inf|nan) in row"),
    ([1.0, 1e200, 1e-200], r"must be finite, got inf in row"),
])
def test_rescaled_view_rejects_what_the_constructor_rejects(scale, message):
    x, y, z = _z3_entries()
    V = TableView(3, 0, [0, 2, 1], True, x, y, z, np.ones(len(x), dtype=np.int64), scale=[1] * 3)
    with pytest.raises(ValueError, match=message), np.errstate(all="ignore"):
        V.rescaled(scale)


def test_entries_are_sorted_folded_and_stripped_of_zeros():
    x, y, z = _z3_entries()
    ones = np.ones(len(x), dtype=np.int64)
    # the same table given backwards, every product also in the other order
    # and a zero entry in row (1, 1): the view of the plain table
    swap = (x != y)
    X, Y = np.r_[x, y[swap], 1][::-1], np.r_[y, x[swap], 1][::-1]
    Z = np.r_[z, z[swap], 0][::-1]
    N = np.r_[ones, ones[swap], 0][::-1]
    V = TableView(3, 0, [0, 2, 1], True, X, Y, Z, -N, scale=[-1] * 3)  # 1 = -1 (-1) / (-1)^2
    W = TableView(3, 0, [0, 2, 1], True, x, y, z, ones, scale=[1] * 3)
    for name in ("px", "py", "starts", "x", "y", "z", "c", "has_row"):
        assert np.array_equal(getattr(V, name), getattr(W, name)), name
    assert _entry_values(V) == [1] * len(V.z)
    H = HypergroupTable("z3", W)
    assert H.rows == family(FamilySpec("cyclic", n=3)).rows


def test_a_product_of_zeros_stays_a_stored_row():
    V = TableView(2, 0, [0, 1], True, [0, 0, 1], [0, 1, 1], [0, 1, 0],
                  np.array([1.0, 1.0, 0.0]))
    assert V.has_row.all() and len(V.z) == 3  # (0, 1) mirrored; (1, 1) has no entries
    H = HypergroupTable("empty row", V)
    assert H.row(1, 1) == ()
    assert verify_axioms(H).checks["probability"].violation == 1.0


def test_a_view_of_no_entries_stores_no_product():
    for value, scale in ((np.ones(0), None), (np.ones(0, dtype=np.int64), [1, 1])):
        V = TableView(2, 0, [0, 1], True, [], [], [], value, scale=scale)
        assert not V.has_row.any() and len(V.px) == len(V.z) == 0
        assert V.starts.tolist() == [0]


def test_finite_table_given_a_view_needs_every_row():
    V = TableView(2, 0, [0, 1], True, [0, 0], [0, 1], [0, 1], np.ones(2))
    with pytest.raises(ValueError, match="missing rows"):
        HypergroupTable("z2 without 1.1", V)
    H = HypergroupTable("section", V, truncated=True, radius=2)
    assert H.has_row(0, 1) and not H.has_row(1, 1) and not H.has_row(2, 0)
    with pytest.raises(core.TruncationOverflow):
        H.row(1, 1)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_rows_give_the_view_of_the_entries(name):
    H = _table(name)
    K = HypergroupTable.from_rows(H.name, H.size, H.involution, H.rows, identity=H.identity,
                                  haar=H.haar, commutative=H.commutative,
                                  truncated=H.truncated, radius=H.radius)
    V, W = H.view, K.view
    for T in (H, K):  # the facts a table takes from its view
        assert (T.size, T.identity, T.involution, T.commutative, T.exact) == (
            T.view.n, T.view.identity, tuple(T.view.inv.tolist()), T.view.commutative,
            T.view.rational)
        assert type(T.involution) is tuple and all(type(i) is int for i in T.involution)
    for attr in ("px", "py", "starts", "x", "y", "z", "has_row", "inv"):
        assert np.array_equal(getattr(V, attr), getattr(W, attr)), attr
    assert V.c.tobytes() == W.c.tobytes()
    if H.exact:
        assert _entry_values(V) == _entry_values(W)
        assert V.same_entries(W)
    assert K.exact == H.exact and K.rows == H.rows


def _entry_values(V):
    """The exact value of each entry of ``V``, as Fractions."""
    return V.coefficients(np.arange(len(V.z)))


def test_an_empty_row_stays_stored():
    rows = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 1): []}
    H = HypergroupTable.from_rows("z2 with an empty row", 2, [0, 1], rows)
    assert verify_axioms(H).checks["probability"].violation == 1.0
    H = HypergroupTable.from_rows("section", 2, [0, 1], rows, truncated=True, radius=2)
    assert H.has_row(1, 1) and H.row(1, 1) == ()


def test_relabeled_shares_the_view():
    H = _table("conj_s4")
    K = H.relabeled("again")
    assert K.view is H.view and K._rows is None
    assert K.name == "again" and K.haar == H.haar


# -- NaN never passes a check ------------------------------------------------


def test_axiom_defects_keep_nan():
    V = _table("conj_s3").view
    c = V.c.copy()
    c[np.flatnonzero(V.z == V.identity)[1]] = np.nan  # c^e_{x,x~} for some x != e
    worst, _ = axiom_defects(V, c)
    # each check that reads the entry fails: NaN, or the missing mass 1 of e
    for name in ("probability", "associativity", "involution"):
        assert np.isnan(worst[name]), name
    assert worst["support"] == 1.0


def _builder_haar(name):
    """The Haar weights of a finite table of BUILDERS as its builder once listed them."""
    if "x" in name:  # a product
        left, right = name.split("x")
        return tuple(a * b for a in _builder_haar(left) for b in _builder_haar(right))
    fam, _, g = name.partition("_")
    if fam == "conj":
        return tuple(Fraction(len(cl)) for cl in groups.get_group(g).conjugacy_classes())
    if fam == "irr":
        G = groups.get_group(g)
        return tuple(Fraction(d * d) for d in builders.group_character_data(G).dims)
    return (Fraction(1),) * int(name[1:])  # Z_n


@pytest.mark.parametrize("name", sorted(k for k in BUILDERS if not k.startswith(tuple(SECTIONS))))
def test_haar_weights_come_from_the_view(name):
    # exactly the weights the builders listed, also for the table built from rows
    H = _table(name)
    copy = HypergroupTable.from_rows(name, H.size, H.involution, H.rows)
    for K in (H, copy):
        assert K.haar == _builder_haar(name)
        assert all(type(v) is Fraction for v in K.haar)


def _haar_oracle(H):
    """1 / c^e_{x,x~} from the view's Fraction coefficients, as the table once took them."""
    V = H.view
    mine = (V.z == H.identity) & (V.y == V.inv[V.x])
    at = np.full(H.size, -1)
    at[V.x[mine]] = np.flatnonzero(mine)
    assert (at >= 0).all()
    return tuple(1 / c for c in V.coefficients(at))


def _rows_copy(H):
    """``H`` built again from its Fraction rows, without its Haar weights."""
    return HypergroupTable.from_rows(H.name, H.size, H.involution, H.rows)


def _haar_parity_tables(tmp_path):
    path = tmp_path / "s3.cayley"
    groups.save_group(groups.symmetric(3), str(path))
    gs = [groups.get_group(g) for g in GROUPS] + [groups.load_group(str(path), "S3file")]
    for G in gs:
        # fresh builds, so that lam is read from N and s, not from a shared table's haar
        for build in (builders.conjugacy_hypergroup, builders.irr_hypergroup,
                      builders.group_hypergroup):
            yield lambda build=build, G=G: build.__wrapped__(G)
    for a, b in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2):
        def build(a=a, b=b):
            return builders.product(family(FamilySpec(a[0], group=a[1])),
                                    family(FamilySpec(b[0], group=b[1])))
        yield build
        # its rows as Fractions: one scale, their common denominator, for every point
        yield lambda build=build: _rows_copy(build())
    for g in GROUPS:  # the group fusion rings, given their weights, again without them
        for kind in ("n", "d"):
            yield lambda g=g, kind=kind: HypergroupTable(g, N_FORM[f"{g}_{kind}"]().view)


def test_haar_weights_from_n_and_s_equal_the_oracle(tmp_path):
    count = 0
    for build in _haar_parity_tables(tmp_path):
        H = build()
        oracle = _haar_oracle(H)
        lam = H.lam  # before haar: from N and s directly
        assert lam.tobytes() == np.array([float(v) for v in oracle]).tobytes(), H.name
        assert H.haar == oracle and all(type(v) is Fraction for v in H.haar), H.name
        again = build()
        assert again.haar == oracle and again.lam.tobytes() == lam.tobytes(), H.name
        count += 1
    assert count == 27 + 2 * 21 + 16


def test_lam_from_n_and_s_overflows_like_the_fractions():
    tiny = Fraction(1, 10**400)
    rows = {(0, 0): [(0, Fraction(1))], (0, 1): [(1, Fraction(1))],
            (1, 1): [(0, tiny), (1, 1 - tiny)]}
    H = HypergroupTable.from_rows("tiny", 2, [0, 1], rows)
    with pytest.raises(ValueError, match="tiny: Haar weights beyond the range of float64"):
        H.lam
    assert H.haar == (1, 10**400)


def test_haar_weights_from_the_view_name_the_first_bad_point():
    T = _table("su2_r8")  # labels 1..8 store a.a up to a = 4
    copy = HypergroupTable.from_rows(T.name, T.size, T.involution, T.rows,
                                     truncated=True, radius=T.radius)
    with pytest.raises(core.TruncationOverflow, match=r"R8: product 4\.4 leaves the stored section"):
        copy.haar
    rows = {(0, 0): [(0, Fraction(1))], (0, 1): [(1, Fraction(1))], (1, 1): [(1, Fraction(1))]}
    with pytest.raises(core.ZeroDiagonal, match=r"nozero: c\^e_\{1,1\} = 0"):
        HypergroupTable.from_rows("nozero", 2, [0, 1], rows).haar


@pytest.mark.parametrize("rows", [
    {(0, 0): [(0, Fraction(1))], (0, 1): [(1, Fraction(1))], (1, 1): [(0, Fraction(1))]},
    {(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)], (1, 1): [(0, 1.0)]},
], ids=["exact", "float"])
def test_haar_weights_reject_nan(rows):
    H = HypergroupTable.from_rows("z2", 2, [0, 1], rows, haar=[1, float("nan")])
    with pytest.raises(core.ZeroDiagonal, match="violated by nan"):
        haar_weights(H)
    H = HypergroupTable.from_rows("z2", 2, [0, 1], rows, haar=[float("nan"), 1])
    with pytest.raises(core.ZeroDiagonal, match="lam"):
        haar_weights(H)


# -- the N-form: c = N s_z / (s_x s_y) --------------------------------------

BENCH_GROUPS = ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")


def _n_form_tables():
    out = {}
    for r in (8, 16, 40):
        out[f"su2_r{r}"] = functools.partial(builders.su2_fusion, r)
        out[f"suq2_r{r}"] = functools.partial(builders.su2_fusion, r, Fraction(1, 2))
    rings = {f"sq{q}_r{r}": functools.partial(quantum.su2_fusion_ring, r, Fraction(q))
             for q in ("1", "1/2", "2/3") for r in (8, 16)}
    rings.update({g: functools.partial(quantum.group_fusion_ring, groups.get_group(g))
                  for g in BENCH_GROUPS})
    for name, ring in rings.items():
        out[f"{name}_n"] = lambda ring=ring: quantum.hypergroup_n(ring())
        out[f"{name}_d"] = lambda ring=ring: quantum.hypergroup_d(ring())
    return out


N_FORM = _n_form_tables()


@pytest.mark.parametrize("name", sorted(N_FORM))
def test_n_form_reports_like_the_residues(name, monkeypatch):
    H = N_FORM[name]()
    assert H.exact and H.view.N is not None
    _sizes_nothing(monkeypatch)
    fast, haar = _checked_without_rows(H)
    assert fast.passed and haar == 0
    monkeypatch.setattr(view, "EXACT_FLOAT", 0)  # associativity modulo primes
    assert fast == verify_axioms(H)
    if H.size <= 16:
        _assert_same_report(fast, _verify_axioms_loop(H), exact=True)


def _with_n(H, N, scale):
    V = H.view
    once = V.x <= V.y
    return HypergroupTable(
        "mutated",
        TableView(H.size, H.identity, H.involution, True,
                  V.x[once], V.y[once], V.z[once], N, scale=scale),
        haar=H.haar, truncated=H.truncated, radius=H.radius, generator=H.generator)


@pytest.mark.parametrize("name, scale", [
    ("su2_r8", range(1, 9)),
    ("suq2_r8", [builders.q_integer(a, Fraction(1, 2)) for a in range(1, 9)]),
    ("s4_d", quantum.group_fusion_ring(groups.symmetric(4)).ddims),
])
@pytest.mark.parametrize("pick, value", [(3, 2), (10, 0), (17, 3)])
def test_mutated_n_form_falls_back_like_the_loop(name, scale, pick, value):
    H = N_FORM[name]()
    N = H.view.N[H.view.x <= H.view.y].copy()
    assert _with_n(H, N, scale).view.same_entries(H.view)
    N[pick % len(N)] = value
    M = _with_n(H, N, scale)
    report, haar = _checked_without_rows(M)
    assert not report.passed
    # the scales are not uniform: a failed associativity is sized from N and s
    _assert_same_report(report, _verify_axioms_loop(M), exact=True)
    assert haar == _haar_defect_loop(M)


@pytest.mark.parametrize("pick, value", [(5, 2**30), (17, -3 * 2**28), (40, 2**31 + 7),
                                         (2, 2**27)])
def test_mutated_suq2_n_form_beyond_the_bound_is_sized_from_n(pick, value):
    # non-uniform scales [a]_q with q = 1/1000, and an N beyond the float64
    # bound: associativity runs modulo primes, and its defect is sized from N
    H = builders.su2_fusion(12, q=Fraction(1, 1000))
    N = H.view.N[H.view.x <= H.view.y].copy()
    N[pick] = value
    M = _with_n(H, N, builders.q_integers(Fraction(1, 1000), 12)[1:13])
    assert len(set(M.view.scales)) == 12 and _beyond_float64(M.view)
    report, haar = _checked_without_rows(M)
    assert not report.checks["associativity"].passed
    _assert_same_report(report, _verify_axioms_loop(M), exact=True)
    assert haar == _haar_defect_loop(M)


def _gauged_cyclic(n, t):
    """Z_n in the N-form with s_x = t**x, so that rho = s / s o inv is not 1.

    ``N^{x+y}_{x,y} = t**(x + y - (x + y) % n)`` keeps every c = 1; for a
    negative t, N and s take both signs.
    """
    x, y = (a.ravel() for a in np.meshgrid(range(n), range(n), indexing="ij"))
    z = (x + y) % n
    view = TableView(n, 0, -np.arange(n) % n, True, x, y, z, [t ** int(k) for k in x + y - z],
                     scale=[t**k for k in range(n)])
    return HypergroupTable(f"Z{n} gauged by {t}", view)


GAUGED = {"z5_t2": lambda: _gauged_cyclic(5, 2), "z5_t-2": lambda: _gauged_cyclic(5, -2),
          "z4_t3": lambda: _gauged_cyclic(4, 3),
          # not commutative, with s = 1
          "s3_group": lambda: builders.group_hypergroup.__wrapped__(groups.symmetric(3))}


@pytest.mark.parametrize("name", sorted(GAUGED))
def test_gauged_n_form_is_the_plain_table(name, monkeypatch):
    H = GAUGED[name]()
    if H.commutative:  # S3's commutativity fails, and is sized
        assert H.view.same_entries(family(FamilySpec("cyclic", n=H.size)).view)
        _sizes_nothing(monkeypatch)
    report, haar = _checked_without_rows(H)
    assert report.passed and haar == 0 and H.haar == (1,) * H.size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(GAUGED)), pick=st.integers(min_value=0),
       value=st.sampled_from([0, -1, 2, 5, 2**30, -(2**31) - 3]))
def test_mutated_gauged_n_form_flags_like_loop(name, pick, value):
    # rho and mu = lam / s**2 are not 1, N and s take both signs, and a value
    # of 2**30 or more sends associativity to the residues and Python ints
    H = GAUGED[name]()
    V = H.view
    keep = V.x <= V.y if V.commutative else np.ones(len(V.x), dtype=bool)
    N = V.N[keep].copy()
    N[pick % len(N)] = value
    M = HypergroupTable("mutated", TableView(V.n, V.identity, V.inv, V.commutative, V.x[keep],
                                             V.y[keep], V.z[keep], N, scale=V.scales),
                        haar=H.haar)
    report, haar = _checked_without_rows(M)
    _assert_same_report(report, _verify_axioms_loop(M), exact=True)
    assert haar == _haar_defect_loop(M)


def _z3_n_form(scale):
    x, y, z = _z3_entries()
    return HypergroupTable("z3", TableView(3, 0, [0, 2, 1], True, x, y, z,
                                           np.ones(len(x), dtype=np.int64), scale=scale))


@pytest.mark.parametrize("build", [
    # two stray entries in the row e.1: its identity violation is their sum
    lambda: HypergroupTable.from_rows("z3", 3, [0, 2, 1], {
        (0, 0): [(0, 1)], (0, 1): [(1, 1), (0, Fraction(1, 3)), (2, Fraction(1, 3))],
        (0, 2): [(2, 1)], (1, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 2): [(1, 1)]}),
    # c^x_{e,x} = N / s_e = 2 and 3 / 2: s_e is not an integer
    lambda: _z3_n_form([Fraction(1, 2), 1, 1]),
    lambda: _z3_n_form([Fraction(2, 3), Fraction(5, 7), 3]),
], ids=["stray-mass", "half-identity", "rational-scales"])
def test_exact_checks_size_what_fails_like_the_loop(build):
    H = build()
    report, haar = _checked_without_rows(H)
    assert not report.passed
    _assert_same_report(report, _verify_axioms_loop(H), exact=True)
    assert haar == _haar_defect_loop(H)


@pytest.mark.parametrize("H", [_z3_n_form([Fraction(2, 3), Fraction(5, 7), 3]),
                               _gauged_cyclic(5, -2)], ids=["rational-scales", "z5_t-2"])
def test_rho_is_reduced_s_over_s_of_the_involution(H):
    V, s = H.view, H.view.scales
    p, q = (v.tolist() for v in view._rho(V))
    assert [Fraction(a, b) for a, b in zip(p, q)] == [s[x] / s[i]
                                                     for x, i in enumerate(H.involution)]
    assert all(math.gcd(a, b) == 1 for a, b in zip(p, q))


def test_a_triple_flagged_modulo_one_prime_is_sized(monkeypatch):
    # one prime per residue pass, and only the first pass reports the triples
    # it flags, as when a defect is 0 modulo every other prime: they are
    # sized all the same
    H = builders.su2_fusion(12, q=Fraction(1, 1000))
    N = H.view.N[H.view.x <= H.view.y].copy()
    N[5] = 2**30
    M = _with_n(H, N, builders.q_integers(Fraction(1, 1000), 12)[1:13])
    monkeypatch.setattr(view, "RESIDUE_BATCH", 1)
    dense, passes = view._associativity, []

    def first_only(V, C, p):
        worst, checked, flagged = dense(V, C, p)
        passes.append(p)
        return worst, checked, flagged if len(passes) == 1 else flagged[:0]

    monkeypatch.setattr(view, "_associativity", first_only)
    report = verify_axioms(M)
    assert len(passes) > 1 and report.checks["associativity"].violation > 0
    _assert_same_report(report, _verify_axioms_loop(M), exact=True)


def test_n_form_scales_must_be_nonzero():
    with pytest.raises(ValueError, match="nonzero scales"):
        TableView(2, 0, [0, 1], True, [0, 0, 1], [0, 1, 1], [0, 1, 0], [1, 1, 1],
                  scale=[1, 0])


def test_same_entries_compares_exactly():
    H = builders.su2_fusion(8)
    assert H.view.same_entries(builders.su2_fusion(8).view)
    assert not H.view.same_entries(builders.su2_fusion(8, Fraction(1, 2)).view)
    assert not H.view.same_entries(builders.su2_fusion(9).view)
    # the same coefficients as other integers at other scales, 2 N at 2 s
    twice = TableView(8, 0, range(8), True, H.view.x, H.view.y, H.view.z, 2 * H.view.N,
                      scale=[2 * s for s in H.view.scales])
    assert twice.same_entries(H.view) and H.view.same_entries(twice)
    # float coefficients compare as floats; 1/3 in float64 is not 1/3
    V = H.view
    floats = TableView(8, 0, range(8), True, V.x, V.y, V.z, V.c)
    assert floats.same_entries(TableView(8, 0, range(8), True, V.x, V.y, V.z, V.c))
    assert not floats.same_entries(V)
    # two float views one ulp apart in one coefficient are not the same
    c = V.c.copy()
    c[3] = np.nextafter(c[3], 2.0)
    assert not floats.same_entries(floats.reweighted(c))
    # a group table's coefficients are 1, exact in float64 too
    Z = builders.group_hypergroup(groups.cyclic(6)).view
    copy = TableView(6, 0, Z.inv, True, Z.x, Z.y, Z.z, Z.c)
    assert Z.rational and copy.same_entries(Z) and Z.same_entries(copy)


def test_associativity_slab_takes_only_checked_columns(monkeypatch):
    # a section checks few triples near its boundary: the slabs hold under
    # half of the n**4 values (x, y, z, v) of full slabs
    H = builders.tree_radial(2, 20)
    V = H.view
    sizes = []
    defect = view._defect
    monkeypatch.setattr(view, "_defect", lambda d, p: sizes.append(d.size) or defect(d, p))
    _, checked, flagged = view._associativity(V, V.dense(V.N.astype(float)), None)
    assert flagged.shape == (0, 3)
    assert checked == _verify_axioms_loop(H).triples_checked
    assert sum(sizes) < H.size**4 // 2


# -- the section pass against the per-x oracle ---------------------------------


def _associativity_tables():
    """The builders' tables, the Voit-deformed sections of tree_radial q = 2,
    su2 and suq2 q = 1/2 at R = 8..30, and three whose passes run modulo
    primes: a broken su2(14), su2(12, q = 1/1000) with an N beyond the
    float64 bound, and tree_radial(3, 40)."""
    out = dict(BUILDERS)
    for name in ("tree2", "su2", "suq2"):
        for r in (8, 12, 16, 20, 24, 28, 30):
            out.setdefault(f"{name}_r{r}_voit", functools.partial(_deformed, name, r))

    def broken(R, q, pick, value):
        H = builders.su2_fusion(R, q=q)
        N = H.view.N[H.view.x <= H.view.y].copy()
        N[pick] = value
        return _with_n(H, N, builders.q_integers(q, R)[1:R + 1])

    out["su2_r14_broken"] = functools.partial(broken, 14, 1, 7, 2)
    out["suq2_q1/1000_r12_big"] = functools.partial(broken, 12, Fraction(1, 1000), 5, 2**30)
    out["tree3_r40"] = functools.partial(builders.tree_radial, 3, 40)
    return out


ASSOCIATIVITY = _associativity_tables()


def _passes(V):
    """The dense passes of ``V``: on its floats, or on N in float64 when that
    is exact and on N's residues modulo the primes for a height of at least
    2**60, so that an exact view takes more than one residue pass."""
    if not V.rational:
        yield V.dense(V.c), None
        return
    if not _beyond_float64(V):
        yield V.dense(V.N.astype(float)), None
    height = max(2 * V.n * view.max_abs(V.N) ** 2, 2**60)
    for p in view._batches(V, view.crt_primes(V.n, height)):
        yield V.dense(view.residues(V.N, p)), p


def _assert_same_pass(V, got, want):
    """The same worst violation (bitwise), checked count and set of flagged triples.

    A commutative view checks the identity at (z, y, x) once with that at
    (x, y, z), so of it the two sets are compared closed under that mirror.
    """
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1] == want[1]
    flagged = [set(map(tuple, f.tolist())) for f in (got[2], want[2])]
    if V.commutative:
        flagged = [f | {(z, y, x) for x, y, z in f} for f in flagged]
    assert flagged[0] == flagged[1]


@functools.cache
def _associativity_table(name):
    return _table(name) if name in BUILDERS else ASSOCIATIVITY[name]()


def test_the_oracle_covers_sections_residues_and_failures():
    assert len(ASSOCIATIVITY) == 69
    assert sum(not _associativity_table(k).view.has_row.all() for k in ASSOCIATIVITY) == 36
    V = _associativity_table("su2_r14_broken").view
    assert all(len(view._associativity(V, C, p)[2]) for C, p in _passes(V))


@pytest.mark.parametrize("name", sorted(ASSOCIATIVITY))
def test_associativity_equals_the_per_x_oracle(name, monkeypatch):
    # the plan built for one x at a time, for the default block and for the
    # whole table at once; each budget builds it afresh
    V = _associativity_table(name).view
    for C, p in _passes(V):
        want = _associativity_per_x(V, C, p)
        for values in (1, view.MASK_VALUES, 2**40):
            monkeypatch.setattr(view, "MASK_VALUES", values)
            vars(V).pop("plan", None)
            _assert_same_pass(V, view._associativity(V, C, p), want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(MUTABLE),
    pick=st.integers(min_value=0),
    drop=st.booleans(),
    num=st.integers(-3, 3),
    den=st.integers(1, 6),
)
def test_mutated_table_passes_like_the_per_x_oracle(name, pick, drop, num, den):
    V = _mutated(_table(name), pick, None if drop else Fraction(num, den)).view
    for C, p in _passes(V):
        _assert_same_pass(V, view._associativity(V, C, p), _associativity_per_x(V, C, p))


def _float_copy(H):
    """``H`` built again from its rows with every coefficient a float."""
    rows = {k: [(z, float(c)) for z, c in r] for k, r in H.rows.items()}
    return HypergroupTable.from_rows(f"{H.name}_float", H.size, H.involution, rows,
                                     identity=H.identity, commutative=H.commutative)


def _noncommutative_tables():
    """Group tables, whose passes take every order: S3, S4 (one x per block) and products."""
    s3, s4 = (builders.group_hypergroup(groups.get_group(g)) for g in ("s3", "s4"))
    return {
        "group_s3": lambda: s3,
        "group_s4": lambda: s4,
        "group_s4_float": lambda: _float_copy(s4),
        "group_s3xirr_s3": lambda: builders.product(s3, _table("irr_s3")),
        "conj_d4xgroup_s3": lambda: builders.product(_table("conj_d4"), s3),
    }


NONCOMMUTATIVE = _noncommutative_tables()


@pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE))
def test_noncommutative_pass_equals_the_per_x_oracle(name):
    # the same flagged triples, not closed under (x, y, z) <-> (z, y, x)
    V = NONCOMMUTATIVE[name]().view
    assert not V.commutative
    for C, p in _passes(V):
        _assert_same_pass(V, view._associativity(V, C, p), _associativity_per_x(V, C, p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(("group_s3", "group_s3xirr_s3")),
    pick=st.integers(min_value=0),
    drop=st.booleans(),
    num=st.integers(-3, 3),
    den=st.integers(1, 6),
)
def test_mutated_noncommutative_table_passes_like_the_per_x_oracle(name, pick, drop, num, den):
    H = _mutated(NONCOMMUTATIVE[name](), pick, None if drop else Fraction(num, den))
    for C, p in _passes(H.view):
        _assert_same_pass(H.view, view._associativity(H.view, C, p),
                          _associativity_per_x(H.view, C, p))
    _assert_same_report(verify_axioms(H), _verify_axioms_loop(H), exact=True)


@pytest.mark.parametrize("name, commutative", [("z30", True), ("group_s4", False)])
def test_commutative_pass_takes_each_identity_once(name, commutative, monkeypatch):
    # one x per block: the slabs of x hold z >= x alone, half the n**4 values
    # (x, y, z, v) and n**3 more, on a commutative table
    V = (family(FamilySpec("cyclic", n=30)) if name == "z30" else NONCOMMUTATIVE[name]()).view
    n = V.n
    assert V.commutative == commutative
    # a floor at which both tables take one x per block (S4, n = 24, takes two above it)
    monkeypatch.setattr(view, "SLAB_FLOOR", 2**14)
    assert max(n**3 // 4, view.SLAB_FLOOR) // (n * n) < 2 * n  # one x per block
    sizes = []
    defect = view._defect
    monkeypatch.setattr(view, "_defect", lambda d, p: sizes.append(d.size) or defect(d, p))
    _, checked, flagged = view._associativity(V, V.dense(V.N.astype(float)), None)
    assert (checked, len(flagged)) == (n**3, 0)
    assert sum(sizes) == ((n**4 + n**3) // 2 if commutative else n**4)


def test_section_pass_peaks_no_higher_than_the_oracle():
    # one slab at a time, and the checked rows of it: no more memory than the
    # per-x masks and whole-slab defects, at su2_fusion(140)
    V = builders.su2_fusion(140).view
    C = V.dense(V.N.astype(float))
    assert _peak_bytes(view._associativity, V, C, None) <= _peak_bytes(
        _associativity_per_x, V, C, None)


# -- the checked-triple plan, once per set of index arrays --------------------


@pytest.mark.parametrize("radius, passes", [(40, 4), (60, 5)])
def test_residue_passes_share_one_plan(radius, passes, monkeypatch):
    # tree_radial q = 3 is beyond the float64 bound from R = 30: one residue
    # pass per prime, every one on the plan built by the first
    calls = {"plan": 0, "pass": 0}
    build, check = view._plan, view._associativity

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(view, "_plan", counted("plan", build))
    monkeypatch.setattr(view, "_associativity", counted("pass", check))
    H = builders.tree_radial(3, radius)
    report = verify_axioms(H)
    assert calls == {"plan": 1, "pass": passes}
    assert report.passed
    assert report.triples_checked == np.count_nonzero(H.view.plan) < H.size**3


def _plan_per_x_block(V: TableView) -> np.ndarray | None:
    """``view._plan`` built for a block of x at a time, from each x's entries.

    One GEMM of the block's entries against the missing-row mask finds the
    w of supp(x.y) with w.z missing, and one ``bincount`` the products y.z
    whose support holds a w with x.w missing.
    """
    if V.has_row.all():
        return None
    n = V.n
    gaps = (~V.has_row).astype(float)
    plan = V.has_row[:, :, None] & V.has_row
    block = min(n, max(1, view.MASK_VALUES // max(n * n, len(V.z))))
    at = (np.arange(block)[:, None] * len(V.px) + V.pair).ravel() if block > 1 else V.pair
    for b0 in range(0, n, block):
        bs = slice(b0, min(b0 + block, n))
        ok = plan[bs]
        k = ok.shape[0]
        e = slice(*np.searchsorted(V.x, [b0, bs.stop]))
        stored = np.zeros((k, n, n))
        stored[V.x[e] - b0, V.y[e], V.z[e]] = 1
        ok &= stored @ gaps == 0
        bad = np.bincount(at[:k * len(V.z)], weights=gaps[bs].take(V.z, axis=1).ravel(),
                          minlength=k * len(V.px))
        b, q = np.divmod(np.flatnonzero(bad), len(V.px))
        ok[b, V.px[q], V.py[q]] = False
    return plan


def _assert_plan_like_the_oracle(V):
    want = _plan_per_x_block(V)
    got = view._plan(V)
    assert (got is None) == (want is None)
    assert got is None or (np.array_equal(got, want) and not got.flags.writeable)


SECTION_BUILDERS = {
    "tree2": functools.partial(builders.tree_radial, 2),
    "tree3": functools.partial(builders.tree_radial, 3),
    "su2": builders.su2_fusion,
    "suq2": lambda R: builders.su2_fusion(R, q=Fraction(1, 2)),
    "suq2_2/3": lambda R: builders.su2_fusion(R, q=Fraction(2, 3)),
}


@pytest.mark.parametrize("name", sorted(SECTION_BUILDERS))
def test_plan_from_supports_equals_the_per_x_oracle(name, monkeypatch):
    # for the default block of products, one product per block and all at once
    for R in range(2, 41):
        V = SECTION_BUILDERS[name](R).view
        for values in (view.MASK_VALUES, 1, 2**40) if R in (2, 17, 40) else (view.MASK_VALUES,):
            monkeypatch.setattr(view, "MASK_VALUES", values)
            _assert_plan_like_the_oracle(V)


@pytest.mark.parametrize("name", sorted(k for k in ASSOCIATIVITY if k.endswith("_voit")))
def test_plan_of_deformed_views_equals_the_per_x_oracle(name):
    _assert_plan_like_the_oracle(_associativity_table(name).view)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(MUTABLE),
    pick=st.integers(min_value=0),
    drop=st.booleans(),
    num=st.integers(-3, 3),
    den=st.integers(1, 6),
)
def test_plan_of_mutated_tables_equals_the_per_x_oracle(name, pick, drop, num, den):
    _assert_plan_like_the_oracle(_mutated(_table(name), pick, None if drop else
                                          Fraction(num, den)).view)


@pytest.mark.parametrize("name", ["tree2_r16", "tree3_r16", "su2_r16", "suq2_r12"])
def test_deformed_view_holds_the_plan_of_its_base(name):
    # the deformation checks its view before the base is checked
    H = BUILDERS[name]()
    D = voit_deform(H).deformed
    verify_axioms(H)
    assert D.view.plan is H.view.plan
    assert H.view.plan is not None and not H.view.plan.flags.writeable


@pytest.mark.parametrize("name", ["z6", "conj_s4", "irr_q8", "conj_s3xirr_d4"])
def test_finite_views_hold_no_plan(name):
    H = _table(name)
    V = H.view
    assert V.plan is None
    C = V.dense(V.N.astype(float) if V.rational else V.c)
    assert view._associativity(V, C, None)[1] == H.size**3
    assert verify_axioms(H).triples_checked == H.size**3


# -- every exact built-in holds N and scales ---------------------------------


def _exact_builtins():
    out = {f"z{n}": functools.partial(family, FamilySpec("cyclic", n=n)) for n in range(1, 17)}
    for g in BENCH_GROUPS:
        for fam in ("conj", "irr"):
            out[f"{fam}_{g}"] = functools.partial(family, FamilySpec(fam, group=g))
    for (f1, g1), (f2, g2) in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2):
        out[f"{f1}_{g1}x{f2}_{g2}"] = functools.partial(
            lambda a, b: builders.product(family(a), family(b)),
            FamilySpec(f1, group=g1), FamilySpec(f2, group=g2))
    for q in (2, 3):
        for r in (8, 16):
            out[f"tree{q}_r{r}"] = functools.partial(builders.tree_radial, q, r)
    out.update((k, v) for k, v in N_FORM.items() if "r40" not in k)
    return out


EXACT_BUILTINS = _exact_builtins()


@pytest.mark.parametrize("name", sorted(EXACT_BUILTINS))
def test_exact_builtins_hold_n_and_scales(name):
    H = EXACT_BUILTINS[name]()
    V = H.view
    assert H.exact and V.N is not None
    assert V.same_entries(_from_rows(H).view)
    want = [float(dict(H.row(x, y))[z]) for x, y, z in zip(V.x.tolist(), V.y.tolist(),
                                                              V.z.tolist())]
    assert V.c.tobytes() == np.array(want).tobytes()


# -- the quotients c in int64 where the entries' bit lengths allow -----------


def _python_fractions(V):
    """``(num, den)`` of every entry of an exact view, as Python ints: the big-integer path."""
    a, b = (s.tolist() for s in V._scale)
    x, y, z, N = V.x.tolist(), V.y.tolist(), V.z.tolist(), V.N.tolist()
    return ([k * a[w] * b[u] * b[v] for k, u, v, w in zip(N, x, y, z)],
            [b[w] * a[u] * a[v] for u, v, w in zip(x, y, z)])


def _assert_quotients_like_fractions(V):
    """c is float() of each entry's Fraction, and the Haar ratios are the Python ints."""
    num, den = _python_fractions(V)
    assert V.c.tobytes() == np.array([float(Fraction(u, w)) for u, w in zip(num, den)]).tobytes()
    assert V.haar_ratios(np.arange(len(V.z))) == (den, num)


# the builder, the radii to check and the last radius whose entries all
# divide in float64 (the powers of two of tree q = 2 and suq2 q = 1/2 are
# taken apart)
QUOTIENT_FAMILIES = {
    "tree2": (functools.partial(builders.tree_radial, 2), [*range(2, 61), 98, 99], 98),
    "tree3": (functools.partial(builders.tree_radial, 3), range(2, 41), 32),
    "suq2": (functools.partial(builders.su2_fusion, q=Fraction(1, 2)), range(2, 31), 25),
    "suq2_q2/3": (functools.partial(builders.su2_fusion, q=Fraction(2, 3)), [102], 11),
    "suq2_q1/1000": (functools.partial(builders.su2_fusion, q=Fraction(1, 1000)), [102], 2),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_FAMILIES))
def test_quotients_equal_the_fractions(name):
    build, radii, last = QUOTIENT_FAMILIES[name]
    for R in radii:
        V = build(R).view
        _assert_quotients_like_fractions(V)
        # the float64 path covers every entry up to the last radius, and no further
        assert (V._scale[0].dtype != object or V._small()[0].all()) == (R <= last), R


def _odd(k):
    """Odd integers of exactly ``k`` bits."""
    return st.integers(2 ** (k - 2), 2 ** (k - 1) - 1).map(lambda m: 2 * m + 1)


def _three_points(a, b, N, z):
    """All nine products of three points, with scales ``a / b`` and ``N`` at support ``z``."""
    x, y = np.divmod(np.arange(9), 3)
    return TableView(3, 0, [0, 1, 2], False, x, y, z, N, scale=list(map(Fraction, a, b)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), widths=st.lists(st.integers(10, 22), min_size=6, max_size=6),
       twos=st.lists(st.integers(0, 60), min_size=6, max_size=6),
       N=st.lists(st.integers(1, 7), min_size=9, max_size=9),
       z=st.lists(st.integers(0, 2), min_size=9, max_size=9))
def test_quotients_straddle_the_float64_bound(data, widths, twos, N, z):
    # scales a / b whose odd parts have 10 to 22 bits, times up to 2**60, so
    # that the bit lengths of the odd parts of N a_z b_x b_y and b_z a_x a_y
    # lie around 53: the entries below it divide in float64, the others as
    # Python ints, and all of them round like Fractions
    a, b = ([data.draw(_odd(k)) << t for k, t in zip(widths[i::2], twos[i::2])] for i in (0, 1))
    _assert_quotients_like_fractions(_three_points(a, b, N, np.array(z)))


@pytest.mark.parametrize("t", [500, 1000, 1019, 1020, 1021, 1022, 1023, 1024])
def test_quotients_beyond_the_normal_floats_round_like_fractions(t):
    # scales 3, 5 2**t and 7: c = s_z / (s_x s_y) runs from about 2**-2t,
    # subnormal or 0, to 5/9 2**t, which is at least 2**1023 for t = 1024
    for z in (0, 1):
        V = _three_points([3, 5 << t, 7], [1, 1, 1], [1] * 9, np.full(9, z))
        assert V._small()[0].all()
        _assert_quotients_like_fractions(V)


# -- products: associativity from the factors ---------------------------------


def _products():
    out = {k: v for k, v in EXACT_BUILTINS.items() if "x" in k}
    # the H x H of the benchmark's amenability jobs
    for g in ("s3", "s4", "a4", "d4", "q8", "klein", "z5"):
        for fam in ("conj", "irr"):
            spec = FamilySpec(fam, group=g)
            out[f"{fam}_{g}^2"] = lambda spec=spec: builders.product(family(spec), family(spec))
    for n in (3, 4, 5, 6):
        spec = FamilySpec("cyclic", n=n)
        out[f"z{n}^2"] = lambda spec=spec: builders.product(family(spec), family(spec))
    return out


PRODUCTS = _products()


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_checks_its_factors_like_the_full_check(name, monkeypatch):
    K = PRODUCTS[name]()
    full = _from_rows(K)  # the same table without factors
    assert K.view.factors is not None and full.view.factors is None
    sizes = []  # of the views whose associativity is checked densely
    dense = view._associativity
    monkeypatch.setattr(view, "_associativity",
                        lambda V, C, p: sizes.append(V.n) or dense(V, C, p))
    slow = verify_axioms(full)
    assert sizes == [K.size]
    sizes.clear()
    fast = verify_axioms(K)
    assert fast.passed and K.size not in sizes and len(sizes) >= 2
    _assert_same_report(fast, slow, exact=True)


@pytest.mark.parametrize("name, pick, value, other", [
    ("conj_s3", 1, Fraction(1, 2), "z4"),
    ("conj_s3", 4, None, "conj_klein"),
    ("z4", 2, Fraction(-1, 3), "irr_s3"),
    ("irr_s4", 7, Fraction(2), "z3"),
])
def test_product_with_a_failing_factor_runs_the_full_check(name, pick, value, other):
    bad = _mutated(_table(name), pick, value)
    assert not verify_axioms(bad).checks["associativity"].passed
    for K in (builders.product(bad, _table(other)), builders.product(_table(other), bad)):
        report = verify_axioms(K)
        assert not report.checks["associativity"].passed
        _assert_same_report(report, verify_axioms(_from_rows(K)), exact=True)
        assert report.triples_checked == K.size**3
