"""The array paths on ``HypergroupTable.view`` against Python loops.

``core._verify_axioms_loop`` and ``core._haar_defect_loop`` check the
axioms and the Haar identity by loops over the stored rows; the first
reports the associativity violations whose size the array checks do not
know, and both are the oracle here.  ``_residual_loop`` below is the
multiplicativity residual as a loop over the stored rows.
"""

import functools
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypharm import (builders, characters, chi0, core, groups, haar_weights, quantum, view,
                     voit_deform)
from hypharm.builders import FamilySpec, family
from hypharm.core import (
    HypergroupTable,
    _haar_defect,
    _haar_defect_loop,
    _verify_axioms_loop,
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


def _no_loops(monkeypatch):
    def loop(H, *args, **kwargs):
        raise AssertionError(f"{H.name} reached a Fraction loop")

    monkeypatch.setattr(core, "_verify_axioms_loop", loop)
    monkeypatch.setattr(core, "_haar_defect_loop", loop)


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
    assert H.exact and H.view.uniform and _beyond_float64(H.view)
    assert not _beyond_float64(builders.su2_fusion(8, q=Fraction(1, 2)).view)
    assert not _beyond_float64(builders.tree_radial(2, 40).view)
    assert _beyond_float64(builders.tree_radial(2, 61).view)
    slow = _verify_axioms_loop(H)
    _no_loops(monkeypatch)
    heights = []
    crt_primes = view.crt_primes
    monkeypatch.setattr(view, "crt_primes", lambda n, h: heights.append(h) or crt_primes(n, h))
    _assert_same_report(verify_axioms(H), slow, exact=True)
    assert heights == [2 * H.size * view.max_abs(H.view.N) ** 2]
    assert _haar_defect(H) == 0


@pytest.mark.parametrize("build", [
    lambda: builders.su2_fusion(16),
    lambda: builders.su2_fusion(16, q=Fraction(1, 2)),
    lambda: quantum.hypergroup_d(quantum.su2_fusion_ring(16, q=Fraction(2, 3))),
    lambda: builders.tree_radial(2, 61),
], ids=["su2_r16", "suq2_r16", "d_q2/3_r16", "tree2_r61"])
def test_valid_tables_over_the_bound_skip_the_loops(build, monkeypatch):
    # the numerators of c are beyond float64's exact range; they run exactly
    # as integers, and associativity on N
    H = build()
    num, _ = H.view.numerators
    assert H.exact and 2 * H.size * view.max_abs(num) ** 2 > view.EXACT_FLOAT
    _no_loops(monkeypatch)
    rep = verify_axioms(H)
    assert rep.passed and all(chk.violation == 0 for chk in rep.checks.values())
    assert rep.triples_checked + rep.triples_skipped == H.size**3
    assert haar_weights(H) == H.haar


def test_residues_find_a_tiny_defect(monkeypatch):
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
    calls = []
    loop = core._verify_axioms_loop
    monkeypatch.setattr(core, "_verify_axioms_loop",
                        lambda *args: calls.append(args) or loop(*args))
    fast = verify_axioms(H)
    assert len(calls) == 1
    _assert_same_report(fast, loop(H), exact=True)
    assert 0 < fast.checks["associativity"].violation < 1e-25
    assert _haar_defect(H) == _haar_defect_loop(H) > 0


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
    _assert_same_report(verify_axioms(H), _verify_axioms_loop(H), exact=True)
    assert _haar_defect(H) == _haar_defect_loop(H)


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
    D = voit_deform(H, chi0(H)).deformed
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
    # a product's stored coefficients are its entries, so one array of N serves both
    V = family(FamilySpec("cyclic", n=20)).view
    K = TableView.product(V, V)
    assert K._form[0] is K.N

    def build(k):
        kept = [TableView.product(V, V) for _ in range(k)]  # noqa: F841 (held to the end)

    # what each product keeps, without the temporaries of one build: x, y, z
    # and pair in int32, N in int64, starts, px, py and has_row (one product
    # per entry here) make 41 bytes per entry; N held twice made 49
    per_product = (_peak_bytes(build, 4) - _peak_bytes(build, 1)) / 3
    assert per_product < 45 * len(K.z)


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


def test_entries_of_float_tables_must_be_finite():
    x, y, z = _z3_entries()
    c = np.ones(len(x))
    c[2] = np.nan
    with pytest.raises(ValueError, match=r"must be finite, got nan in row \(0, 2\)"):
        TableView(3, 0, [0, 2, 1], True, x, y, z, c)


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
    num, den = V.numerators
    assert num.tolist() == [1] * len(V.z) and den == 1
    H = HypergroupTable("z3", W)
    assert H.rows == family(FamilySpec("cyclic", n=3)).rows


def test_a_product_of_zeros_stays_a_stored_row():
    V = TableView(2, 0, [0, 1], True, [0, 0, 1], [0, 1, 1], [0, 1, 0],
                  np.array([1.0, 1.0, 0.0]))
    assert V.has_row.all() and len(V.z) == 3  # (0, 1) mirrored; (1, 1) has no entries
    H = HypergroupTable("empty row", V)
    assert H.row(1, 1) == ()
    assert verify_axioms(H).checks["probability"].violation == 1.0


def test_finite_table_given_a_view_needs_every_row():
    V = TableView(2, 0, [0, 1], True, [0, 0], [0, 1], [0, 1], np.ones(2))
    with pytest.raises(ValueError, match="missing rows"):
        HypergroupTable("z2 without 1.1", V)
    H = HypergroupTable("section", V, truncated=True)
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
    """The exact value of each entry of ``V``, from its numerators."""
    num, den = V.numerators
    return [Fraction(a, den) for a in num.tolist()]


def test_an_empty_row_stays_stored():
    rows = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 1): []}
    H = HypergroupTable.from_rows("z2 with an empty row", 2, [0, 1], rows)
    assert verify_axioms(H).checks["probability"].violation == 1.0
    H = HypergroupTable.from_rows("section", 2, [0, 1], rows, truncated=True)
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
    assert view.exact_defects(H.view) is not None
    fast = verify_axioms(H)
    assert fast.passed
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
    report = verify_axioms(M)
    assert not report.passed
    # the scales are not uniform: the loop reports a failed associativity
    assert (view.exact_defects(M.view) is None) == (report.checks["associativity"].violation > 0)
    _assert_same_report(report, _verify_axioms_loop(M), exact=True)
    assert _haar_defect(M) == _haar_defect_loop(M)


def test_n_form_scales_must_be_nonzero():
    with pytest.raises(ValueError, match="nonzero scales"):
        TableView(2, 0, [0, 1], True, [0, 0, 1], [0, 1, 1], [0, 1, 0], [1, 1, 1],
                  scale=[1, 0])


def test_same_entries_compares_exactly():
    H = builders.su2_fusion(8)
    assert H.view.same_entries(builders.su2_fusion(8).view)
    assert not H.view.same_entries(builders.su2_fusion(8, Fraction(1, 2)).view)
    assert not H.view.same_entries(builders.su2_fusion(9).view)
    # float coefficients compare as floats; 1/3 in float64 is not 1/3
    V = H.view
    floats = TableView(8, 0, range(8), True, V.x, V.y, V.z, V.c)
    assert floats.same_entries(TableView(8, 0, range(8), True, V.x, V.y, V.z, V.c))
    assert not floats.same_entries(V)


def test_associativity_slab_takes_only_checked_columns(monkeypatch):
    # a section checks few triples near its boundary: the slabs hold under
    # half of the n**4 values (x, y, z, v) of full slabs
    H = builders.tree_radial(2, 20)
    V = H.view
    sizes = []
    defect = view._defect
    monkeypatch.setattr(view, "_defect", lambda d, p: sizes.append(d.size) or defect(d, p))
    _, checked = view._associativity(V, V.dense(V.N.astype(float)), None)
    assert checked == _verify_axioms_loop(H).triples_checked
    assert sum(sizes) < H.size**4 // 2


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
