import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hypharm import builders, characters, check_p2, chi0, groups, verify_axioms, voit_deform
from hypharm.builders import FamilySpec, family, product, q_integer
from hypharm.core import DEFAULT_SEED, HypergroupTable
from hypharm.errors import NoIdentity, NonIntegerDimension, NotAssociative, NotLatinSquare

from conftest import brute_force_class_products


# -- finite groups ----------------------------------------------------------


def test_from_cayley_table_s3():
    G = groups.symmetric(3)
    again = groups.from_cayley_table(G.cayley, "S3copy")
    assert again.order == 6 and not again.abelian


def test_from_cayley_table_z4_abelian():
    G = groups.cyclic(4)
    assert G.abelian
    assert G.inverse == (0, 3, 2, 1)


def test_not_latin_square():
    with pytest.raises(NotLatinSquare):
        groups.from_cayley_table([[0, 0], [1, 0]])


def test_no_identity():
    # Latin square in which no row is the identity permutation
    with pytest.raises(NoIdentity):
        groups.from_cayley_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def test_not_associative():
    # Latin square with identity but not associative (order-5 quasigroup)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        groups.from_cayley_table(table)


def _from_cayley_table_loop(table, name="group"):
    """:func:`groups.from_cayley_table` by Python loops: the oracle of its array checks."""
    tab = tuple(tuple(int(v) for v in row) for row in table)
    n = len(tab)
    if any(len(row) != n for row in tab):
        raise NotLatinSquare(f"{name}: table is not square")
    rng = set(range(n))
    for i, row in enumerate(tab):
        if set(row) != rng:
            raise NotLatinSquare(f"{name}: row {i} is not a permutation")
    for j in range(n):
        if {tab[i][j] for i in range(n)} != rng:
            raise NotLatinSquare(f"{name}: column {j} is not a permutation")
    identity = None
    for e in range(n):
        if all(tab[e][x] == x and tab[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity(f"{name}: no two-sided identity")
    for a in range(n):
        for b in range(n):
            ab = tab[a][b]
            for c in range(n):
                if tab[ab][c] != tab[a][tab[b][c]]:
                    raise NotAssociative(f"{name}: ({a}.{b}).{c} != {a}.({b}.{c})")
    inverse = [0] * n
    for a in range(n):
        inverse[a] = tab[a].index(identity)
        if tab[inverse[a]][a] != identity:
            raise NotAssociative(f"{name}: one-sided inverse at {a}")
    abelian = all(tab[a][b] == tab[b][a] for a in range(n) for b in range(n))
    return groups.FiniteGroup(name, n, tab, identity, tuple(inverse), abelian)


def _conjugacy_classes_loop(G):
    n = G.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = sorted({G.mul(G.mul(h, g), G.inverse[h]) for h in range(n)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda cl: (G.identity not in cl, cl[0]))
    return tuple(classes)


def _loop(n, r, c):
    """Z_n (n even) with its intercalate at rows r, r + n/2 and columns c, c + n/2 switched.

    A Latin square with identity 0 for 0 < r, c < n/2: Z_4's is the Klein
    group, the larger ones are not associative.
    """
    T = (np.arange(n)[:, None] + np.arange(n)) % n
    rows, cols = np.ix_([r, r + n // 2], [c, c + n // 2])
    T[rows, cols] = T[rows, cols][::-1]
    return T


def _relabeled(T, seed):
    """The table T with its points renamed by a seeded permutation p: p(x).p(y) = p(x.y)."""
    p = np.random.default_rng(seed).permutation(len(T))
    out = np.empty_like(T)
    out[np.ix_(p, p)] = p[T]
    return out


MALFORMED_TABLES = {
    "empty": [],
    "not-square": [[0, 1], [1]],
    "row": [[0, 0], [1, 0]],
    "column": [[0, 1], [0, 1]],
    "out-of-range": [[0, 2], [2, 0]],
    "negative": [[0, -1], [-1, 0]],
    "beyond-int64": [[0, 2**70], [2**70, 0]],
    "no-identity": [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
    "quasigroup": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                   [4, 3, 1, 2, 0]],
}
MALFORMED_TABLES.update({f"loop-{n}-{r}-{c}": _loop(n, r, c).tolist()
                         for n, r, c in ((4, 1, 1), (6, 1, 2), (8, 3, 2), (12, 5, 4))})
MALFORMED_TABLES.update({f"relabeled-{k}-{seed}": _relabeled(T, seed).tolist() for seed in (1, 2)
                         for k, T in (("loop", _loop(8, 3, 2)),
                                      ("s4", np.array(groups.symmetric(4).cayley)))})


def _outcome(check, table):
    try:
        return check(table, "T")
    except (NotLatinSquare, NoIdentity, NotAssociative) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
def test_from_cayley_table_fails_like_loop(name, monkeypatch):
    # the same exception class and message, or the same group, as the loops;
    # a loop reports its first failing triple, also checked one a at a time
    table = MALFORMED_TABLES[name]
    want = _outcome(_from_cayley_table_loop, table)
    assert _outcome(groups.from_cayley_table, table) == want
    monkeypatch.setattr(groups, "ASSOCIATIVITY_BLOCK", 1)
    assert _outcome(groups.from_cayley_table, table) == want


def test_groups_match_loops():
    builtin = [groups.get_group(g) for g in ("s3", "s4", "a4", "d4", "q8", "klein")]
    for G in builtin + [groups.cyclic(n) for n in range(1, 65)]:
        want = _from_cayley_table_loop(G.cayley, G.name)
        assert groups.from_cayley_table(G.cayley, G.name) == want == G
        assert isinstance(G.cayley[0], tuple)
        assert G.conjugacy_classes() == _conjugacy_classes_loop(G), G.name


def test_group_catalogue_orders(builtin_groups):
    expected = {"z2": 2, "z4": 4, "s3": 6, "d4": 8, "q8": 8, "a4": 12}
    for name, G in builtin_groups.items():
        assert G.order == expected[name]


def test_group_file_roundtrip(tmp_path):
    G = groups.dihedral4()
    p = tmp_path / "d4.cayley"
    groups.save_group(G, str(p))
    back = groups.load_group(str(p), "D4")
    assert back.cayley == G.cayley


# -- conjugacy and irr hypergroups ------------------------------------------


def test_conjugacy_hypergroup_matches_brute_force(builtin_groups):
    for G in builtin_groups.values():
        H = builders.conjugacy_hypergroup(G)
        oracle = brute_force_class_products(G)
        for (i, j), probs in oracle.items():
            row = dict(H.row(i, j))
            for k, p in enumerate(probs):
                assert row.get(k, Fraction(0)) == p


def test_conjugacy_haar_is_class_size(builtin_groups):
    for G in builtin_groups.values():
        H = builders.conjugacy_hypergroup(G)
        assert tuple(H.haar) == tuple(len(c) for c in G.conjugacy_classes())


def test_conj_abelian_group_is_group_table():
    G = groups.cyclic(5)
    H = builders.conjugacy_hypergroup(G)
    K = builders.group_hypergroup(G)
    assert H.rows == K.rows


def test_q8_conjugacy():
    H = builders.conjugacy_hypergroup(groups.quaternion8())
    assert H.size == 5
    assert tuple(H.haar) == (1, 1, 2, 2, 2)


def test_irr_hypergroup_s3():
    H = builders.irr_hypergroup(groups.symmetric(3))
    assert sorted(float(v) for v in H.haar) == [1, 1, 4]
    sigma = next(i for i, lab in enumerate(H.elements) if lab.endswith("d2"))
    row = dict(H.row(sigma, sigma))
    assert row[sigma] == Fraction(1, 2)


def test_irr_hypergroup_d4():
    H = builders.irr_hypergroup(groups.dihedral4())
    assert H.size == 5
    assert sorted(float(v) for v in H.haar) == [1, 1, 1, 1, 4]


def test_irr_abelian_is_dual_group(builtin_groups):
    # Irr(Zn) is isomorphic, up to relabeling, to the group table of Zn
    for n in (2, 4, 5):
        G = groups.cyclic(n)
        H = builders.irr_hypergroup(G)
        assert all(v == 1 for v in H.haar)
        # every row is a point mass: it is a group table
        perms = {}
        for (x, y), entries in H.rows.items():
            assert len(entries) == 1 and entries[0][1] == 1
            perms[(x, y)] = entries[0][0]
        # identity first and closed under the induced operation
        table = [[perms[(min(x, y), max(x, y))] for y in range(n)] for x in range(n)]
        again = groups.from_cayley_table(table, "dual")
        assert again.abelian and again.order == n


def test_conj_and_irr_pass_axioms_exactly(finite_tables):
    for name, H in finite_tables.items():
        rep = verify_axioms(H)
        assert rep.passed and rep.commutative, name
        assert all(chk.violation == 0.0 for chk in rep.checks.values()), name


# The eight groups of the benchmark's finite workloads.
GROUP_NAMES = ("s3", "s4", "a4", "d4", "q8", "klein", "z5", "z6")


def group_rows_loop(G):
    """The group table from Fraction rows, as group_hypergroup built it before its entry arrays."""
    rows = {
        (x, y): [(G.mul(x, y), Fraction(1))]
        for x in range(G.order)
        for y in range(G.order)
    }
    return HypergroupTable.from_rows(
        f"{G.name}_group", G.order, G.inverse, rows, identity=G.identity,
        haar=[Fraction(1)] * G.order, commutative=G.abelian,
        elements=tuple(f"g{i}" for i in range(G.order)))


def conjugacy_rows_loop(G):
    """Conj(G) from the Fraction rows of brute_force_class_products.

    The rows that conjugacy_hypergroup built before its bincount and entry
    arrays replaced the loop.
    """
    classes = G.conjugacy_classes()
    cls_of = G.class_of()
    k = len(classes)
    rows = {(i, j): [(t, p) for t, p in enumerate(probs) if p]
            for (i, j), probs in brute_force_class_products(G).items() if i <= j}
    return HypergroupTable.from_rows(
        f"Conj({G.name})", k, tuple(cls_of[G.inverse[cl[0]]] for cl in classes), rows,
        haar=[Fraction(len(cl)) for cl in classes], elements=tuple(f"C{i}" for i in range(k)))


def character_data_loop(G, tol=1e-6):
    """Dimensions, characters, conjugates and multiplicities by Python loops.

    The loops that the array form of the character data replaced, at the
    default seed; returns ``(class_sizes, dims, chars, mult, conjugate)``.
    """
    ct = characters(builders.conjugacy_hypergroup(G), seed=DEFAULT_SEED)
    sizes = tuple(len(cl) for cl in G.conjugacy_classes())
    k = len(sizes)
    dims = []
    for row in ct.chars:
        d = math.sqrt(G.order / sum(sz * abs(v) ** 2 for sz, v in zip(sizes, row)))
        assert abs(d - round(d)) <= tol
        dims.append(int(round(d)))
    chars = tuple(tuple(dims[a] * complex(v) for v in ct.chars[a]) for a in range(k))
    conjugate = []
    for a in range(k):
        target = tuple(v.conjugate() for v in chars[a])
        conjugate.append(min(range(k), key=lambda b: max(
            abs(chars[b][j] - target[j]) for j in range(k))))
    mult = []
    for a in range(k):
        rows_a = []
        for b in range(k):
            entries = []
            for g in range(k):
                val = sum(sizes[j] * chars[a][j] * chars[b][j] * chars[g][j].conjugate()
                          for j in range(k)) / G.order
                assert abs(val - round(val.real)) <= tol
                entries.append(int(round(val.real)))
            rows_a.append(tuple(entries))
        mult.append(tuple(rows_a))
    return sizes, tuple(dims), chars, tuple(mult), tuple(conjugate)


def irr_rows_loop(G):
    """Irr(G) from Fraction rows d_g N / (d_a d_b), built from character_data_loop."""
    _, dims, _, mult, conjugate = character_data_loop(G)
    n = len(dims)
    rows = {(a, b): [(g, Fraction(dims[g] * mult[a][b][g], dims[a] * dims[b]))
                     for g in range(n) if mult[a][b][g]]
            for a in range(n) for b in range(a, n)}
    return HypergroupTable.from_rows(f"Irr({G.name})", n, conjugate, rows,
                                     haar=[Fraction(d * d) for d in dims],
                                     elements=tuple(f"pi{a}d{d}" for a, d in enumerate(dims)))


def _groups_and_a_loaded_one(tmp_path):
    out = {name: groups.get_group(name) for name in GROUP_NAMES}
    path = tmp_path / "s3.cayley"
    groups.save_group(groups.symmetric(3), str(path))
    out["s3_file"] = groups.load_group(str(path), "S3file")
    return out


def _assert_same_table(H, oracle):
    assert (H.name, H.size, H.identity, H.involution, H.elements) == (
        oracle.name, oracle.size, oracle.identity, oracle.involution, oracle.elements)
    assert (H.exact, H.commutative, H.truncated) == (oracle.exact, oracle.commutative,
                                                     oracle.truncated)
    assert [(type(v), v) for v in H.haar] == [(type(v), v) for v in oracle.haar]
    V, W = H.view, oracle.view
    for name in ("px", "py", "starts", "x", "y", "z", "inv"):
        assert np.array_equal(getattr(V, name), getattr(W, name)), (H.name, name)
    assert V.c.tobytes() == W.c.tobytes(), H.name
    assert V.same_entries(W), H.name
    assert list(H.rows) == list(oracle.rows), H.name
    assert [[(type(z), z, type(v), v) for z, v in row] for row in H.rows.values()] == [
        [(type(z), z, type(v), v) for z, v in row] for row in oracle.rows.values()], H.name


def test_group_hypergroup_matches_fraction_loop(tmp_path):
    cases = list(_groups_and_a_loaded_one(tmp_path).values())
    cases += [groups.cyclic(n) for n in (*range(1, 17), 96)]
    for G in cases:
        H = builders.group_hypergroup.__wrapped__(G)  # a fresh build, not the shared table
        assert H._rows is None, G.name
        _assert_same_table(H, group_rows_loop(G))


def test_conjugacy_hypergroup_matches_fraction_loop(tmp_path):
    for G in _groups_and_a_loaded_one(tmp_path).values():
        _assert_same_table(builders.conjugacy_hypergroup(G), conjugacy_rows_loop(G))


def test_irr_hypergroup_matches_fraction_loop(tmp_path):
    for G in _groups_and_a_loaded_one(tmp_path).values():
        _assert_same_table(builders.irr_hypergroup(G), irr_rows_loop(G))


def test_character_data_matches_loops(tmp_path):
    for G in _groups_and_a_loaded_one(tmp_path).values():
        data = builders.group_character_data(G)
        sizes, dims, chars, mult, conjugate = character_data_loop(G)
        assert (data.class_sizes, data.dims, data.mult, data.conjugate) == (
            sizes, dims, mult, conjugate), G.name
        assert data.chars == chars, G.name


def test_character_integers_do_not_depend_on_the_seed():
    for name in GROUP_NAMES:
        G = groups.get_group(name)
        data = builders.group_character_data(G)
        for seed in (1, 7, 12345, 2**31 - 1):
            other = builders._character_data(G, seed=seed)
            assert (other.class_sizes, other.dims, other.mult, other.conjugate) == (
                data.class_sizes, data.dims, data.mult, data.conjugate), (name, seed)


def test_irr_hypergroup_builds_from_the_cached_integers():
    G = groups.symmetric(4)
    builders.irr_hypergroup(G)
    before = builders.group_character_data.cache_info()
    H = builders.irr_hypergroup.__wrapped__(G)  # a fresh build, not the shared table
    after = builders.group_character_data.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # Fraction rows only once something reads them
    assert verify_axioms(H).passed and H._rows is None


def test_finite_tables_are_built_once_per_group(tmp_path):
    for G in _groups_and_a_loaded_one(tmp_path).values():
        for build in (builders.conjugacy_hypergroup, builders.irr_hypergroup,
                      builders.group_hypergroup):
            H = build(G)
            assert build(G) is H, (build.__name__, G.name)
            # shared, so read-only: the view's arrays and the float weights
            V = H.view
            for name in ("x", "y", "z", "c", "N", "px", "py", "starts", "pair",
                         "has_row", "inv", "keys"):
                assert not getattr(V, name).flags.writeable, (H.name, name)
            assert not H.lam.flags.writeable
        assert builders.group_character_data(G).irr[0] is builders.irr_hypergroup(G)
    # an equal group, loaded again, shares the table
    path = tmp_path / "s3.cayley"
    assert (builders.irr_hypergroup(groups.load_group(str(path), "S3file"))
            is builders.irr_hypergroup(groups.load_group(str(path), "S3file")))


def test_irr_row_sums_are_checked(monkeypatch):
    G = groups.symmetric(3)
    data = builders.group_character_data(G)
    mult = [[list(row) for row in rows] for rows in data.mult]
    sigma = data.dims.index(2)
    mult[sigma][sigma][0] += 1  # sigma x sigma now weighs 5, not d_sigma^2 = 4
    broken = dataclasses.replace(data, mult=tuple(tuple(map(tuple, r)) for r in mult))
    monkeypatch.setattr(builders, "group_character_data", lambda _: broken)
    with pytest.raises(NonIntegerDimension, match="does not sum to 1"):
        builders.irr_hypergroup.__wrapped__(G)  # a fresh build, not the shared table


# -- products ----------------------------------------------------------------


def test_product_with_trivial_group():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    E = builders.family(FamilySpec("cyclic", n=1))
    K = product(H, E)
    assert K.size == H.size
    assert [dict(K.row(x, y)) for (x, y) in sorted(H.rows)] == [
        dict(H.row(x, y)) for (x, y) in sorted(H.rows)
    ]


def test_product_conj_s3_squared():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    K = product(H, H)
    assert K.size == 9
    lam = [float(v) for v in K.haar]
    assert lam == [
        float(a) * float(b) for a in (1, 3, 2) for b in (1, 3, 2)
    ]
    assert verify_axioms(K).passed


def test_product_z2_z2_is_klein():
    Z2 = builders.family(FamilySpec("cyclic", n=2))
    K = product(Z2, Z2)
    klein = builders.group_hypergroup(groups.klein())
    assert K.rows == klein.rows


def test_product_axioms_preserved_noncommutative():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    G = builders.group_hypergroup(groups.symmetric(3))
    K = product(H, G)
    rep = verify_axioms(K)
    assert rep.passed and not rep.commutative


def product_rows_loop(H1, H2):
    """The table H1 x H2 from one Fraction product per pair of factor entries.

    c^{(z,w)}_{(x,u),(y,v)} = c^z_{x,y} c^w_{u,v} over every pair of rows:
    the construction the index arithmetic of TableView.product replaced.
    """
    n2 = H2.size

    def pair(x, u):
        return x * n2 + u

    rows = {}
    for x in range(H1.size):
        for y in range(H1.size):
            row1 = H1.row(x, y)
            for u in range(n2):
                for v in range(n2):
                    rows[(pair(x, u), pair(y, v))] = [
                        (pair(z, w), c1 * c2) for z, c1 in row1 for w, c2 in H2.row(u, v)
                    ]
    involution = [pair(H1.involution[x], H2.involution[u])
                  for x in range(H1.size) for u in range(n2)]
    return HypergroupTable.from_rows(f"{H1.name}x{H2.name}", H1.size * n2, involution, rows,
                                     identity=pair(H1.identity, H2.identity),
                                     commutative=H1.commutative and H2.commutative)


# the product factors of the benchmark's amenability_products workload
PRODUCT_FACTORS = (("conj", "s3"), ("irr", "s3"), ("conj", "klein"), ("irr", "a4"),
                   ("irr", "d4"), ("conj", "q8"))


def _product_pairs():
    tables = {f: family(FamilySpec(f[0], group=f[1])) for f in PRODUCT_FACTORS}
    pairs = [(tables[a], tables[b])
             for a, b in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2)]
    pairs += [(family(FamilySpec("cyclic", n=n)),) * 2 for n in range(3, 7)]
    pairs.append((builders.group_hypergroup(groups.symmetric(3)),
                   builders.conjugacy_hypergroup(groups.quaternion8())))
    return pairs


def test_product_matches_row_pair_loop():
    pairs = _product_pairs()
    assert len(pairs) == 26
    for H1, H2 in pairs:
        K, oracle = product(H1, H2), product_rows_loop(H1, H2)
        assert (K.exact, K.commutative) == (oracle.exact, oracle.commutative)
        V, W = K.view, oracle.view
        for name in ("px", "py", "starts", "x", "y", "z", "inv"):
            assert np.array_equal(getattr(V, name), getattr(W, name)), (K.name, name)
        assert V.c.tobytes() == W.c.tobytes(), K.name
        assert V.same_entries(W), K.name
        assert K.rows == oracle.rows, K.name


def test_product_of_float_tables_multiplies_floats():
    H = builders.irr_hypergroup(groups.symmetric(4))
    F = HypergroupTable.from_rows("float", H.size, H.involution,
                                  {k: [(z, float(c)) for z, c in row]
                                   for k, row in H.rows.items()},
                                  haar=[float(v) for v in H.haar])
    for H1, H2 in ((F, H), (H, F), (F, F)):
        K, oracle = product(H1, H2), product_rows_loop(H1, H2)
        assert not K.exact
        assert K.view.c.tobytes() == oracle.view.c.tobytes()
        assert K.rows == oracle.rows


def test_product_with_numerators_beyond_float64():
    # {e, a} with a.a = (1/q) e + (1 - 1/q) a; q^2 > 2**63 leaves int64 too
    q = 3**41
    H = HypergroupTable.from_rows("big", 2, [0, 1], {
        (0, 0): [(0, Fraction(1))], (0, 1): [(1, Fraction(1))],
        (1, 1): [(0, Fraction(1, q)), (1, Fraction(q - 1, q))]})
    for H1, H2 in ((H, H), (H, builders.conjugacy_hypergroup(groups.symmetric(3)))):
        K, oracle = product(H1, H2), product_rows_loop(H1, H2)
        assert K.view.c.tobytes() == oracle.view.c.tobytes()
        assert K.rows == oracle.rows
        assert verify_axioms(K).passed


def test_product_rows_are_built_on_first_use():
    H = builders.conjugacy_hypergroup(groups.symmetric(3))
    K = product(H, H)
    assert verify_axioms(K).passed
    assert K._rows is None
    assert K.has_row(4, 7) and K._rows is None
    assert K.rows and K._rows is not None


def test_product_size_cap():
    H = builders.su2_fusion(4)
    with pytest.raises(ValueError):
        product(
            builders.group_hypergroup(groups.cyclic(101)),
            builders.group_hypergroup(groups.cyclic(100)),
        )
    with pytest.raises(ValueError):
        product(H, H)  # truncated unsupported


# -- families ----------------------------------------------------------------


def su2_tensor_oracle(a, b):
    """Clebsch-Gordan by character-polynomial multiplication.

    chi_a has exponent support {-(a-1), ..., a-1} step 2; multiply the
    Laurent polynomials and peel off leading chi_c terms.
    """
    poly = {}
    for i in range(-(a - 1), a, 2):
        for j in range(-(b - 1), b, 2):
            poly[i + j] = poly.get(i + j, 0) + 1
    out = {}
    while any(poly.values()):
        top = max(k for k, v in poly.items() if v)
        mult = poly[top]
        c = top + 1
        out[c] = mult
        for k in range(-(c - 1), c, 2):
            poly[k] -= mult
    return out


def test_su2_fusion_matches_clebsch_gordan():
    H = builders.su2_fusion(12)
    for a in range(1, 7):
        for b in range(a, 7):
            row = dict(H.row(a - 1, b - 1))
            oracle = su2_tensor_oracle(a, b)
            assert set(row) == {c - 1 for c in oracle}
            for c, n in oracle.items():
                assert row[c - 1] == Fraction(n * c, a * b)


def test_su2_row_sums_exact():
    H = builders.su2_fusion(20)
    for entries in H.rows.values():
        assert sum(v for _, v in entries) == 1


def test_su2_delta2_squared():
    H = builders.su2_fusion(8)
    assert dict(H.row(1, 1)) == {0: Fraction(1, 4), 2: Fraction(3, 4)}


def test_suq2_q1_equals_su2():
    assert builders.su2_fusion(10, q=1).rows == builders.su2_fusion(10).rows


def test_suq2_qhalf_values():
    H = builders.su2_fusion(12, q=Fraction(1, 2))
    row = dict(H.row(1, 1))
    assert row[0] == Fraction(4, 25) and row[2] == Fraction(21, 25)
    # q-integer identity: haar = [b]^2 = 1/c^e_{b,b}
    for b in range(1, 7):
        assert H.haar[b - 1] == 1 / dict(H.row(b - 1, b - 1))[0]


def su2_fusion_rows_loop(R, q):
    """The rows of su2_fusion(R, q) by one division [c]_q / ([a]_q [b]_q) per entry.

    The Fraction (or float) loop that the entry arrays of su2_fusion replaced.
    """
    qi = [q_integer(k, builders.check_q(q)) for k in range(R + 2)]
    return {(a - 1, b - 1): tuple((c - 1, qi[c] / (qi[a] * qi[b]))
                                  for c in range(b - a + 1, a + b, 2))
            for a in range(1, R + 1) for b in range(a, R + 1) if a + b - 1 <= R}


SU2_QS = [1, Fraction(1, 2), Fraction(2, 3), 0.7]


@pytest.mark.parametrize("q", SU2_QS, ids=str)
def test_su2_fusion_matches_fraction_loop(q):
    for R in range(2, 41):
        H, oracle = builders.su2_fusion(R, q=q), su2_fusion_rows_loop(R, q)
        assert H.exact == (not isinstance(q, float))
        assert list(H.rows) == list(oracle), R
        assert [[(z, type(v), v) for z, v in row] for row in H.rows.values()] == [
            [(z, type(v), v) for z, v in row] for row in oracle.values()], R
        V = H.view
        want = np.array([float(dict(oracle[(min(x, y), max(x, y))])[z])
                         for x, y, z in zip(V.x.tolist(), V.y.tolist(), V.z.tolist())])
        assert V.c.tobytes() == want.tobytes(), R
        loop = HypergroupTable.from_rows("loop", R, range(R), oracle, truncated=True)
        assert V.c.tobytes() == loop.view.c.tobytes(), R
        if H.exact:
            assert V.same_entries(loop.view), R


@pytest.mark.parametrize("build, status", [
    (lambda: builders.su2_fusion(60, q=Fraction(1, 2)), "fails"),
    (lambda: builders.su2_fusion(60), "holds"),
    (lambda: builders.tree_radial(2, 60), "fails"),
], ids=["suq2", "su2", "tree2"])
def test_check_p2_reads_single_rows(build, status):
    H = build()
    assert check_p2(H).status == status
    # no Fraction rows dict, and no float coefficients: no big-int divisions
    assert H._rows is None and "c" not in vars(H.view)
    assert H.row(1, 5) == H.rows[(1, 5)] and H._rows is not None


@pytest.mark.parametrize("build", [
    lambda: builders.su2_fusion(24),
    lambda: builders.su2_fusion(24, q=Fraction(1, 2)),
    lambda: builders.su2_fusion(24, q=0.7),
    lambda: builders.tree_radial(2, 24),
    lambda: builders.tree_radial(3, 25),
], ids=["su2", "suq2", "suq2-float", "tree2", "tree3"])
def test_voit_deform_values_match_loop(build):
    H = build()
    chi = chi0(H)
    D = voit_deform(H, chi).deformed.view
    V = H.view
    want = [chi[z] * float(dict(H.row(x, y))[z]) / (chi[x] * chi[y])
            for x, y, z in zip(V.x.tolist(), V.y.tolist(), V.z.tolist())]
    assert D.c.tobytes() == np.array(want).tobytes()
    for name in ("px", "py", "starts", "x", "y", "z", "inv", "has_row"):
        assert np.array_equal(getattr(D, name), getattr(V, name)), name


@pytest.mark.parametrize("q", [1, 1.0, Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), 0.7],
                         ids=str)
def test_q_integers_are_q_integer(q):
    R = 60
    want = [q_integer(k, q) for k in range(R + 2)]
    if isinstance(q, Fraction) and q != 1:
        # the defining expression in Fractions
        assert want == [(q**k - q**-k) / (q - q**-1) for k in range(R + 2)]
    got = builders.q_integers(q, R)
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
    assert [str(v) for v in got] == [str(v) for v in want]


def test_q_integers_overflow_names_q_and_radius():
    assert builders.q_integers(0.001, 100)[-1] < float("inf")
    with pytest.raises(ValueError, match=r"q = 0.001 is too small for radius 200"):
        builders.q_integers(0.001, 200)
    # [6726]_0.9 overflows in the quotient, without an OverflowError
    assert builders.q_integer(6726, 0.9) == float("inf")
    with pytest.raises(ValueError, match=r"q = 0.9 is too small for radius 6725"):
        builders.q_integers(0.9, 6725)


def test_q_integer_limits():
    assert q_integer(5, 1) == 5
    assert q_integer(2, Fraction(1, 2)) == Fraction(5, 2)
    assert q_integer(3, Fraction(1, 2)) == Fraction(21, 4)
    assert abs(q_integer(4, 0.5) - float(q_integer(4, Fraction(1, 2)))) < 1e-12


def test_tree_radial_structure():
    T = builders.tree_radial(2, 20)
    assert dict(T.row(1, 1)) == {0: Fraction(1, 3), 2: Fraction(2, 3)}
    assert dict(T.row(1, 5)) == {4: Fraction(1, 3), 6: Fraction(2, 3)}
    # lam(n) = 3 * 2^(n-1)
    for n in range(1, 21):
        assert T.haar[n] == Fraction(3 * 2 ** (n - 1))
    # haar consistency where the diagonal row is stored
    for n in range(1, 11):
        assert T.haar[n] == 1 / dict(T.row(n, n))[0]


def test_tree_radial_matches_su2_style_recurrence_generation():
    # dual route: the same table generated from generic vector convolution
    T = builders.tree_radial(2, 12)
    rep = verify_axioms(T)
    assert rep.passed
    assert all(chk.violation == 0.0 for chk in rep.checks.values())


def tree_radial_recurrence_rows(q, R):
    """The rows of tree_radial(q, R) from the generator's row by associativity.

    delta_{m+1} . delta_n = (delta_1 . (delta_m . delta_n)
                             - (1/(q+1)) delta_{m-1} . delta_n) / (q/(q+1)),
    in rational arithmetic: the O(R^3) construction the closed form replaced.
    """
    lo, hi = Fraction(1, q + 1), Fraction(q, q + 1)
    rows = {}
    for n in range(R + 1):
        rows[(0, n)] = {n: Fraction(1)}
    for n in range(1, R):
        rows[(1, n)] = {n - 1: lo, n + 1: hi}

    def convolve_gen(v):
        out = {}
        for z, c in v.items():
            for w, c2 in rows[(1, z)].items() if z >= 1 else [(1, Fraction(1))]:
                out[w] = out.get(w, Fraction(0)) + c * c2
        return out

    for m in range(1, R):
        for n in range(m + 1, R - m):
            lifted = convolve_gen(rows[(m, n)])
            prev = rows[(m - 1, n)]
            out = {z: (lifted.get(z, Fraction(0)) - lo * prev.get(z, Fraction(0))) / hi
                   for z in set(lifted) | set(prev)}
            rows[(m + 1, n)] = {z: c for z, c in out.items() if c}
    return {k: tuple(sorted(v.items())) for k, v in rows.items()}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tree_radial_closed_form_matches_recurrence(q):
    for R in range(2, 25):
        T = builders.tree_radial(q, R)
        oracle = tree_radial_recurrence_rows(q, R)
        assert list(T.rows) == list(oracle), R
        assert T.rows == oracle, R


def test_chebyshev_alias():
    A = family(FamilySpec("chebyshev", radius=8))
    B = family(FamilySpec("su2_fusion", radius=8))
    assert A.rows == B.rows


def test_family_validation():
    with pytest.raises(ValueError):
        family(FamilySpec("tree_radial", q=1, radius=10))
    with pytest.raises(ValueError):
        family(FamilySpec("suq2_fusion", q=Fraction(3, 2), radius=10))
    with pytest.raises(ValueError):
        family(FamilySpec("nosuch"))
    with pytest.raises(ValueError):
        family(FamilySpec("cyclic"))


def tree_sphere_oracle(q, m, n):
    """Count-based oracle on an explicit rooted (q+1)-regular tree.

    Fix a vertex a at distance m from the root, enumerate all vertices b at
    tree distance n from a, and histogram their root distances.  Completely
    independent of the recurrence that generates the table.
    """
    depth = m + n + 1
    children = {0: []}
    parent = {0: None}
    level = {0: 0}
    frontier = [0]
    next_id = 1
    for d in range(depth):
        new_frontier = []
        for v in frontier:
            fanout = q + 1 if v == 0 else q
            for _ in range(fanout):
                children[v].append(next_id)
                children[next_id] = []
                parent[next_id] = v
                level[next_id] = d + 1
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier

    # pick one vertex at depth m (radial functions do not depend on choice)
    a = next(v for v in level if level[v] == m)

    def dist(u, v):
        # walk both nodes up to their common ancestor
        du, dv = level[u], level[v]
        steps = 0
        while du > dv:
            u, du, steps = parent[u], du - 1, steps + 1
        while dv > du:
            v, dv, steps = parent[v], dv - 1, steps + 1
        while u != v:
            u, v, steps = parent[u], parent[v], steps + 2
        return steps

    counts = {}
    total = 0
    for b in level:
        if dist(a, b) == n:
            counts[level[b]] = counts.get(level[b], 0) + 1
            total += 1
    return {z: Fraction(c, total) for z, c in counts.items()}


def test_tree_radial_matches_graph_oracle():
    q = 2
    T = builders.tree_radial(q, 8)
    for m in range(0, 4):
        for n in range(m, 7 - m):
            oracle = tree_sphere_oracle(q, m, n)
            assert dict(T.row(m, n)) == oracle, (m, n)


def test_tree_radial_q3_matches_graph_oracle():
    T = builders.tree_radial(3, 6)
    for m in range(0, 3):
        for n in range(m, 6 - m):
            assert dict(T.row(m, n)) == tree_sphere_oracle(3, m, n), (m, n)


def test_dimension_recovery_fails_loudly():
    # the integer-rounding guard raises rather than silently rounding
    from hypharm.builders import _character_data
    from hypharm.errors import NonIntegerDimension

    with pytest.raises(NonIntegerDimension):
        _character_data(groups.symmetric(3), tol=0.0)
