"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned in the assertions; nothing is deferred to later
calibration.
"""

import io
import math
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from hypharm import (
    builders,
    characters,
    check_p2,
    groups,
    norm_A,
    norm_Blambda,
    norm_MA,
    norm_Mcb_approx,
    NormReport,
    verify_axioms,
    voit_deform,
    weak_amenability_witness,
)
from hypharm.amenability import approximate_diagonal, indicator_diagonal
from hypharm.cli import run as cli_run
from hypharm.quantum import (
    CentralFunction,
    central_convolve,
    hat_map,
    hypergroup_d,
    hypergroup_n,
    is_kac,
    su2_fusion_ring,
    zl1_norm,
)

GROUP_NAMES = ("z2", "z4", "s3", "d4", "q8", "a4")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def _tables():
    out = []
    for name in GROUP_NAMES:
        G = groups.get_group(name)
        out.append(builders.conjugacy_hypergroup(G))
        out.append(builders.irr_hypergroup(G))
    return out


def test_criterion_1_axioms_and_haar():
    from hypharm import haar_weights

    with criterion(1, "axioms and Haar weights"):
        for name in GROUP_NAMES:
            G = groups.get_group(name)
            HC = builders.conjugacy_hypergroup(G)
            rep = verify_axioms(HC)
            assert rep.passed and rep.mode == "rational"
            assert all(c.violation == 0.0 for c in rep.checks.values())
            assert tuple(haar_weights(HC)) == tuple(
                Fraction(len(c)) for c in G.conjugacy_classes()
            )
            HI = builders.irr_hypergroup(G)
            rep = verify_axioms(HI)
            assert rep.passed and rep.mode == "rational"
            assert all(c.violation == 0.0 for c in rep.checks.values())
            dims = [int(lab.split("d")[1]) for lab in HI.elements]
            assert tuple(haar_weights(HI)) == tuple(Fraction(d * d) for d in dims)


def test_criterion_2_norm_equality_theorem():
    with criterion(2, "MA = B_lambda = A with equal norms"):
        rng = np.random.default_rng(20240801)
        for H in _tables():
            ct = characters(H)
            for _ in range(100):
                u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
                a = norm_A(H, ct, u, with_witness=False)[0]
                b = norm_Blambda(H, ct, u)
                ma = norm_MA(H, ct, u)
                assert NormReport(H.name, True, a, b, ma).passed(1e-8)


def test_criterion_3_mcb_supremum():
    with criterion(3, "Mcb supremum over finite groups"):
        rng = np.random.default_rng(31415)
        glist = tuple(groups.get_group(n) for n in ("z2", "s3", "d4"))
        for H in (
            builders.conjugacy_hypergroup(groups.symmetric(3)),
            builders.irr_hypergroup(groups.symmetric(3)),
        ):
            ct = characters(H)
            for _ in range(20):
                u = rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
                ma = norm_MA(H, ct, u)
                sup, _per = norm_Mcb_approx(H, ct, u, groups=glist)
                assert abs(sup - ma) < 1e-8 * max(1.0, ma)


def test_criterion_4_p2_classification():
    with criterion(4, "(P2) classification"):
        for H in _tables():
            assert check_p2(H).status == "holds"
        for R in (20, 40):
            assert check_p2(builders.su2_fusion(R)).status == "holds"
        rep = check_p2(builders.tree_radial(2, 40))
        assert rep.status == "fails"
        target = 2 * math.sqrt(2) / 3
        assert abs(rep.cert_bound - target) < 1e-3
        # oracle: truncated Jacobi matrix at R=200
        off = np.full(200, math.sqrt(2) / 3)
        off[0] = 1.0 / math.sqrt(3)
        jac = np.diag(off, 1) + np.diag(off, -1)
        oracle = float(np.linalg.eigvalsh(jac)[-1])
        assert abs(rep.cert_bound - oracle) < 1e-3


def test_criterion_5_voit_pipeline():
    with criterion(5, "Voit deformation and weak amenability"):
        T = builders.tree_radial(2, 40)
        pair = voit_deform(T)
        c = pair.chi0
        assert verify_axioms(pair.deformed, tol=1e-10).passed
        assert pair.defect() is None
        assert check_p2(pair.deformed).status == "holds"
        for n in range(T.size):
            assert (
                abs(pair.deformed.lam[n] - c[n] ** 2 * float(T.haar[n])) <= 1e-10
            )
        wa = weak_amenability_witness(builders.tree_radial(2, 61), radii=(5, 10, 20))
        assert wa.passed
        for name in ("delta1", "delta2"):
            seq = [e.residuals[name] for e in wa.entries]
            assert all(seq[i + 1] < seq[i] for i in range(len(seq) - 1))
        for H in _tables():
            waf = weak_amenability_witness(H)
            assert waf.constant_bound == 1.0
            assert np.array_equal(waf.entries[0].e_alpha, np.ones(H.size))


def test_criterion_6_amenability_construction():
    with criterion(6, "diagonal multiplier amenability"):
        for name in GROUP_NAMES:
            G = groups.get_group(name)
            for H in (
                builders.irr_hypergroup(G),
                builders.conjugacy_hypergroup(G),
            ):
                diag = indicator_diagonal(H)
                assert diag.pointwise_error == 0.0
                assert np.isfinite(diag.ma_norm) and diag.ma_norm > 0
                ad = approximate_diagonal(diag)
                assert ad.commutator_norm == 0.0


def test_criterion_7_kac_isomorphism():
    with criterion(7, "ZL1(G) = A(Irr(G), n) through the hat map"):
        for gname in ("s3", "z4", "d4", "q8"):
            G = groups.get_group(gname)
            k = len(G.conjugacy_classes())
            table = builders.irr_hypergroup(G)
            ct = characters(table)
            rng = np.random.default_rng(hash(gname) % 2**31)
            for _ in range(50):
                f = CentralFunction(
                    gname,
                    tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k)),
                )
                g = CentralFunction(
                    gname,
                    tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k)),
                )
                fh = hat_map(G, f, verify=False)
                gh = hat_map(G, g, verify=False)
                a = norm_A(
                    table,
                    ct,
                    np.array([complex(fh[i]) for i in range(k)]),
                    with_witness=False,
                )[0]
                assert abs(zl1_norm(G, f) - a) < 1e-9 * max(1.0, a)
                ch = hat_map(G, central_convolve(G, f, g), verify=False)
                err = max(
                    abs(complex(ch[i]) - complex(fh[i]) * complex(gh[i]))
                    for i in range(k)
                )
                assert err < 1e-9
        # spot value: G = S3, f = chi_sigma
        G = groups.symmetric(3)
        data = builders.group_character_data(G)
        sigma = next(a for a, d in enumerate(data.dims) if d == 2)
        f = CentralFunction("s3", tuple(data.chars[sigma]))
        table = builders.irr_hypergroup(G)
        ct = characters(table)
        fh = hat_map(G, f)
        a = norm_A(
            table, ct, np.array([complex(fh[i]) for i in range(3)]),
            with_witness=False,
        )[0]
        assert zl1_norm(G, f) == pytest.approx(2 / 3, abs=1e-12)
        assert a == pytest.approx(2 / 3, abs=1e-9)


def test_criterion_8_quantum_fusion():
    with criterion(8, "SU_q(2) fusion hypergroups"):
        ring_half = su2_fusion_ring(12, q=Fraction(1, 2))
        Hd = hypergroup_d(ring_half)
        rep = verify_axioms(Hd, tol=1e-12)
        assert rep.passed
        assert not is_kac(ring_half)
        ring_one = su2_fusion_ring(12, q=1)
        assert is_kac(ring_one)
        assert hypergroup_n(ring_one).rows == hypergroup_d(ring_one).rows
        row = dict(Hd.row(1, 1))
        assert abs(float(row[0]) - 0.16) < 1e-12
        assert abs(float(row[2]) - 0.84) < 1e-12


def test_criterion_9_reproducibility():
    with criterion(9, "byte-identical structured reports"):
        for argv in (
            ["p2", "--family", "tree_radial", "--q", "2", "--radius", "40",
             "--format", "structured", "--seed", "7"],
            ["norms", "--family", "conj", "--group", "s3", "--random", "10",
             "--format", "structured", "--seed", "7"],
            ["characters", "--family", "irr", "--group", "q8",
             "--format", "structured", "--seed", "7"],
            ["quantum", "--q", "1/2", "--radius", "12",
             "--format", "structured", "--seed", "7"],
        ):
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_run(list(argv))
                assert code == 0
                outs.append(buf.getvalue().encode())
            assert outs[0] == outs[1]
