import argparse
import dataclasses
import gc
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import hypharm
from hypharm import builders, core, groups, save_table, spectral
from hypharm.cli import run
from hypharm.errors import DominationFailure


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_verify_conj_s3_passes():
    code, out = _run(["verify", "--family", "conj", "--group", "s3"])
    assert code == 0
    assert "\npass: true\n" in out


def test_verify_bad_table_exits_one(tmp_path):
    p = tmp_path / "bad.hyp"
    p.write_text(
        "hypergroup v1\nname bad\nsize 2\nidentity 0\ninvolution 0 1\n"
        "commutative 1\ntruncated 0\nhaar 1 1\ntriples\n"
        "0 0 0 1\n0 1 1 1\n1 1 0 9/10\n1 1 1 1/10\nend\n"
    )
    code, out = _run(["verify", "--file", str(p)])
    assert code == 1


def test_usage_error_exit_two(capsys):
    code = run(["verify"])  # no table spec
    assert code == 2 or code is None


def test_missing_file_exit_two():
    code, _ = _run(["verify", "--file", "/nonexistent/table.hyp"])
    assert code == 2


def test_characters_structured_output():
    code, out = _run(
        ["characters", "--family", "conj", "--group", "s3", "--format", "structured"]
    )
    assert code == 0
    assert out.startswith("hypharm-report v1\n")
    assert out.rstrip().endswith("end")
    assert "char.0.values" in out


def test_norms_subcommand_passes():
    code, out = _run(
        ["norms", "--family", "irr", "--group", "s3", "--random", "3", "--mcb"]
    )
    assert code == 0
    assert "\nu0.norm_mcb: " in out


def test_p2_tree_reports_fails_with_exit_zero():
    code, out = _run(
        ["p2", "--family", "tree_radial", "--q", "2", "--radius", "40"]
    )
    assert code == 0
    assert "fails" in out
    assert "0.9428" in out


def test_p2_jobs_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["p2", "--family", "tree_radial", "--q", "2", "--radius", "40",
             "--jobs", "2"])
    assert exc.value.code == 2


def test_amenability_q8_exit_zero():
    code, out = _run(["amenability", "--family", "irr", "--group", "q8"])
    assert code == 0
    assert "\none_delta.norm_ma: " in out


@pytest.mark.parametrize("argv, target, change", [
    (["--family", "irr", "--group", "q8"], "amenability_report",
     {"commutator_norm": 1e-3}),
    (["--family", "tree_radial", "--q", "2", "--radius", "24", "--radii", "2,4,7"],
     "weak_amenability_witness", {"residuals_decreasing": False}),
], ids=["finite", "section"])
def test_amenability_exit_code_reads_the_verdict(monkeypatch, argv, target, change):
    build = getattr(hypharm.amenability, target)
    monkeypatch.setattr(hypharm.amenability, target,
                        lambda *a, **k: dataclasses.replace(build(*a, **k), **change))
    code, out = _run(["amenability"] + argv)
    assert (code, out.splitlines()[-1]) == (1, "pass: false")


@pytest.mark.parametrize("slack, tol, code", [
    (-1e-9, "1e-9", 0),
    (-2e-9, "1e-9", 1),
    (-1e-8, "1e-3", 0),
    (-1e-8, "1e-12", 1),
], ids=["within", "beyond", "loose-tol", "tight-tol"])
def test_amenability_tol_bounds_the_submultiplicative_slack(monkeypatch, capsys, slack, tol,
                                                            code):
    # |1_Delta| <= |phi^-1| |psi| up to --tol: within it the report passes,
    # beyond it the check fails
    diag = hypharm.amenability.indicator_diagonal
    monkeypatch.setattr(hypharm.amenability, "indicator_diagonal", lambda *a, **k: (
        dataclasses.replace(diag(*a, **k), submultiplicative_slack=slack)))
    got, out = _run(["amenability", "--family", "conj", "--group", "s3", "--tol", tol])
    assert got == code
    if code:
        assert out == ""
        assert capsys.readouterr().err == (
            f"check failed: Conj(S3): |1_Delta| exceeds |phi^-1| |psi| by {-slack:.2e}\n")
    else:
        assert out.splitlines()[-1] == "pass: true"


def test_amenability_radius_too_small_exit_two(capsys):
    code, _ = _run(
        ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "40"]
    )
    assert code == 2


@pytest.mark.parametrize("radii", ["-1", "2,-3", "3,3"])
def test_amenability_negative_radius_exit_two(radii, capsys):
    code, _ = _run(
        ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "24",
         "--radii", radii]
    )
    assert code == 2
    assert "radii" in capsys.readouterr().err


AMENABILITY_R24 = ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "24"]
RADII = "--radii must be a comma-separated list of integers >= 0, got "


@pytest.mark.parametrize("argv, message", [
    (AMENABILITY_R24 + ["--radii", "x"], RADII + "'x'"),
    (AMENABILITY_R24 + ["--radii", "3,,4"], RADII + "'3,,4'"),
    (AMENABILITY_R24 + ["--radii", ""], RADII + "''"),
    (["amenability", "--family", "conj", "--group", "s3", "--radii", "x"],
     "--radii needs a section; a finite table takes none"),
    (["norms", "--family", "conj", "--group", "s3", "--groups", "s3"], "--groups needs --mcb"),
    (["norms", "--family", "conj", "--group", "z"], "unknown group 'z'"),
    (["norms", "--family", "conj", "--group", "s3", "--mcb", "--groups", "foo"],
     "unknown group 'foo'"),
    (["norms", "--family", "tree_radial", "--q", "2", "--radius", "24", "--random", "1",
      "--mcb", "--groups", "s3"], "--mcb needs a finite table; a section takes none"),
], ids=["radii-word", "radii-empty-item", "radii-empty", "radii-on-finite", "groups-without-mcb",
        "unknown-group", "unknown-mcb-group", "mcb-on-section"])
def test_input_error_names_the_option(argv, message, capsys):
    # an option the command would not read is rejected, and a KeyError's
    # message is printed without the quotes of its str()
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["characters", "--family", "tree_radial", "--q", "2", "--radius", "8"],
     "characters needs a finite table; use p2/deform on sections"),
    (["quantum", "--q", "1/2"], "quantum needs --fusion-file, --group, or --q/--radius"),
    (["p2", "--family", "su2_fusion"], "su2_fusion needs a truncation radius"),
    (["p2", "--family", "suq2_fusion", "--radius", "8"],
     "suq2_fusion needs q and a truncation radius"),
    (["p2", "--family", "tree_radial", "--radius", "8"],
     "tree_radial needs q and a truncation radius"),
    (["p2", "--family", "tree_radial", "--q", "2", "--radius", "1"],
     "tree_radial needs radius >= 2"),
    (["p2", "--family", "su2_fusion", "--radius", "1"], "fusion section needs radius >= 2"),
    (["verify", "--family", "conj"], "family 'conj' needs a group"),
], ids=["characters-on-section", "quantum-without-ring", "su2-without-radius",
        "suq2-without-q", "tree-without-q", "tree-radius-1", "fusion-radius-1",
        "conj-without-group"])
def test_usage_error_names_what_is_missing(argv, message, capsys):
    # a command or family given too little to build its table exits 2
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_norms_without_functions_exit_two(count, capsys):
    # with no function checked there is no evidence for a verdict
    code, out = _run(["norms", "--family", "cyclic", "--n", "4", "--random", count])
    assert code == 2
    assert out == ""
    assert "--random" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0", "-1", "0.0", "3/2"])
def test_quantum_bad_q_exit_two(q, capsys):
    code, _ = _run(["quantum", "--q", q, "--radius", "5"])
    assert code == 2
    assert "q must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "suq2_fusion", "--q", "0.001", "--radius", "200"],
     "q = 0.001 is too small for radius 200"),
    (["quantum", "--q", "1e-300", "--radius", "8"], "q = 1e-300 is too small for radius 8"),
    (["p2", "--family", "suq2_fusion", "--q", "1e-200", "--radius", "24"],
     "q = 1e-200 is too small for radius 24"),
    (["verify", "--family", "suq2_fusion", "--q", "1/1000", "--radius", "103"],
     "q = 1/1000 is too small for radius 103"),
    (["quantum", "--q", "1/1000", "--radius", "120"], "q = 1/1000 is too small for radius 120"),
    (["p2", "--family", "suq2_fusion", "--q", "1/1000", "--radius", "53"],
     "suq2_fusion_q1/1000_R53: Haar weights beyond the range of float64"),
    (["amenability", "--family", "suq2_fusion", "--q", "1/1000", "--radius", "60",
      "--radii", "2,4,7"], "suq2_fusion_q1/1000_R60: Haar weights beyond the range of float64"),
    (["p2", "--family", "suq2_fusion", "--q", "0.001", "--radius", "53"],
     "suq2_fusion_q0.001_R53: Haar weights beyond the range of float64"),
    (["deform", "--family", "suq2_fusion", "--q", "0.001", "--radius", "53"],
     "suq2_fusion_q0.001_R53: Haar weights beyond the range of float64"),
    (["amenability", "--family", "suq2_fusion", "--q", "0.001", "--radius", "60",
      "--radii", "2,4,7"], "suq2_fusion_q0.001_R60: Haar weights beyond the range of float64"),
    (["verify", "--family", "suq2_fusion", "--q", "0.01", "--radius", "80"],
     "suq2_fusion_q0.01_R80: Haar weights beyond the range of float64"),
    (["quantum", "--q", "0.01", "--radius", "80"],
     "(Irr(SUq2)_q0.01_R80,d): Haar weights beyond the range of float64"),
], ids=["verify", "quantum", "p2", "verify-rational", "quantum-rational", "p2-rational",
        "amenability-rational", "p2-float-haar", "deform-float-haar", "amenability-float-haar",
        "verify-float-haar", "quantum-float-haar"])
def test_overflowing_q_exit_two(argv, message, capsys):
    # q-integers or Haar weights that leave float64 at this radius are an input error
    code, out = _run(argv)
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["deform", "--family", "suq2_fusion", "--q", "1/1000", "--radius", "30"],
    ["quantum", "--q", "1/1000", "--radius", "60"],
    ["p2", "--family", "suq2_fusion", "--q", "0.001", "--radius", "52"],
    ["deform", "--family", "suq2_fusion", "--q", "0.001", "--radius", "52"],
    ["amenability", "--family", "suq2_fusion", "--q", "0.001", "--radius", "52",
     "--radii", "2,4,7"],
], ids=["deform", "quantum", "p2-float-52", "deform-float-52", "amenability-float-52"])
def test_rational_q_sections_within_float64_pass(argv):
    # q-integers far beyond those of q = 1/2 that float64 still holds; at
    # q = 0.001 the largest Haar weight [52]_q^2 is about 1e306
    code, _ = _run(argv)
    assert code == 0


def test_kac_ring_file_with_float_dimensions_passes(tmp_path):
    # n == d exactly, so the (Irr, d) table is the (Irr, n) table, not a
    # float table with the dimensions' quotients rounded
    ring = hypharm.quantum.group_fusion_ring(groups.get_group("s4"))
    path = tmp_path / "s4.fus"
    hypharm.quantum.save_fusion_ring(ring, str(path))
    exact = "ddims " + " ".join(map(str, ring.ndims))
    text = path.read_text()
    assert exact in text
    path.write_text(text.replace(exact, "ddims " + " ".join(map(str, map(float, ring.ndims)))))
    code, out = _run(["quantum", "--fusion-file", str(path)])
    assert "\nkac: true\n" in out and "\nn_equals_d: true\n" in out
    assert (code, out.splitlines()[-1]) == (0, "pass: true")


def test_quantum_ring_file_haar_beyond_float64_exit_two(tmp_path, capsys):
    # finite quantum dimensions whose squares, the Haar weights, leave float64
    path = tmp_path / "big.fus"
    path.write_text("fusionring v1\nname big\nlabels e x\ntrivial 0\nconj 0 1\nndims 1 1\n"
                    "ddims 1 1e200\nmult\ne e e 1\ne x x 1\nend\n")
    code, out = _run(["quantum", "--fusion-file", str(path)])
    assert (code, out) == (2, "")
    assert "(big,d): Haar weights beyond the range of float64" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "suq2_fusion", "--q", "0.01", "--radius", "78"],
    ["quantum", "--q", "0.01", "--radius", "78"],
], ids=["verify", "quantum"])
def test_float_haar_within_float64_builds(argv):
    # [78]_q^2 at q = 0.01 is about 1e306
    code, out = _run(argv)
    assert code != 2 and out.splitlines()[-1].startswith("pass: ")


def test_float_haar_identity_is_checked_relative_to_its_terms(tmp_path):
    # the weights reach 1e306: a defect of 1e284 is in the last bits of its two terms
    code, out = _run(["verify", "--family", "suq2_fusion", "--q", "0.01", "--radius", "78"])
    assert code == 0 and out.endswith("\npass: true\n")
    # one float weight off by 1e-6 relative is off by 1e-6 next to its terms
    path = tmp_path / "suq2.hyp"
    save_table(builders.su2_fusion(12, q=0.01), str(path))
    assert _run(["verify", "--file", str(path)])[0] == 0
    lines = path.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("haar "))
    weights = lines[at].split()
    weights[5] = repr(float(weights[5]) * (1 + 1e-6))
    lines[at] = " ".join(weights)
    path.write_text("\n".join(lines) + "\n")
    code, out = _run(["verify", "--file", str(path)])
    assert code == 1
    assert "Haar invariance identity violated by 1e-06" in out
    assert out.endswith("\npass: false\n")


@pytest.mark.parametrize("argv, kac", [
    (["--q", "999999/1000000", "--radius", "8"], "false"),
    (["--q", "0.999999", "--radius", "8"], "false"),
    (["--q", "1", "--radius", "8"], "true"),
    (["--q", "1.0", "--radius", "8"], "true"),
] + [(["--group", g], "true") for g in ("z2", "z4", "s3", "d4", "q8", "a4", "s4")],
    ids=["q999999/1000000", "q0.999999", "q1", "q1.0", "z2", "z4", "s3", "d4", "q8", "a4", "s4"])
def test_quantum_kac_is_n_equal_to_d(argv, kac):
    # Kac type means n == d exactly: a q near 1 is not Kac, and its ring passes
    code, out = _run(["quantum"] + argv)
    assert code == 0
    assert f"\nkac: {kac}\n" in out and out.splitlines()[-1] == "pass: true"


@pytest.mark.parametrize("option", [["--family", "conj"], ["--n", "7"], ["--file", "x.hyp"]],
                         ids=["family", "n", "file"])
def test_quantum_rejects_table_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["quantum", "--group", "s3"] + option)
    assert exc.value.code == 2


@pytest.mark.parametrize("q", ["2.5", "5/2", "7/3"])
def test_tree_radial_non_integer_q_exit_two(q, capsys):
    code, out = _run(["p2", "--family", "tree_radial", "--q", q, "--radius", "10"])
    assert code == 2
    assert out == ""
    assert "integer branching" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["2", "4/2", "2.0"])
def test_tree_radial_integer_q_builds_q2(q):
    code, out = _run(["p2", "--family", "tree_radial", "--q", q, "--radius", "10"])
    assert code == 0
    assert "tree_radial_q2_R10" in out


@pytest.mark.parametrize("tol", ["abc", "nan", "-1", "inf"])
def test_bad_tolerance_exits_two(tol, capsys, monkeypatch):
    argv = ["verify", "--family", "conj", "--group", "s3"]
    code, out = _run(argv + [f"--tol={tol}"])
    assert (code, out) == (2, "")
    assert "input error: --tol must be a finite number >= 0" in capsys.readouterr().err
    monkeypatch.setenv("HYPHARM_TOL", tol)
    code, out = _run(argv)
    assert (code, out) == (2, "")
    assert "input error: HYPHARM_TOL must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "conj", "--group", "s3"],
    ["characters", "--family", "conj", "--group", "s3"],
    ["norms", "--family", "conj", "--group", "s3", "--random", "1"],
    ["amenability", "--family", "conj", "--group", "s3"],
    ["deform", "--family", "tree_radial", "--q", "2", "--radius", "12"],
    ["product", "--family", "conj", "--group", "s3", "--family2", "conj", "--group2", "z2"],
    ["quantum", "--group", "s3"],
    ["p2", "--family", "tree_radial", "--q", "2", "--radius", "24"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_two(argv, capsys):
    assert _run(argv + ["--seed", "0"])[0] == 0
    assert _run(argv + ["--seed", "-1"]) == (2, "")
    assert capsys.readouterr().err == "input error: --seed must be an integer >= 0, got -1\n"


def test_tolerance_from_the_environment_unless_given(monkeypatch):
    argv = ["verify", "--family", "conj", "--group", "s3", "--format", "structured"]
    monkeypatch.setenv("HYPHARM_TOL", "1e-6")
    assert "tolerance 1e-06\n" in _run(argv)[1]
    assert "tolerance 0.001\n" in _run(argv + ["--tol", "1e-3"])[1]
    monkeypatch.delenv("HYPHARM_TOL")
    assert "tolerance 1e-09\n" in _run(argv)[1]


def test_run_frees_its_parser():
    # argparse parsers are reference cycles; run() collects its own while young
    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    gc.collect()
    before = parsers()
    assert _run(["verify", "--family", "conj", "--group", "s3"])[0] == 0
    assert parsers() == before


def test_norms_exit_code_reads_the_verdict(monkeypatch):
    compute = hypharm.norms.compute_norm_report
    monkeypatch.setattr(hypharm.norms, "compute_norm_report", lambda *a, **k: (
        dataclasses.replace(compute(*a, **k), norm_Mcb=0.0)))
    code, out = _run(["norms", "--family", "conj", "--group", "s3", "--random", "1", "--mcb"])
    assert (code, out.splitlines()[-1]) == (1, "pass: false")


def test_deform_exit_code_reads_the_deformed_p2(monkeypatch):
    # H0 certified to fail (P2) is no restoration: here H itself stands in for H0
    deform = spectral.voit_deform
    monkeypatch.setattr(spectral, "voit_deform", lambda H, **k: (
        dataclasses.replace(deform(H, **k), deformed=H)))
    code, out = _run(["deform", "--family", "tree_radial", "--q", "2", "--radius", "24"])
    assert (code, _deformed_p2(out), out.splitlines()[-1]) == (1, "fails", "pass: false")


def test_norms_structured_includes_witness():
    code, out = _run(
        ["norms", "--family", "conj", "--group", "s3", "--random", "1",
         "--format", "structured"]
    )
    assert code == 0
    assert "u0.witness.xi" in out and "u0.witness.product_error" in out


def test_norms_on_a_section_report_enclosures():
    # a section's norms are certified intervals, and it takes no witness
    code, out = _run(["norms", "--family", "tree_radial", "--q", "2", "--radius", "24",
                      "--random", "1", "--format", "structured"])
    assert code == 0
    keys = [ln.split()[0] for ln in out.splitlines()]
    assert "u0.norm_a.lower" in keys and "u0.norm_a.upper" in keys
    assert not any(k.startswith("u0.witness") for k in keys)


@pytest.mark.parametrize("evidence, code", [
    ({"axiom_violation": 1e-10, "haar_defect": 1e-10, "dual_map_residual": 1e-8}, 0),
    ({"axiom_violation": 2e-10}, 1),
    ({"haar_defect": 2e-10}, 1),
    ({"dual_map_residual": 2e-8}, 1),
], ids=["at-bounds", "axioms", "haar", "dual-map"])
def test_deform_and_amenability_share_the_deformation_bounds(monkeypatch, evidence, code):
    deform = spectral.voit_deform
    bad = lambda *a, **k: dataclasses.replace(deform(*a, **k), **evidence)  # noqa: E731
    monkeypatch.setattr(spectral, "voit_deform", bad)
    monkeypatch.setattr(hypharm.amenability, "voit_deform", bad)
    table = ["--family", "tree_radial", "--q", "2", "--radius", "24"]
    assert _run(["deform"] + table)[0] == code
    assert _run(["amenability"] + table + ["--radii", "2,4,7"])[0] == code


@pytest.mark.parametrize("argv", [
    ["deform", "--family", "tree_radial", "--q", "2", "--radius", "28"],
    ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "24", "--radii", "2,4,7"],
], ids=["deform", "amenability"])
def test_deformation_checks_multiplicativity_once_per_table(monkeypatch, argv):
    # chi0 on H, inside voit_deform, and the dual map on H0
    calls = []
    residual = spectral._multiplicativity_residual
    monkeypatch.setattr(spectral, "_multiplicativity_residual",
                        lambda H, chi, *once: calls.append(H.name) or residual(H, chi, *once))
    assert _run(argv)[0] == 0
    table = f"tree_radial_q2_R{argv[argv.index('--radius') + 1]}"
    assert calls == [table, f"{table}_voit"]


_DEFORM_FAMILIES = {
    "tree_q2": (["--family", "tree_radial", "--q", "2"], lambda R: builders.tree_radial(2, R)),
    "tree_q3": (["--family", "tree_radial", "--q", "3"], lambda R: builders.tree_radial(3, R)),
    "su2": (["--family", "su2_fusion"], builders.su2_fusion),
    "suq2_half": (["--family", "suq2_fusion", "--q", "1/2"],
                  lambda R: builders.su2_fusion(R, Fraction(1, 2))),
}


def _deformed_p2(out):
    return next(l for l in out.splitlines() if l.startswith("deformed.p2: "))[13:]


@pytest.mark.parametrize("family, radius", [(f, R) for f in _DEFORM_FAMILIES
                                            for R in (12, 24, 28, 30, 48, 60)])
def test_deformed_p2_is_the_status_of_check_p2(family, radius):
    # deform reads the status alone, from one Schur bound and no section bound
    argv, build = _DEFORM_FAMILIES[family]
    code, out = _run(["deform"] + argv + ["--radius", str(radius)])
    assert code == 0
    want = spectral.check_p2(spectral.voit_deform(build(radius)).deformed).status
    assert _deformed_p2(out) == want


def _float_tree(R):
    """``tree_radial(2, R)`` with its coefficients and Haar weights written as floats."""
    T = builders.tree_radial(2, R)
    return core.HypergroupTable.from_rows(
        "tree_float", T.size, T.involution,
        {k: [(z, float(c)) for z, c in row] for k, row in T.rows.items()},
        haar=[float(v) for v in T.haar], truncated=True, radius=R, tail=T.tail,
        generator=T.generator)


@pytest.mark.parametrize("table", [lambda: _float_tree(24), lambda: builders.su2_fusion(24, q=0.5)],
                         ids=["tree-float", "suq2-float-q"])
def test_deformed_p2_of_a_float_file_is_the_status_of_check_p2(tmp_path, table):
    p = tmp_path / "float.hyp"
    save_table(table(), str(p))
    H = hypharm.load_table(str(p))
    assert not H.exact
    code, out = _run(["deform", "--file", str(p)])
    assert code == 0
    assert _deformed_p2(out) == spectral.check_p2(spectral.voit_deform(H).deformed).status


def test_deform_needs_chi0_multiplicative_on_every_product(tmp_path, capsys):
    # the mass of 2.2 at 4 scaled by 9/10: the generator rows, and with them
    # the recurrence, are unchanged, so only chi0's check on every stored
    # product sees the broken row
    T = builders.tree_radial(2, 10)
    rows = dict(T.rows)
    rows[2, 2] = [(z, c * Fraction(9, 10) if z == 4 else c) for z, c in rows[2, 2]]
    bad = core.HypergroupTable.from_rows("tree_bad", T.size, T.involution, rows, haar=T.haar,
                                         truncated=True, radius=T.radius, tail=T.tail)
    message = "tree_bad: candidate chi0 multiplicativity residual 3.89e-02"
    with pytest.raises(DominationFailure, match=message):
        spectral.chi0(bad)
    p = tmp_path / "tree_bad.hyp"
    save_table(bad, str(p))
    assert run(["deform", "--file", str(p)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


def test_deform_tree():
    code, out = _run(
        ["deform", "--family", "tree_radial", "--q", "2", "--radius", "40"]
    )
    assert code == 0
    assert "holds" in out


def test_product_subcommand():
    code, out = _run(
        ["product", "--family", "conj", "--group", "s3",
         "--family2", "conj", "--group2", "s3"]
    )
    assert code == 0
    assert "pass" in out


def test_product_of_400_points_passes():
    # checked from its factors: its full check is a dense pass with a 512 MB cube
    code, out = _run(["product", "--family", "cyclic", "--n", "20",
                      "--family2", "cyclic", "--n2", "20", "--format", "structured"])
    assert code == 0
    assert "\nsize 400\n" in out and "\npass true\n" in out


def test_quantum_subcommand():
    code, out = _run(
        ["quantum", "--q", "1/2", "--radius", "12", "--format", "structured"]
    )
    assert code == 0
    assert "kac false" in out
    assert "d22.row 0.16 0.84" in out


def test_structured_reports_byte_identical():
    for argv in (
        ["p2", "--family", "tree_radial", "--q", "2", "--radius", "40",
         "--format", "structured"],
        ["characters", "--family", "irr", "--group", "d4", "--format", "structured"],
        ["norms", "--family", "conj", "--group", "s3", "--random", "5",
         "--format", "structured", "--seed", "123"],
        ["amenability", "--family", "conj", "--group", "a4",
         "--format", "structured"],
    ):
        _, first = _run(argv)
        _, second = _run(argv)
        assert first.encode() == second.encode()


def test_seed_changes_norm_report():
    argv = ["norms", "--family", "conj", "--group", "s3", "--random", "2",
            "--format", "structured"]
    _, a = _run(argv + ["--seed", "1"])
    _, b = _run(argv + ["--seed", "2"])
    assert a != b


def test_out_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out = _run(
        ["verify", "--family", "cyclic", "--n", "4", "--format", "structured",
         "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out


def test_group_file_input(tmp_path):
    G = groups.symmetric(3)
    p = tmp_path / "s3.cayley"
    groups.save_group(G, str(p))
    code, out = _run(["verify", "--file", str(p)])
    assert code == 0


def test_commented_group_file_reports_like_the_plain_one(tmp_path):
    # the format is named by the first significant line, not the first line
    plain = tmp_path / "z3.cayley"
    groups.save_group(groups.cyclic(3), str(plain))
    commented = tmp_path / "z3-commented.cayley"
    commented.write_text("# Z3 with a comment\n\n" + plain.read_text())
    want = _run(["verify", "--file", str(plain), "--format", "structured"])
    assert want[0] == 0
    assert _run(["verify", "--file", str(commented), "--format", "structured"]) == want


def test_amenability_refuses_a_product_above_the_cap(capsys):
    code, out = _run(["amenability", "--family", "cyclic", "--n", "101"])
    assert (code, out) == (2, "")
    assert "product size 10201 exceeds cap 10000" in capsys.readouterr().err


def test_table_file_input(tmp_path):
    H = builders.conjugacy_hypergroup(groups.alternating(4))
    p = tmp_path / "a4.hyp"
    save_table(H, str(p))
    code, out = _run(["characters", "--file", str(p)])
    assert code == 0


_Z2 = (
    "hypergroup v1\nname z2\n{size}\nidentity 0\ninvolution 0 1\n"
    "commutative 1\ntruncated 0\n{tail}triples\n"
    "0 0 0 1\n0 1 1 1\n1 1 0 {value}\n{extra}end\n"
)


def _z2(size="size 2", tail="", value="1", extra=""):
    return _Z2.format(size=size, tail=tail, value=value, extra=extra)


def _tree6(radius):
    """The file of ``tree_radial(2, 6)`` (7 points), with ``radius`` for its line ``radius 6``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "tree.hyp"
        save_table(builders.tree_radial(2, 6), str(path))
        text = path.read_text()
    assert text.splitlines()[7] == "radius 6"
    return text.replace("radius 6\n", radius)


def _su2_6(tail):
    """The file of ``su2_fusion(6)``, with ``tail`` for its line 9, ``tail 0.5 0.0 0.58.. 5 0``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "su2.hyp"
        save_table(builders.su2_fusion(6), str(path))
        lines = path.read_text().splitlines(keepends=True)
    assert lines[8].startswith("tail 0.5 0.0 0.58")
    lines[8] = tail
    return "".join(lines)


_RING2 = "fusionring v1\nlabels a b\n{ndims}\n{conj}\n{ddims}mult\na a a 1\na b b 1\n{rows}end\n"


def _ring2(ndims="ndims 1 1", conj="conj 0 1", ddims="", rows="b b a 1\n"):
    """A two-label ring file (the group Z2): ``ndims`` on line 3, ``conj`` on line 4."""
    return _RING2.format(ndims=ndims, conj=conj, ddims=ddims, rows=rows)


@pytest.mark.parametrize(
    "option, text, line",
    [
        ("--file", _z2(size="size"), 3),
        ("--file", _z2(value="1/0"), 11),
        ("--file", _z2(extra="0 1 1 1\n"), 12),
        ("--file", _z2(tail="tail 1 2\n"), 8),
        ("--file", "cayley 2\n0 1\n1\n", 3),
        ("--fusion-file",
         "fusionring v1\nlabels a\nndims\nconj 0\nmult\na a a 1\nend\n", 3),
        ("--fusion-file",
         "fusionring v1\nlabels a\nndims 1\nconj 0\nqparam 2\nmult\na a a 1\nend\n", 5),
        ("--fusion-file",
         "fusionring v1\nlabels a\nndims 1\nconj 0\nmult\na a a 1\na a a 1\nend\n", 7),
        # a ring without every product is a section of radius its size, at least 2
        ("--fusion-file", "fusionring v1\nlabels a\nndims 1\nconj 0\nmult\nend\n", 5),
        # the ring's entry arrays hold the multiplicities in int64
        ("--fusion-file",
         "fusionring v1\nlabels e\nndims 1\nconj 0\nmult\ne e e 99999999999999999999999\nend\n",
         6),
        # a NaN compares false to every tolerance, so it must not get in
        ("--file", _z2(tail="haar 1 nan\n"), 8),
        # no stored triple constrains the weight of a section's boundary point
        ("--file", _tree6("radius 6\n").replace(" 48 96\n", " 48 0\n"), 12),
        ("--file", _tree6("radius 6\n").replace(" 48 96\n", " 48 -96\n"), 12),
        ("--file", _z2(value="nan"), 11),
        ("--file", _z2(value="-inf"), 11),
        ("--file", _z2(tail="tail 0.5 nan 0.5 1 0\n"), 8),
        ("--fusion-file",
         "fusionring v1\nlabels a b\nndims 1 1\nddims 1 nan\nconj 0 1\nmult\n"
         "a a a 1\na b b 1\nb b a 1\nend\n", 4),
        ("--fusion-file",
         "fusionring v1\nlabels a\nndims 1\nconj 0\nqparam nan\nmult\na a a 1\nend\n", 5),
        # the quantum dimension [2000]_q is beyond float64, in which rings are checked
        ("--fusion-file",
         "fusionring v1\nlabels a b\nndims 1 2000\nconj 0 1\nqparam 1/2\nmult\n"
         "a a a 1\na b b 1\nend\n", 5),
        ("--fusion-file",
         f"fusionring v1\nlabels a b\nndims 1 1\nddims 1 1{'0' * 400}\nconj 0 1\nmult\n"
         "a a a 1\na b b 1\nend\n", 4),
        ("--fusion-file",
         f"fusionring v1\nlabels a b\nndims 1 1{'0' * 400}\nconj 0 1\nmult\n"
         "a a a 1\na b b 1\nend\n", 3),
        # a section needs a radius in 2..size: its bounds compress it to balls
        ("--file", _tree6(""), 12),
        ("--file", _tree6("radius 0\n"), 8),
        ("--file", _tree6("radius -3\n"), 8),
        ("--file", _tree6("radius 1\n"), 8),
        ("--file", _tree6("radius 8\n"), 8),
        ("--file", _tree6("radius 40\n"), 8),
        # a sup of absolute values is a number >= 0, and the tail starts in 0..size
        ("--file", _su2_6("tail -1 0 1 1 0\n"), 9),
        ("--file", _su2_6("tail 0.5 -0.1 0.5 5 0\n"), 9),
        ("--file", _su2_6("tail 0.5 0 -0.5 5 0\n"), 9),
        ("--file", _su2_6("tail 0.5 0 0.5 -1 0\n"), 9),
        ("--file", _su2_6("tail 0.5 0 0.5 7 0\n"), 9),
        # the conjugation is an involutive permutation, the dimensions positive
        ("--fusion-file", _ring2(conj="conj 1 1"), 4),
        ("--fusion-file",
         "fusionring v1\nlabels a b c\nndims 1 1 1\nconj 1 2 0\nmult\na a a 1\nend\n", 4),
        ("--fusion-file", _ring2(ndims="ndims 0 1"), 3),
        ("--fusion-file", _ring2(ndims="ndims 1 -1"), 3),
        ("--fusion-file", _ring2(ddims="ddims 1 0\n"), 5),
        ("--fusion-file", _ring2(ddims="ddims 1 -2.5\n"), 5),
        # the product (a, b) given again as (b, a) with another row
        ("--fusion-file", _ring2(rows="b a a 1\nb b a 1\n"), 5),
    ],
    ids=["size-no-value", "zero-denominator", "duplicate-triple", "short-tail",
         "short-cayley-row", "ndims-no-value", "qparam-above-one", "ring-duplicate-triple",
         "ring-one-label-empty-mult",
         "ring-multiplicity-beyond-int64",
         "haar-nan", "haar-boundary-zero", "haar-boundary-negative",
         "nan-coefficient", "infinite-coefficient", "tail-nan", "ddims-nan", "qparam-nan",
         "qparam-dimension-overflow", "ddims-overflow", "ndims-overflow",
         "section-no-radius", "section-radius-0", "section-radius-negative",
         "section-radius-1", "section-radius-above-size", "section-radius-40",
         "tail-alpha-negative", "tail-diag-negative", "tail-beta-negative",
         "tail-start-negative", "tail-start-above-size",
         "ring-conj-not-a-permutation", "ring-conj-not-involutive", "ring-ndims-zero",
         "ring-ndims-negative", "ring-ddims-zero", "ring-ddims-negative",
         "ring-product-orders-differ"],
)
def test_malformed_file_exits_two_with_line(tmp_path, capsys, option, text, line):
    p = tmp_path / "input.txt"
    p.write_text(text)
    command = "quantum" if option == "--fusion-file" else "verify"
    # p2 and deform read a section's radius
    for command in [command] + (["p2", "deform"] if "truncated 1" in text else []):
        code, _ = _run([command, option, str(p)])
        assert code == 2
        assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("radius", [2, 7])
def test_section_radius_up_to_its_size_loads(tmp_path, radius):
    p = tmp_path / "tree.hyp"
    p.write_text(_tree6(f"radius {radius}\n"))
    for command in ("verify", "p2", "deform"):
        assert _run([command, "--file", str(p)])[0] == 0


@pytest.mark.parametrize("command", [["verify"], ["p2"], ["deform"],
                                     ["amenability", "--radii", "2,4,7"]],
                         ids=["verify", "p2", "deform", "amenability"])
@pytest.mark.parametrize("name, q", [("tree_radial", "2"), ("su2_fusion", None),
                                     ("suq2_fusion", "1/2")], ids=["tree", "su2", "suq2"])
def test_saved_section_reports_like_its_family(tmp_path, command, name, q):
    # a loaded table is the common-denominator N-form of its rows, s = D at
    # every point, which no builder makes
    p = tmp_path / "section.hyp"
    spec = builders.FamilySpec(name, q=q and core.parse_number(q), radius=24)
    save_table(builders.family(spec), str(p))
    family = ["--family", name, "--radius", "24"] + (["--q", q] if q else [])
    tail = command[1:] + ["--format", "structured", "--seed", "3"]
    _, built = _run(command[:1] + family + tail)
    _, loaded = _run(command[:1] + ["--file", str(p)] + tail)
    assert built.startswith("hypharm-report v1\n")
    assert loaded == built


def test_well_formed_z2_file_passes(tmp_path):
    p = tmp_path / "z2.hyp"
    p.write_text(_z2())
    code, _ = _run(["verify", "--file", str(p)])
    assert code == 0


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1\n# comment\n2\n", 3),
        ("0 1\n3 0.5\n", 2),
        ("-1 1\n", 1),
        ("1 1 0\n\n1 2\n", 3),
        # a non-finite value would reach the norm checks as NaN and fail them
        ("0 1\n1 nan\n", 2),
        ("0 1e400\n", 1),
        ("2 1 -inf\n", 1),
    ],
    ids=["one-token", "index-too-large", "negative-index", "repeated-index",
         "nan-value", "overflowing-value", "infinite-imaginary-part"],
)
def test_malformed_u_file_exits_two_with_line(tmp_path, capsys, text, line):
    p = tmp_path / "u.txt"
    p.write_text(text)
    code, _ = _run(["norms", "--family", "conj", "--group", "s3", "--u-file", str(p)])
    assert code == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_u_file_sets_the_listed_values(tmp_path):
    p = tmp_path / "u.txt"
    p.write_text("# index re im\n2 -1 1/2\n0 3\n")
    code, out = _run(["norms", "--family", "conj", "--group", "s3", "--u-file", str(p),
                      "--format", "structured"])
    assert code == 0
    # |u|_A >= the sup norm of u = (3, 0, -1 + i/2), so the file was read
    norm_a = float(next(ln for ln in out.splitlines() if ln.startswith("u0.norm_a ")).split()[1])
    assert norm_a >= 3.0


def test_import_does_not_load_scipy():
    src = str(Path(hypharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import hypharm, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
