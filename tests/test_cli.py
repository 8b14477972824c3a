import argparse
import dataclasses
import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hypharm
from hypharm import builders, groups, save_table, spectral
from hypharm.cli import run


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_verify_conj_s3_passes():
    code, out = _run(["verify", "--family", "conj", "--group", "s3"])
    assert code == 0
    assert "hypergroup axioms: pass" in out


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
    assert "|u|_Mcb~" in out


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
    assert "|1_Delta|" in out


def test_amenability_radius_too_small_exit_two(capsys):
    code, _ = _run(
        ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "40"]
    )
    assert code == 2


@pytest.mark.parametrize("radii", ["-1", "2,-3"])
def test_amenability_negative_radius_exit_two(radii, capsys):
    code, _ = _run(
        ["amenability", "--family", "tree_radial", "--q", "2", "--radius", "24",
         "--radii", radii]
    )
    assert code == 2
    assert "radii" in capsys.readouterr().err


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
], ids=["verify", "quantum", "p2", "verify-rational", "quantum-rational", "p2-rational",
        "amenability-rational", "p2-float-haar", "deform-float-haar", "amenability-float-haar"])
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


def test_norms_structured_includes_witness():
    code, out = _run(
        ["norms", "--family", "conj", "--group", "s3", "--random", "1",
         "--format", "structured"]
    )
    assert code == 0
    assert "u0.witness.xi" in out and "u0.witness.product_error" in out


@pytest.mark.parametrize("evidence, code", [
    ({"axiom_violation": 1e-10, "dual_map_residual": 1e-8}, 0),
    ({"axiom_violation": 2e-10}, 1),
    ({"dual_map_residual": 2e-8}, 1),
], ids=["at-bounds", "axioms", "dual-map"])
def test_deform_and_amenability_share_the_deformation_bounds(monkeypatch, evidence, code):
    deform = spectral.voit_deform
    bad = lambda *a, **k: dataclasses.replace(deform(*a, **k), **evidence)  # noqa: E731
    monkeypatch.setattr(spectral, "voit_deform", bad)
    monkeypatch.setattr(hypharm.amenability, "voit_deform", bad)
    table = ["--family", "tree_radial", "--q", "2", "--radius", "24"]
    assert _run(["deform"] + table)[0] == code
    assert _run(["amenability"] + table + ["--radii", "2,4,7"])[0] == code


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
        # a NaN compares false to every tolerance, so it must not get in
        ("--file", _z2(tail="haar 1 nan\n"), 8),
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
    ],
    ids=["size-no-value", "zero-denominator", "duplicate-triple", "short-tail",
         "short-cayley-row", "ndims-no-value", "qparam-above-one", "haar-nan",
         "nan-coefficient", "infinite-coefficient", "tail-nan", "ddims-nan", "qparam-nan",
         "qparam-dimension-overflow", "ddims-overflow", "ndims-overflow"],
)
def test_malformed_file_exits_two_with_line(tmp_path, capsys, option, text, line):
    p = tmp_path / "input.txt"
    p.write_text(text)
    command = "quantum" if option == "--fusion-file" else "verify"
    code, _ = _run([command, option, str(p)])
    assert code == 2
    assert f"line {line}:" in capsys.readouterr().err


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
