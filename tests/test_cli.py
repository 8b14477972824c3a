import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hypharm
from hypharm import builders, groups, save_table
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


def test_norms_structured_includes_witness():
    code, out = _run(
        ["norms", "--family", "conj", "--group", "s3", "--random", "1",
         "--format", "structured"]
    )
    assert code == 0
    assert "u0.witness.xi" in out and "u0.witness.product_error" in out


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
    ],
    ids=["size-no-value", "zero-denominator", "duplicate-triple", "short-tail",
         "short-cayley-row", "ndims-no-value"],
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
    ],
    ids=["one-token", "index-too-large", "negative-index", "repeated-index"],
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
