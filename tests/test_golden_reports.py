"""Golden-file checks of the structured report schema.

The comparison is schema-exact (same keys in the same order, same
non-numeric values) and numerically tolerant (floats within 1e-9), so the
goldens survive BLAS or library-version changes while still pinning the
report grammar and every reported quantity.  The text format is the same
entries as ``key: value`` lines, so each golden pins it too.
"""

import io
import pathlib
from contextlib import redirect_stdout

import pytest

from hypharm.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "amenability_conj_s4.report": [
        "amenability", "--family", "conj", "--group", "s4",
        "--format", "structured",
    ],
    "p2_tree_q2_r40.report": [
        "p2", "--family", "tree_radial", "--q", "2", "--radius", "40",
        "--format", "structured",
    ],
    "amenability_irr_a4.report": [
        "amenability", "--family", "irr", "--group", "a4",
        "--format", "structured",
    ],
    "product_irr_d4_conj_q8.report": [
        "product", "--family", "irr", "--group", "d4",
        "--family2", "conj", "--group2", "q8", "--format", "structured",
    ],
    "characters_irr_s3.report": [
        "characters", "--family", "irr", "--group", "s3",
        "--format", "structured",
    ],
    "quantum_suq2_r12.report": [
        "quantum", "--q", "1/2", "--radius", "12", "--format", "structured",
    ],
    "p2_suq2_q12_r60.report": [
        "p2", "--family", "suq2_fusion", "--q", "1/2", "--radius", "60",
        "--format", "structured",
    ],
    "deform_su2_r28.report": [
        "deform", "--family", "su2_fusion", "--radius", "28", "--format", "structured",
    ],
    "amenability_tree_q3_r30.report": [
        "amenability", "--family", "tree_radial", "--q", "3", "--radius", "30",
        "--radii", "3,6,9", "--format", "structured",
    ],
    "quantum_q23_r16.report": [
        "quantum", "--q", "2/3", "--radius", "16", "--format", "structured",
    ],
    "characters_conj_q8.report": [
        "characters", "--family", "conj", "--group", "q8", "--format", "structured",
    ],
    "verify_irr_s4.report": [
        "verify", "--family", "irr", "--group", "s4", "--format", "structured",
    ],
    "norms_irr_d4_random2_mcb.report": [
        "norms", "--family", "irr", "--group", "d4", "--random", "2", "--mcb",
        "--format", "structured",
    ],
    "quantum_group_s4.report": [
        "quantum", "--group", "s4", "--format", "structured",
    ],
    "verify_tree_q2_r16.report": [
        "verify", "--family", "tree_radial", "--q", "2", "--radius", "16",
        "--format", "structured",
    ],
    # beyond the float64 bound: associativity runs modulo primes
    "verify_tree_q3_r40.report": [
        "verify", "--family", "tree_radial", "--q", "3", "--radius", "40",
        "--format", "structured",
    ],
    # the slowest sections shapes: the Voit deformation of a tree section,
    # and the truncated witness on a suq2 section
    "deform_tree_q3_r28.report": [
        "deform", "--family", "tree_radial", "--q", "3", "--radius", "28",
        "--format", "structured",
    ],
    "amenability_suq2_q12_r24.report": [
        "amenability", "--family", "suq2_fusion", "--q", "1/2", "--radius", "24",
        "--radii", "2,4,7", "--format", "structured",
    ],
    "verify_conj_s4.report": [
        "verify", "--family", "conj", "--group", "s4", "--format", "structured",
    ],
}


def _body(structured):
    """The lines of a structured report between its header and ``end``:
    command, seed and tolerance, then the entries."""
    lines = structured.rstrip("\n").split("\n")
    assert lines[0] == "hypharm-report v1"
    assert lines[-1] == "end"
    assert [line.split(" ")[0] for line in lines[1:4]] == ["command", "seed", "tolerance"]
    return lines[1:-1]


def _tokenize(lines, sep=" "):
    for line in lines:
        key, _, rest = line.partition(sep)
        yield key, rest.split(" ")


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


def _values_close(a, b, tol=1e-9):
    try:
        fa, fb = complex(a), complex(b)
    except ValueError:
        return a == b
    return abs(fa - fb) <= tol * max(1.0, abs(fa))


def _assert_matches(got, want):
    keys = [k for k, _ in got]
    assert len(set(keys)) == len(keys)
    assert keys == [k for k, _ in want]
    for (k, gv), (_, wv) in zip(got, want):
        assert len(gv) == len(wv), k
        for a, b in zip(gv, wv):
            assert _values_close(a, b), (k, a, b)


def _golden(name):
    return list(_tokenize(_body((GOLDEN / name).read_text())))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    _assert_matches(list(_tokenize(_body(_run(CASES[name])))), _golden(name))


def _text_argv(argv):
    i = argv.index("--format")
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_report_is_the_structured_body(name, tmp_path):
    out = tmp_path / "report.txt"
    text = _run(_text_argv(CASES[name]) + ["--out", str(out)])
    assert out.read_text() == text
    lines = text.split("\n")
    assert lines.pop() == ""
    entries = _body(_run(CASES[name]))[3:]
    assert lines == [k + ": " + v for k, _, v in (line.partition(" ") for line in entries)]
    _assert_matches(list(_tokenize(lines, sep=": ")), _golden(name)[3:])
