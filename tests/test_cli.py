import hashlib
import json
import os
import subprocess
import sys

import pytest

from qcartan.cli import main
from qcartan.normalizer import _sorted_form
from qcartan.parser import parse_element
from qcartan.relations import builtin_presentation, format_presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "y*x")
    assert code == 0
    assert out == "(q^-1) x*y\n"


def test_normalize_long_word_sorts(capsys):
    # the word must sort, or the command would rewrite it quadratically
    (word, _), = parse_element("y^100000*x").terms()
    assert _sorted_form(word, builtin_presentation().swaps) is not None
    code, out, _ = run(capsys, "normalize", "y^100000*x")
    assert code == 0
    assert out == "(q^-100000) x*y^100000\n"


def test_normalize_unit(capsys):
    code, out, _ = run(capsys, "normalize", "x*x^-1")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("argv, expected", [
    (("normalize", "x^0"), "1\n"),
    (("normalize", "(x)^0"), "1\n"),
    (("normalize", "x*xinv"), "1\n"),
    (("normalize", "Kinv^2*K"), "K^-1\n"),
    (("d", "1"), "0\n"),
    (("act", "x^0", "y"), "y\n"),
    (("iapply", "x", "1"), "0\n"),
    (("pair", "X^0", "x"), "1\n"),
    (("pair", "1", "1"), "1\n"),
])
def test_empty_word_commands(capsys, argv, expected):
    # inputs and results that hold the empty word, which is falsy
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)


def test_act_golden(capsys):
    code, out, _ = run(capsys, "act", "Ty", "y")
    assert code == 0
    assert out == "x\n"


def test_d_command(capsys):
    code, out, _ = run(capsys, "d", "x*y")
    assert code == 0
    assert out == "dx*y + (q) dy*x\n"


def test_iapply_and_lapply(capsys):
    code, out, _ = run(capsys, "iapply", "y", "dx*dy")
    assert code == 0
    assert out == "(-q) dx\n"
    code, out, _ = run(capsys, "lapply", "z", "z")
    assert code == 0
    assert out == "1\n"


def test_pair_command(capsys):
    code, out, _ = run(capsys, "pair", "X", "x^3")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run(capsys, "pair", "Y", "y*x")
    assert code == 0
    assert out == "q^-1\n"
    code, out, _ = run(capsys, "pair", "X", "x^-1*y")
    assert (code, out) == (0, "0\n")


def test_long_powers_in_pair_and_d(capsys):
    code, out, _ = run(capsys, "pair", "X^2000", "x")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "d", "y^100000")
    assert (code, out) == (0, "(100000) dy*y^99999\n")


def test_q_specialization(capsys):
    code, out, _ = run(capsys, "normalize", "y*x", "--q", "2")
    assert code == 0
    assert out == "(1/2) x*y\n"


@pytest.mark.parametrize("argv, expected", [
    (("normalize", "(q - 1)*x - 1/3", "--q", "9/4"), "-1/3 + (5/4) x\n"),
    (("d", "x^2*y^3", "--q", "9/4"), "(2) dx*x*y^3 + (243/16) dy*x^2*y^2\n"),
    (("d", "xinv*z", "--q", "3"), "(-1) dx*x^-2*z + (1/3) dz*x^-1\n"),
    (("normalize", "x*xinv - 1", "--q", "9/4"), "0\n"),
    (("pair", "K", "x", "--q", "9/4"), "3/2\n"),
    (("pair", "K^3*X", "x^2", "--q", "9/4"), "729/32\n"),
    (("act", "Tx+Ty", "x*y^2", "--q", "9/4"), "(3) x*y^2 + (9/2) x^2*y\n"),
    (("iapply", "y", "x*dy*dz", "--q", "9/4"), "(81/16) dz*x\n"),
    (("lapply", "y", "x*y^2", "--q", "9/4"), "(9/2) x*y\n"),
])
def test_q_specialization_prints_rationals(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_q_rejects_zero(capsys):
    with pytest.raises(SystemExit):
        main(["normalize", "y*x", "--q", "0"])


def test_missing_rule_diagnostic(capsys):
    code, out, err = run(capsys, "normalize", "wx*dx")
    assert code == 2
    assert "missing rule" in err
    assert "wx" in err and "dx" in err


def test_parse_error_exits_nonzero(capsys, tmp_path):
    table = tmp_path / "zero.rel"
    table.write_text("y . x -> (1/0) x . y\n", encoding="utf-8")
    huge = tmp_path / "huge.rel"
    huge.write_text("y . x -> (q^-1) x . y^300000000\n", encoding="utf-8")
    for argv in (("normalize", "y**x"),
                 ("normalize", "1/0"),
                 ("normalize", "x^1/0"),
                 ("normalize", "q^1/0*x"),
                 ("pair", "X", "1/0"),
                 ("normalize", "y*x", "--table", str(table)),
                 ("normalize", "x^300000000"),
                 ("normalize", "(x*y)^300000000"),
                 ("normalize", "(x+y)^30"),
                 ("normalize", "(x^100000+y)^15"),
                 ("d", "y^-300000000"),
                 ("pair", "X", "x^300000000"),
                 ("normalize", "y*x", "--table", str(huge))):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("argv, message", [
    (("normalize", "0^-1"), "0 to the power -1 is not defined (at position 3)"),
    (("normalize", "(q^1/2)^1/2"),
     "exponent 1/4 of q is not a half-integer (at position 8)"),
    # evaluation as the text is read: the first error is the one reported
    (("normalize", "y^-1 + )"), "negative power of y is not defined"),
    # act parses its operator before it reads the expression
    (("act", "0^-1", "y^-1"), "0 to the power -1 is not defined (at position 3)"),
    (("act", "px", "y^-1"), "negative power of y is not defined"),
    # the sweep would grow to about 16M words at length 6
    (("check", "confluence", "--max-degree", "6"), "max_len must be at most 5"),
    # pair's second argument must lie in the coordinate algebra
    (("pair", "X", "x*dx"), "pairing is defined on the coordinate algebra"),
    (("pair", "X", "x + px"), "pairing is defined on the coordinate algebra"),
    # d, act, iapply and lapply take a function/form
    (("d", "px*x"), "not a function/form: contains a PARTIAL letter"),
    (("act", "px", "x*Ty"), "not a function/form: contains a LIE letter"),
    (("iapply", "x", "K"), "not a function/form: contains a GROUPLIKE letter"),
    (("lapply", "x", "wx"),
     "one-form letters are not allowed here; apply omega_expand first"),
], ids=["zero", "q-quarter", "reading-order", "act-operator-first",
        "act-expression", "confluence-length", "pair-form", "pair-operator",
        "d-partial", "act-lie", "iapply-grouplike", "lapply-one-form"])
def test_expression_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("rhs, message", [
    ("y . z + (x + y)^16", "exceeds the limit of 50000 terms"),
    ("y . z + " + "(" * 51 + "x" + ")" * 51, "nested deeper than 50"),
], ids=["expansion", "nesting"])
def test_table_expression_bounds_name_line(capsys, tmp_path, rhs, message):
    table = tmp_path / "bounds.rel"
    table.write_text(f"# header\ny . x -> (q^-1) x . y\nz . y -> {rhs}\n",
                     encoding="utf-8")
    code, out, err = run(capsys, "normalize", "y*x", "--table", str(table))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3: ")
    assert message in err


def test_table_invariant_error_names_line(capsys, tmp_path):
    table = tmp_path / "bad.rel"
    table.write_text("y . x -> x^0 . y\n", encoding="utf-8")
    code, out, err = run(capsys, "normalize", "y*x", "--table", str(table))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: rule y . x: leading term")


@pytest.mark.parametrize("suite, degree", [("d2", "-1"), ("all", "0"),
                                           ("confluence", "0")])
def test_check_rejects_degree_below_one(capsys, suite, degree):
    with pytest.raises(SystemExit) as info:
        main(["check", suite, "--max-degree", degree])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_degree must be at least 1" in captured.err


def test_check_all_suite_counts(capsys):
    # The per-suite check counts are part of the benchmark's gate; a
    # refactor must not change how many checks a suite runs.
    code, out, _ = run(capsys, "check", "all", "--max-degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "PASS d2: 98 checks, 0 failures",
        "PASS leibniz: 49 checks, 0 failures",
        "PASS confluence: 1 checks, 0 failures",
        "PASS d-expansion: 10 checks, 0 failures",
        "PASS omega: 78 checks, 0 failures",
        "PASS t-real: 31 checks, 0 failures",
        "PASS cartan-tables: 10 checks, 0 failures",
        "PASS l-real: 1 checks, 0 failures",
        "PASS hopf-A: 73 checks, 0 failures",
        "PASS hopf-U: 112 checks, 0 failures",
        "PASS dual-relations: 108 checks, 0 failures",
        "PASS dual-hopf: 2224 checks, 0 failures",
        "PASS identification: 9 checks, 0 failures",
        "PASS all suites",
    ]


# md5 of `check all --max-degree 3` per format
_DEGREE_3_DIGESTS = {
    "text": "695adc1fcd839a64fd93c8640578093d",
    "json-lines": "d81d3326a8f31f33a0be40f41da05cfe",
}


@pytest.mark.parametrize("fmt, digest", [
    ("text", "d4f3151167a1eea00075368257b3ff80"),
    ("json-lines", "94b3831d6eb49dc7e752b7da023bb6cc"),
])
def test_check_all_output_bytes(capsys, fmt, digest):
    # Every row name and detail of every suite, byte for byte, at degree 2
    # (the digest in the test id) and at degree 3.
    for degree, want in (("2", digest), ("3", _DEGREE_3_DIGESTS[fmt])):
        code, out, _ = run(capsys, "check", "all", "--max-degree", degree,
                           "--format", fmt)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == want, degree


@pytest.fixture(scope="module")
def corrupt_table_path(tmp_path_factory):
    text = format_presentation(builtin_presentation())
    good, bad = "x . dy -> (q) dy . x", "x . dy -> (2*q) dy . x"
    assert good in text
    path = tmp_path_factory.mktemp("tables") / "corrupt.rel"
    path.write_text(text.replace(good, bad), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt, digest", [
    ("text", "cb808e8aee7a7e59536163d911f136aa"),
    ("json-lines", "dd644cbae81325d1d9366ba141313bea"),
])
def test_check_all_output_bytes_on_corrupt_table(capsys, corrupt_table_path,
                                                 fmt, digest):
    # Every row of every suite at degree 3, failing rows and their
    # differing sides included, byte for byte.
    code, out, _ = run(capsys, "check", "all", "--max-degree", "3",
                       "--format", fmt, "--table", corrupt_table_path)
    assert code == 1
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, head, pinned", [
    ("confluence", "FAIL confluence: 16 checks, 16 failures", [
        "  FAIL confluence length<=3 strategies=leftmost,rightmost,"
        "random:1,random:2,random:3,random:4,random:5: "
        "5529 words checked, 8518 sequences skipped",
        "  FAIL divergence Lx*x*dy: leftmost != random:1",
        "  FAIL divergence px*x*dy: leftmost != rightmost",
    ]),
    ("cartan-tables", "FAIL cartan-tables: 16 checks, 10 failures", [
        "  FAIL table inner_coord: 9 relations",
        "  FAIL table inner_coord iy*x on dy: (2*q) x != (q) x",
        "  FAIL table lie_lie Ly*Lx on x*y: 1 != 2",
    ]),
    ("l-real", "FAIL l-real: 2 checks, 2 failures", [
        "  FAIL l-realization (30 cases)",
        "  FAIL l-realization Ly on x*y: (2*q) x != (q) x",
    ]),
])
def test_check_failure_rows_on_corrupt_table(capsys, corrupt_table_path,
                                             suite, head, pinned):
    code, out, _ = run(capsys, "check", suite, "--max-degree", "2",
                       "--table", corrupt_table_path)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == head
    assert lines[1] == pinned[0]
    for line in pinned:
        assert line in lines
    assert len(lines) == int(head.split()[-2]) + 2
    assert lines[-1] == "FAIL: see above"


def test_check_identification_text(capsys):
    code, out, _ = run(capsys, "check", "identification")
    assert code == 0
    assert out.startswith("PASS identification:")
    assert out.rstrip().endswith("PASS all suites")


def test_check_json_lines(capsys):
    code, out, _ = run(capsys, "check", "d-expansion", "--max-degree", "2",
                       "--format", "json-lines")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in records)
    assert all(r["suite"] == "d-expansion" for r in records)
    names = [r["check"] for r in records]
    assert names == sorted(names)


def test_check_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "check", "omega", "--max-degree", "2")
    _, second, _ = run(capsys, "check", "omega", "--max-degree", "2")
    assert first == second


def test_custom_table_flag(tmp_path, capsys):
    path = tmp_path / "tiny.rel"
    path.write_text("y . x -> (q^-1) x . y\n", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "y*x", "--table", str(path))
    assert code == 0
    assert out == "(q^-1) x*y\n"
    # the tiny table knows nothing about differentials
    code, _, err = run(capsys, "normalize", "x*dy", "--table", str(path))
    assert code == 2
    assert "missing rule" in err


def test_table_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "builtin.rel"
    path.write_text(format_presentation(builtin_presentation()), encoding="utf-8")
    monkeypatch.setenv("QCARTAN_TABLE", str(path))
    code, out, _ = run(capsys, "normalize", "y*x")
    assert code == 0
    assert out == "(q^-1) x*y\n"
    monkeypatch.setenv("QCARTAN_TABLE", str(tmp_path / "missing.rel"))
    code, _, err = run(capsys, "normalize", "y*x")
    assert code == 2


# the subprocesses import qcartan from this checkout's src directory
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))), "src"))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcartan.cli", "normalize", "y*x"],
        capture_output=True, text=True, env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(q^-1) x*y\n"


def test_package_runs_as_a_module(capsys):
    argv = ["check", "d2", "--max-degree", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qcartan", *argv],
        capture_output=True, text=True, env=SRC_ENV,
    )
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_start_up_does_not_import_dataclasses():
    """Every process pays for its imports before its first answer; the
    package's value types are plain classes, so importing dataclasses
    (and inspect, ast and dis with it) stays out of start-up."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qcartan.cli\n"
        "qcartan.relations.builtin_presentation()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SRC_ENV, check=True)
    added = proc.stdout.split()
    assert "qcartan.relations" in added
    assert "dataclasses" not in added
