import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from conftest import serialize_algebra

from colorlie import catalog, cli, cohomology, differential, linalg
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.differential import differential_from_brackets
from colorlie.dual import KEY_BITS, SignAlgebra, dual_of
from colorlie.files import AlgebraFileError, parse_algebra_file

DATA = Path(__file__).resolve().parent.parent / "data" / "algebras"


def run(argv, tmp_path, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def write_algebra(tmp_path, g, name="alg.txt", param=None):
    path = tmp_path / name
    path.write_text(serialize_algebra(g, param=param), encoding="utf-8")
    return str(path)


def test_check_case3_passes(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(3))
    code, out = run(["check", path], tmp_path, capsys)
    assert code == 0
    assert "jacobi: OK" in out
    assert "pbw: PASS" in out


def test_check_asymmetric_signs(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("dim 2\nsigns\n+1 +1\n-1 +1\n", encoding="utf-8")
    code, out = run(["check", str(path)], tmp_path, capsys)
    assert code == 1
    assert "(1,2)" in out


def test_check_jacobi_violation(tmp_path, capsys):
    text = (
        "dim 3\nsigns\n"
        "+1 -1 -1\n-1 +1 -1\n-1 -1 +1\n"
        "bracket 1 2 : 0 0 1\n"
        "bracket 1 3 : 0 1 0\n"
        "bracket 2 3 : 0 1 0\n"   # grading-violating slot: breaks Jacobi
    )
    path = tmp_path / "mutant.txt"
    path.write_text(text, encoding="utf-8")
    code, out = run(["check", str(path)], tmp_path, capsys)
    assert code == 1
    assert "jacobi: FAIL" in out and "(1,2,3)" in out


@pytest.mark.parametrize("command, report", [
    ("check", "commutation: OK\n"
              "injective: yes\n"
              "structure: FAIL diagonal bracket (1, 1) requires s[1][1] = -1\n"
              "structure: FAIL grading violation: c[1,1]^3 with"
              " s[3][1] != s[1][1]*s[1][1]\n"
              "jacobi: OK\n"
              "pbw: FAIL diagonal bracket at 1 with s[1][1] = +1\n"),
    ("pbw", "pbw: FAIL diagonal bracket at 1 with s[1][1] = +1\n"),
], ids=["check", "pbw"])
def test_diagonal_bracket_at_plus_one_fails_pbw(tmp_path, capsys, command,
                                                report):
    path = tmp_path / "diagonal.txt"
    path.write_text("dim 3\nsigns\n+1 -1 -1\n-1 +1 -1\n-1 -1 +1\n"
                    "bracket 1 1 : 0 0 1\n", encoding="utf-8")
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (report, "")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("dim 3\nsigns\n+1 nope +1\n", encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert cli.main(["check", str(tmp_path / "absent.txt")]) == 2


def test_cohomology_negative_max_degree_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(3))
    code, out = run(["cohomology", path, "--max-degree", "-1"], tmp_path, capsys)
    assert code == 2 and out == ""


def test_table_negative_max_degree_exit_code(tmp_path, capsys):
    code, out = run(["table", "--max-degree", "-1"], tmp_path, capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", [["cohomology", "case13.txt"],
                                     ["table"]])
def test_max_degree_past_the_key_width_exit_code(capsys, command):
    """The degree-n matrix reads the degree n + 1 basis, whose exponents
    must fit KEY_BITS bits: a larger --max-degree is an input error,
    reported before any work."""
    argv = [str(DATA / a) if a.endswith(".txt") else a for a in command]
    top = (1 << KEY_BITS) - 2
    assert cli.main(argv + ["--max-degree", str(top + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree must be between 0 and %d" % top in captured.err


def test_negative_betti_number_is_a_failure(tmp_path, capsys):
    """Classical sl_2 (every sign +1, [h, e] = 2e, [h, f] = -2f, [e, f] =
    h): the calibrated sign gives d^2 != 0 and h_2 = -1, which cohomology
    reports as a failure instead of printing it as a Betti number and a
    series.  A derived sign (ROADMAP item 1) gives 1 + z^3 instead."""
    path = tmp_path / "sl2.txt"
    path.write_text("dim 3\nsigns\n+1 +1 +1\n+1 +1 +1\n+1 +1 +1\n"
                    "bracket 1 2 : 0 2 0\nbracket 1 3 : 0 0 -2\n"
                    "bracket 2 3 : 1 0 0\n", encoding="utf-8")
    code, out = run(["cohomology", str(path), "--max-degree", "6"],
                    tmp_path, capsys)
    assert code == 1
    assert out == ("parameter: none\n"
                   "betti: FAIL h_2 = -1 is negative, so d^2 != 0\n")


def test_param_zero_denominator_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(10))
    code, out = run(["cohomology", path, "--param", "1/0"], tmp_path, capsys)
    assert code == 2 and out == ""


def test_param_on_parameter_free_algebra_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(3))
    code, out = run(["cohomology", path, "--param", "3"], tmp_path, capsys)
    assert code == 2 and out == ""


def test_file_param_zero_denominator_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(10), param="1/0")
    code, out = run(["cohomology", path, "--max-degree", "2"], tmp_path, capsys)
    assert code == 2 and out == ""


def test_file_param_on_parameter_free_algebra_exit_code(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(3), param=3)
    code, out = run(["cohomology", path, "--max-degree", "2"], tmp_path, capsys)
    assert code == 2 and out == ""


CASE3_SIGNS = "signs\n+1 -1 -1\n-1 +1 -1\n-1 -1 +1\n"


@pytest.mark.parametrize("text, reason", [
    ("dim -1\nsigns\n", "dim must be a positive integer"),
    ("dim 0\nsigns\n", "dim must be a positive integer"),
    ("dim 3\n" + CASE3_SIGNS + "dim 2\n", "dim declared twice"),
    ("bracket 1 2 : 0 0 1\ndim 3\n" + CASE3_SIGNS, "bracket before dim"),
    ("dim 3\n" + CASE3_SIGNS + "bracket 1 2 : 0 0 1\nbracket 1 2 : 0 0 2\n",
     "bracket 1 2 declared twice"),
    ("dim 3\n" + CASE3_SIGNS + "signs\n+1 +1 +1\n+1 +1 +1\n+1 +1 +1\n",
     "signs declared twice"),
    ("dim 3\n" + CASE3_SIGNS + "param 2\nparam 3\n", "param declared twice"),
    ("dim 3\n" + CASE3_SIGNS + "grading 1 : 1 1\ngrading 1 : 1 0\n",
     "grading 1 declared twice"),
    ("dim 3\n" + CASE3_SIGNS + "grading 1 : 3 1\n",
     "grading bits must be 0 or 1"),
    ("dim 3\n" + CASE3_SIGNS + "bracket 1 2 : 0 1/0 0\n", "division by zero"),
    ("dim 3\n" + CASE3_SIGNS + "bracket 1 2 : 0 t/(t-t) 0\n",
     "division by zero"),
], ids=["negative-dim", "zero-dim", "second-dim", "bracket-before-dim",
        "repeated-bracket", "second-signs", "second-param", "repeated-grading",
        "grading-bit-3", "zero-denominator", "zero-denominator-in-t"])
def test_malformed_document_exit_code(tmp_path, capsys, text, reason):
    path = tmp_path / "malformed.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and reason in captured.err


@pytest.mark.parametrize("coeff", [
    "(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "\u00b2", "t^100000",
    "((2^256)^256)^256",
], ids=["nested-parentheses", "unary-minus-run", "superscript-digit",
        "huge-exponent", "huge-nested-power"])
def test_unparsable_coefficient_is_input_error(tmp_path, capsys, coeff):
    path = tmp_path / "coeff.txt"
    path.write_text("dim 3\n" + CASE3_SIGNS + "bracket 1 2 : 0 0 %s\n" % coeff,
                    encoding="utf-8")
    assert cli.main(["cohomology", str(path), "--max-degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")
    with pytest.raises(AlgebraFileError):
        parse_algebra_file(str(path))


def test_param_at_a_pole_is_evaluation_error(tmp_path, capsys):
    path = tmp_path / "pole.txt"
    path.write_text("dim 3\nsigns\n+1 +1 +1\n+1 -1 +1\n+1 +1 -1\n"
                    "bracket 1 2 : 0 1/(t-2) 0\nbracket 1 3 : 0 0 1\n",
                    encoding="utf-8")
    assert cli.main(["cohomology", str(path), "--param", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "evaluation error: " in captured.err


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("check", "dual", "hilbert", "pbw")
    for flag in ("--max-degree=3", "--representatives", "--format=json")
] + [
    ("cohomology", "--format=json"),
    ("table", "--param=5"),
    ("table", "--representatives"),
])
def test_subcommand_rejects_flag_it_does_not_read(tmp_path, command, flag):
    path = [] if command == "table" else [write_algebra(tmp_path, catalog.load(3))]
    with pytest.raises(SystemExit) as exc:
        cli.main([command] + path + [flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, row, flag", [
    ("cohomology", 10, "--param=--"),
    ("cohomology", 3, "--max-degree=--"),
    ("table", None, "--format=--"),
    ("check", 3, "--out=--"),
], ids=["param", "max-degree", "format", "out"])
def test_option_given_as_double_dash_is_usage_error(tmp_path, capsys, command,
                                                    row, flag):
    """argparse reads "--opt=--" as an empty list before Python 3.13 and as
    "--" from 3.13 on; either way each option fails as a usage error before
    anything runs."""
    path = [] if row is None else [write_algebra(tmp_path, catalog.load(row))]
    with pytest.raises(SystemExit) as exc:
        cli.main([command] + path + [flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s" % flag[:-3] in captured.err


@pytest.mark.parametrize("argv, param", [
    (["--param", "-1/2"], "-1/2"),
    (["--param", "-3"], "-3"),
    (["--param=-1/2"], "-1/2"),
    (["--par", "-1/3"], "-1/3"),
], ids=["fraction", "int", "attached", "prefix"])
def test_negative_param_value(tmp_path, capsys, argv, param):
    """argparse takes -1/2 for a flag, since only -N and -N.N look like
    numbers to it; --param reads it as its value all the same."""
    path = write_algebra(tmp_path, catalog.load(10))
    code, out = run(["cohomology", path, "--max-degree", "2"] + argv,
                    tmp_path, capsys)
    assert code == 0
    assert out.startswith("parameter: %s\nbetti: " % param)


@pytest.mark.parametrize("tail", [["--param"], ["--param", "--max-degree=2"]],
                         ids=["last", "before-flag"])
def test_param_without_value_is_usage_error(tmp_path, capsys, tail):
    path = write_algebra(tmp_path, catalog.load(10))
    with pytest.raises(SystemExit) as exc:
        cli.main(["cohomology", path] + tail)
    assert exc.value.code == 2
    assert "argument --param: expected one argument" in capsys.readouterr().err


def test_cohomology_case5(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(5))
    code, out = run(["cohomology", path, "--max-degree", "4"], tmp_path, capsys)
    assert code == 0
    assert "betti: 1 2 2 1 0" in out
    assert "series: 1+2*z+2*z^2+z^3" in out


def test_cohomology_case10_generic(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(10))
    code, out = run(["cohomology", path, "--param", "generic",
                     "--max-degree", "6"], tmp_path, capsys)
    assert code == 0
    assert "betti: 1 1 0 0 0 0 0" in out
    assert "series: 1+z" in out


def test_cohomology_case6_reconciled_value(tmp_path, capsys):
    # engine value -3 realizes the classification-side parameter -1/3
    path = write_algebra(tmp_path, catalog.load(6))
    code, out = run(["cohomology", path, "--param", "-3",
                     "--max-degree", "6"], tmp_path, capsys)
    assert code == 0
    assert "betti: 1 1 0 0 1 1 0" in out


def test_cohomology_representatives(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(4))
    code, out = run(["cohomology", path, "--max-degree", "3",
                     "--representatives"], tmp_path, capsys)
    assert code == 0
    assert "H^1: f1" in out
    assert "H^2: f2*f3" in out


def test_cohomology_builds_each_matrix_once(tmp_path, capsys, monkeypatch):
    built = []

    class CountingMatrix(differential.DifferentialMatrix):
        def __init__(self, matrix, row_basis, col_basis):
            built.append(sum(col_basis[0]))
            super().__init__(matrix, row_basis, col_basis)

    monkeypatch.setattr(differential, "DifferentialMatrix", CountingMatrix)
    path = write_algebra(tmp_path, catalog.load(13))
    code, _ = run(["cohomology", path, "--max-degree", "14",
                   "--representatives"], tmp_path, capsys)
    assert code == 0
    # betti runs to degree SERIES_TERMS; representatives reuse its matrices
    assert sorted(built) == list(range(cli.SERIES_TERMS + 1))


def test_cohomology_eliminates_each_matrix_once(tmp_path, capsys, monkeypatch):
    """One forward pass per matrix that rank reads (degrees 0..40) and one
    per rank_kernel of a representatives degree (0..12): the coboundaries
    read the pass that rank kept.  Eliminating them again made 66."""
    calls = []
    pivot_rows = linalg._pivot_rows

    def counted(vectors):
        calls.append(1)
        return pivot_rows(vectors)

    # in every module that binds the name, so a second import is counted
    for module in (linalg, cohomology):
        if "_pivot_rows" in vars(module):
            monkeypatch.setattr(module, "_pivot_rows", counted)
    code, _ = run(["cohomology", str(DATA / "case13.txt"), "--max-degree",
                   "12", "--representatives"], tmp_path, capsys)
    assert code == 0
    assert cli.SERIES_TERMS + 1 + 13 == len(calls) == 54


def test_cohomology_zero_differential_prints_the_hilbert_series(
        tmp_path, capsys):
    """20 even generators: h_n = C(20, n) and the series is (1+z)^20,
    expanded, where a fit of 41 Betti numbers is inconclusive."""
    g = ColorLieAlgebra(CommutationMatrix([[1] * 20] * 20), {})
    path = write_algebra(tmp_path, g)
    code, out = run(["cohomology", path, "--max-degree", "3"], tmp_path, capsys)
    assert code == 0
    assert "betti: 1 20 190 1140\n" in out
    terms = (["1", "20*z"] + ["%d*z^%d" % (comb(20, n), n) for n in range(2, 20)]
             + ["z^20"])
    assert "series: %s\n" % "+".join(terms) in out


def test_series_command(tmp_path, capsys):
    code, out = run(["series", "1", "2", "2", "2", "2", "2", "2", "2", "2",
                     "2", "2", "2", "2"], tmp_path, capsys)
    assert code == 0
    assert "(1+z)/(1-z)" in out


def test_series_command_inconclusive(tmp_path, capsys):
    code, out = run(["series", "1,1,0,1,1,0,2,1,0,1,1,1"], tmp_path, capsys)
    assert code == 1
    assert "inconclusive" in out


def test_dual_command(tmp_path, capsys):
    g = catalog.load(5)
    abelian = ColorLieAlgebra(g.cm, {}, grading=g.grading)
    path = write_algebra(tmp_path, abelian)
    code, out = run(["dual", path], tmp_path, capsys)
    assert code == 0
    assert "square-zero: f1 f2 f3" in out
    assert "commuting pairs: (f1,f2) (f1,f3) (f2,f3)" in out


def test_hilbert_command(tmp_path, capsys):
    g = catalog.load(5)
    abelian = ColorLieAlgebra(g.cm, {}, grading=g.grading)
    path = write_algebra(tmp_path, abelian)
    code, out = run(["hilbert", path], tmp_path, capsys)
    assert code == 0
    assert "hilbert: (1)/(1-3*z+3*z^2-z^3)" in out
    assert "coefficients: 1 3 6 10" in out.replace("  ", " ")
    assert "enumeration check: OK" in out


def test_hilbert_counts_monomials_without_listing_them(
        tmp_path, capsys, monkeypatch):
    """12 even generators: U(g_Ab) is the polynomial ring, whose degree-d
    part has C(d + 11, d) monomials (352,716 at d = 10), counted without
    enumerating a basis."""
    def enumerate_basis(algebra, n):
        raise AssertionError("degree_record(%d) called" % n)

    monkeypatch.setattr(SignAlgebra, "degree_record", enumerate_basis)
    g = ColorLieAlgebra(CommutationMatrix([[1] * 12] * 12), {})
    path = write_algebra(tmp_path, g)
    code, out = run(["hilbert", path], tmp_path, capsys)
    assert code == 0
    counts = [comb(d + 11, d) for d in range(11)]
    assert "coefficients: %s\n" % " ".join(map(str, counts)) in out
    assert "enumeration check: OK\n" in out


def test_pbw_command(tmp_path, capsys):
    path = write_algebra(tmp_path, catalog.load(3))
    code, out = run(["pbw", path], tmp_path, capsys)
    assert code == 0 and "pbw: PASS" in out


def test_table_text(tmp_path, capsys):
    code, out = run(["table", "--max-degree", "4"], tmp_path, capsys)
    lines = out.splitlines()
    assert cli.RECONCILIATION_NOTE in lines[0]
    # one known mismatching row (id 9); everything else passes
    fails = [l for l in lines if l.endswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("9")
    assert lines[-1] == "passed 31/32"
    assert code == 1


def test_table_rows_share_one_dual_algebra_per_sign_algebra(monkeypatch):
    """Every row's differential is built by differential_from_brackets on
    the one object dual_of keeps for its dual algebra, so rows with equal
    duals (row 10's six samples among them) read the same degree records,
    and table keeps no map of its own."""
    built = []

    def spy(g):
        d = differential_from_brackets(g)
        built.append((g, d))
        return d

    monkeypatch.setattr(cli, "differential_from_brackets", spy)
    cli._table_rows(2)
    assert len(built) == 32
    shared = {}
    for g, d in built:
        assert d.algebra is dual_of(g)
        assert shared.setdefault(d.algebra, d.algebra) is d.algebra
    assert len(shared) < len(built)


def test_table_csv_header(tmp_path, capsys):
    code, out = run(["table", "--max-degree", "3", "--format", "csv"],
                    tmp_path, capsys)
    header = out.splitlines()[0]
    assert header == "id,param,h0,h1,h2,h3,series,expected,verdict"


def test_table_json(tmp_path, capsys):
    code, out = run(["table", "--max-degree", "3", "--format", "json"],
                    tmp_path, capsys)
    payload = json.loads(out)
    assert payload["total"] == 32
    assert payload["passed"] == 31
    row5 = next(r for r in payload["rows"] if r["id"] == "5")
    assert row5["h"] == [1, 2, 2, 1]
    assert row5["verdict"] == "PASS"


def test_table_out_file_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cli.main(["table", "--max-degree", "3", "--format", "csv",
              "--out", str(out1)])
    cli.main(["table", "--max-degree", "3", "--format", "csv",
              "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_out_to_unwritable_path_is_input_error(tmp_path, capsys):
    target = tmp_path / "absent" / "x.txt"
    terms = [str(n + 1) for n in range(12)]
    assert cli.main(["series"] + terms + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_out_to_missing_directory_fails_before_the_run(tmp_path, capsys,
                                                       monkeypatch):
    """An --out path in a missing folder, or naming an existing directory,
    is an input error found before the command runs."""
    def run_table(nmax):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli, "_table_rows", run_table)
    folder = tmp_path / "folder"
    folder.mkdir()
    for target in (tmp_path / "absent" / "x.txt", folder):
        assert cli.main(["table", "--max-degree", "30",
                         "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
    assert not (tmp_path / "absent").exists()
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("failure", ["missing-file", "short-series",
                                     "zero-denominator"])
def test_failed_run_leaves_out_file_untouched(tmp_path, capsys, failure):
    argv = {
        "missing-file": ["cohomology", str(tmp_path / "missing.txt")],
        "short-series": ["series", "1", "2"],
        "zero-denominator": ["cohomology",
                             write_algebra(tmp_path, catalog.load(10)),
                             "--param", "1/0"],
    }[failure]
    target = tmp_path / "r.txt"
    target.write_text("precious", encoding="utf-8")
    assert cli.main(argv + ["--out", str(target)]) == 2
    assert target.read_text(encoding="utf-8") == "precious"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_round_trip_report_identical(tmp_path, capsys):
    g = catalog.load(13)
    p1 = write_algebra(tmp_path, g, "a.txt")
    code1, out1 = run(["cohomology", p1, "--max-degree", "6",
                       "--representatives"], tmp_path, capsys)
    from colorlie.files import parse_algebra_file
    reparsed, _ = parse_algebra_file(p1)
    p2 = write_algebra(tmp_path, reparsed, "b.txt")
    code2, out2 = run(["cohomology", p2, "--max-degree", "6",
                       "--representatives"], tmp_path, capsys)
    assert (code1, out1) == (code2, out2)


SRC = Path(__file__).resolve().parent.parent / "src"
CASE13 = str(SRC.parent / "data" / "algebras" / "case13.txt")


def fresh_interpreter(code):
    """Standard output of code run by a new Python process on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("argv", [
    ["cohomology", CASE13, "--max-degree", "2"], ["check", CASE13],
    ["pbw", CASE13], ["dual", CASE13], ["hilbert", CASE13],
    ["series", "1"] + ["2"] * 12,
], ids=lambda argv: argv[0])
def test_command_loads_no_catalog_json_or_csv(argv):
    """Only table reads the catalog and writes JSON or CSV."""
    out = fresh_interpreter(
        "import sys\nfrom colorlie import cli\ncode = cli.main(%r)\n"
        "print(code, sorted(m for m in ('colorlie.catalog', 'json', 'csv')"
        " if m in sys.modules))" % argv)
    assert out.splitlines()[-1] == "0 []"


def test_package_import_loads_no_submodule():
    out = fresh_interpreter(
        "import sys, colorlie\n"
        "print(sorted(m for m in sys.modules if m.startswith('colorlie.')))")
    assert out == "[]\n"


def test_file_format_does_not_load_the_catalog():
    out = fresh_interpreter(
        "import sys, colorlie.files\nprint('colorlie.catalog' in sys.modules)")
    assert out == "False\n"


def test_cli_binds_the_names_the_benchmark_tracer_wraps():
    """perfbench/traced.py wraps these names in the cli module itself."""
    names = ["parse_algebra_file", "uea_relations", "groebner_check",
             "differential_from_brackets", "betti_from_differential",
             "representatives_from_differential", "recognize"]
    assert [name for name in names if name not in vars(cli)] == []
