"""Command line behavior: frozen reports, determinism, and exit codes."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qcy import cli, cyclo, hilbert, points, qalgebra, search
from qcy.cli import main

from helpers import within

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests/golden")

CASES = [
    ("certify_weighted.json",
     ["certify", "--input", "tests/golden/manifests/weighted.man"]),
    ("certify_segre.json",
     ["certify", "--input", "tests/golden/manifests/segre.man"]),
    ("certify_mixed.json",
     ["certify", "--input", "tests/golden/manifests/mixed.man"]),
    ("certify_notcy.json",
     ["certify", "--input", "tests/golden/manifests/notcy.man"]),
    ("census.json",
     ["census", "--input", "tests/golden/manifests/weighted.man"]),
    ("census_human.txt",
     ["census", "--input", "tests/golden/manifests/weighted.man",
      "--format", "human"]),
    ("point_scheme_weighted.json",
     ["point-scheme", "--input", "tests/golden/manifests/weighted.man"]),
    ("point_scheme_segre.json",
     ["point-scheme", "--input", "tests/golden/manifests/segre.man"]),
    ("pi_degree_chart0.json",
     ["pi-degree", "--input", "tests/golden/manifests/weighted.man",
      "--chart", "0"]),
    ("pi_degree_ambient.json",
     ["pi-degree", "--input", "tests/golden/manifests/weighted.man"]),
    ("hilbert_12.json",
     ["hilbert", "--input", "tests/golden/manifests/weighted.man"]),
    ("hilbert_segre.json",
     ["hilbert", "--input", "tests/golden/manifests/segre.man"]),
    ("center_chart0.json",
     ["center", "--input", "tests/golden/manifests/weighted.man",
      "--chart", "0"]),
    ("enumerate_weights_25.json",
     ["enumerate-weights", "--vars", "4", "--bound", "25"]),
    ("search_q_1111_order2.json",
     ["search-q", "--input", "tests/golden/manifests/cube.man"]),
]


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_frozen_report(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0
    assert err == ""
    expected = (GOLDEN / "expected" / name).read_text()
    assert out == expected


def test_reports_build_no_cyclotomic_integer(monkeypatch):
    """Every golden invocation runs on exponent arithmetic alone."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a CycInt")

    monkeypatch.setattr(cyclo.CycInt, "__init__", refuse)
    for name, argv in CASES:
        code, out, err = run_cli(argv)
        assert (name, code, err) == (name, 0, "")
        assert out == (GOLDEN / "expected" / name).read_text(), name


def test_reports_are_deterministic():
    for name, argv in CASES[:6]:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_json_reports_parse_and_embed_digest():
    for name, argv in CASES:
        if not name.endswith(".json"):
            continue
        _, out, _ = run_cli(argv)
        doc = json.loads(out)
        assert out.endswith("\n")
        assert len(doc["input"]["digest"]) == 64
        assert "result" in doc


def test_parse_error_exits_2_with_position(tmp_path):
    bad = tmp_path / "bad.man"
    bad.write_text("schema 1\norder 3\nweights 1 1 x\n")
    code, out, err = run_cli(["certify", "--input", str(bad)])
    assert code == 2
    assert out == ""
    assert "line 3, column 13" in err


def test_missing_file_exits_2(tmp_path):
    code, _, err = run_cli(["certify", "--input", str(tmp_path / "nope.man")])
    assert code == 2
    assert "error" in err


def test_hypothesis_violation_exits_3(tmp_path):
    bad = tmp_path / "anti.man"
    bad.write_text(
        "schema 1\norder 3\nweights 1 1 2 2\n"
        "row 0 1 0 0\nrow 1 0 0 0\nrow 0 0 0 0\nrow 0 0 0 0\n")
    code, _, err = run_cli(["census", "--input", str(bad)])
    assert code == 3
    assert "error" in err


ONE_GENERATOR = "schema 1\norder 3\nweights 1\nrow 0\n"


def test_certify_refuses_one_generator_fermat_sides(tmp_path):
    weighted = tmp_path / "one.man"
    weighted.write_text(ONE_GENERATOR)
    segre = tmp_path / "segre_one.man"
    segre.write_text(
        "schema 1\ncriterion segre\n\nalgebra A\norder 2\nweights 1\nrow 0\n"
        "\nalgebra B\norder 2\nweights 1\nrow 0\n")
    for man, count in ((weighted, 1), (segre, 2)):
        code, out, err = run_cli(["certify", "--input", str(man)])
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["verdict"] == "hypotheses_violated"
        assert result["expected_dimension"] is None
        assert [v["kind"] for v in result["violations"]] == ["generator-count"] * count


def test_search_q_finds_nothing_for_one_generator(tmp_path):
    man = tmp_path / "one.man"
    man.write_text(ONE_GENERATOR)
    code, out, _ = run_cli(["search-q", "--input", str(man)])
    assert code == 0
    assert json.loads(out)["result"]["count"] == 0


def test_search_q_refuses_two_algebras():
    code, _, err = run_cli(
        ["search-q", "--input", "tests/golden/manifests/segre.man"])
    assert code == 2
    assert "one algebra" in err


BLOCK = "order 3\nweights 1 1\nrow 0 1\nrow 2 0\n"


@pytest.mark.parametrize("criterion,blocks,need", [
    ("weighted", 2, 1),
    ("segre", 1, 2),
    ("mixed", 1, 2),
])
def test_certify_refuses_a_wrong_algebra_count(criterion, blocks, need, tmp_path):
    man = tmp_path / "count.man"
    man.write_text(f"schema 1\ncriterion {criterion}\n" + "".join(
        f"algebra {name}\n{BLOCK}" for name in "AB"[:blocks]))
    code, out, err = run_cli(["certify", "--input", str(man)])
    assert code == 2
    assert out == ""
    assert (f"criterion {criterion} needs {need} algebra(s), "
            f"manifest has {blocks}") in err
    assert "Traceback" not in err


def test_criterion_defaults_by_block_count(tmp_path):
    text = Path("tests/golden/manifests/weighted.man").read_text()
    stripped = "\n".join(
        line for line in text.splitlines() if not line.startswith("criterion"))
    man = tmp_path / "nocrit.man"
    man.write_text(stripped + "\n")
    code, out, _ = run_cli(["certify", "--input", str(man)])
    assert code == 0
    assert json.loads(out)["criterion"] == "weighted"


def test_search_q_order_override():
    code, out, _ = run_cli(
        ["search-q", "--input", "tests/golden/manifests/cube.man",
         "--order", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 1  # only the commutative class
    assert doc["result"]["order"] == 1


def test_hilbert_max_degree_flag():
    code, out, _ = run_cli(
        ["hilbert", "--input", "tests/golden/manifests/weighted.man",
         "--max-degree", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["coefficients"] == [1, 2, 5, 8, 14]
    assert doc["result"]["quotient"]["coefficients"] == [1, 2, 5, 8, 14]


def test_hilbert_segre_product_of_quotients():
    code, out, _ = run_cli(
        ["hilbert", "--input", "tests/golden/manifests/segre.man",
         "--max-degree", "8"])
    assert code == 0
    result = json.loads(out)["result"]
    assert sorted(result) == ["algebras", "max_degree", "segre_of_quotients"]
    assert result["segre_of_quotients"] == [
        1, 12, 60, 180, 408, 780, 1332, 2100, 3120]
    a, b = (side["quotient"]["coefficients"] for side in result["algebras"])
    assert result["segre_of_quotients"] == [x * y for x, y in zip(a, b)]
    assert "max_degree" not in result["algebras"][0]


def test_hilbert_segre_is_null_without_a_fermat_quotient(tmp_path):
    man = tmp_path / "nofermat.man"
    man.write_text(
        "schema 1\n\nalgebra A\norder 2\nweights 1 1\nrow 0 0\nrow 0 0\n"
        "\nalgebra B\norder 2\nweights 1 1 3\n"
        "row 0 0 0\nrow 0 0 0\nrow 0 0 0\n")
    code, out, _ = run_cli(["hilbert", "--input", str(man), "--max-degree", "3"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["segre_of_quotients"] is None
    assert result["algebras"][0]["quotient"]["coefficients"] == [1, 2, 2, 2]
    assert result["algebras"][1]["quotient"] is None
    assert result["algebras"][1]["coefficients"] == [1, 2, 3, 5]


def test_hilbert_serves_a_weights_only_manifest():
    """The series and the Fermat quotient read the weights and the order
    alone, so cube.man, which has no matrix rows, is served."""
    code, out, err = run_cli(
        ["hilbert", "--input", "tests/golden/manifests/cube.man",
         "--max-degree", "5"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["weights"] == [1, 1, 1, 1]
    assert result["order"] == 2
    assert result["series"]["denominator"] == [[1]] * 4
    assert result["coefficients"] == [1, 4, 10, 20, 35, 56]
    assert result["quotient"]["degree"] == 4
    assert result["quotient"]["coefficients"] == [1, 4, 10, 20, 34, 52]


@pytest.mark.parametrize("rows", [
    "row 0 0 0 0\n",                      # too few rows
    "row 0 0 0\nrow 0 0 0\nrow 0 0 0\nrow 0 0 0\n",  # short rows
    "row 0 0 0 x\n",
])
def test_hilbert_with_malformed_rows_exits_2(tmp_path, rows):
    man = tmp_path / "bad.man"
    man.write_text("schema 1\norder 2\nweights 1 1 1 1\n" + rows)
    code, out, err = run_cli(["hilbert", "--input", str(man)])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_hilbert_above_the_degree_bound_exits_2():
    code, out, err = within(5, lambda: run_cli(
        ["hilbert", "--input", "tests/golden/manifests/weighted.man",
         "--max-degree", "10000000"]))
    assert code == 2
    assert out == ""
    assert f"DEGREE_BOUND = {hilbert.DEGREE_BOUND}" in err
    assert "10000000" in err
    assert "Traceback" not in err


def test_enumerate_weights_above_the_bound_exits_2():
    code, out, err = within(5, lambda: run_cli(
        ["enumerate-weights", "--vars", "7", "--bound", "25"]))
    assert code == 2
    assert out == ""
    assert f"WEIGHT_ENUMERATION_BOUND = {search.WEIGHT_ENUMERATION_BOUND}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["pi-degree", "--chart", "7"],
    ["center", "--chart", "9"],
    ["pi-degree", "--chart", "-1"],
], ids=["pi-degree-7", "center-9", "pi-degree-negative"])
def test_chart_index_out_of_range_exits_2(argv, tmp_path):
    man = tmp_path / "unit.man"
    man.write_text(
        "schema 1\norder 3\nweights 1 1 1\n"
        "row 0 2 1\nrow 1 0 2\nrow 2 1 0\n")
    code, out, err = run_cli(argv + ["--input", str(man)])
    assert code == 2
    assert out == ""
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    ["hilbert", "--input", "tests/golden/manifests/weighted.man",
     "--max-degree", "-1"],
    ["search-q", "--input", "tests/golden/manifests/cube.man", "--order", "0"],
    ["search-q", "--input", "tests/golden/manifests/cube.man", "--order", "-3"],
], ids=["max-degree-negative", "order-zero", "order-negative"])
def test_numeric_argument_out_of_range_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_search_q_invariant_failure_exits_4(monkeypatch):
    """A kept class whose column system fails is a defect, also under -O.

    The forgery multiplies q_01 by zeta and q_10 by its inverse in the last
    class of cube.man: the hypotheses still hold, but the column products
    no longer agree, so the batch certification refuses it."""
    real = search._exponent_matrices

    def forged(*args):
        exps = real(*args)
        exps[-1, 0, 1] = (exps[-1, 0, 1] + 1) % 2
        exps[-1, 1, 0] = (exps[-1, 1, 0] - 1) % 2
        return exps

    monkeypatch.setattr(search, "_exponent_matrices", forged)
    code, out, err = run_cli(
        ["search-q", "--input", "tests/golden/manifests/cube.man"])
    assert code == 4
    assert out == ""
    assert "internal defect" in err
    assert "jointly unsolvable" in err


def test_search_q_above_the_bound_exits_2(tmp_path):
    """Six unit weights at order 6: 6^15 candidates, refused up front."""
    man = tmp_path / "six.man"
    man.write_text("schema 1\norder 6\nweights 1 1 1 1 1 1\n")
    code, out, err = within(5, lambda: run_cli(["search-q", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert f"SEARCH_BOUND = {search.SEARCH_BOUND}" in err
    assert "362797056" in err
    assert "Traceback" not in err


def test_search_q_above_the_action_bound_exits_2(tmp_path):
    """Ten unit weights: 10! permutations acting on 45 pairs, refused before
    any is built."""
    man = tmp_path / "ten.man"
    man.write_text("schema 1\norder 1\nweights" + " 1" * 10 + "\n")
    code, out, err = within(1, lambda: run_cli(["search-q", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert f"ACTION_BOUND = {search.ACTION_BOUND}" in err
    assert "163296000" in err
    assert "Traceback" not in err


def test_search_q_answers_nine_equal_weights(tmp_path):
    """Nine unit weights, 9! * 36 action entries, are still answered."""
    man = tmp_path / "nine.man"
    man.write_text("schema 1\norder 1\nweights" + " 1" * 9 + "\n")
    code, out, err = within(20, lambda: run_cli(["search-q", "--input", str(man)]))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["count"] == 1


def test_point_scheme_above_the_bound_exits_2(tmp_path):
    """Twenty-four generators at order 1: every one of the 2^24 supports is
    admissible, and the walk is refused before it starts."""
    man = tmp_path / "twentyfour.man"
    man.write_text("schema 1\norder 1\nweights" + " 1" * 24 + "\n"
                   + ("row" + " 0" * 24 + "\n") * 24)
    code, out, err = within(1, lambda: run_cli(["point-scheme", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert f"STRATUM_BOUND = {points.STRATUM_BOUND}" in err
    assert "Traceback" not in err


def test_center_above_the_bound_exits_2(tmp_path):
    """Fifteen generators: a chart of 14, cross-check priced at 7,596,960 steps."""
    man = tmp_path / "fifteen.man"
    man.write_text("schema 1\norder 7\nweights" + " 1" * 15 + "\n"
                   + ("row" + " 0" * 15 + "\n") * 15)
    code, out, err = within(1, lambda: run_cli(["center", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert f"CENTER_CHECK_BOUND = {qalgebra.CENTER_CHECK_BOUND}" in err
    assert "7596960" in err
    assert "Traceback" not in err


def test_certify_failing_verification_exits_4(monkeypatch):
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: False)
    code, out, err = run_cli(
        ["certify", "--input", "tests/golden/manifests/weighted.man"])
    assert code == 4
    assert out == ""
    assert "internal defect" in err


def test_center_with_a_forged_lattice_exits_4(monkeypatch):
    """A kernel lattice missing its row (1, 1, 1) disagrees with the reorder
    exponents of x0 x1 x2, which is central on chart 0 of weighted.man."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice", lambda *a: real(*a)[1:])
    code, out, err = run_cli(
        ["center", "--input", "tests/golden/manifests/weighted.man", "--chart", "0"])
    assert code == 4
    assert out == ""
    assert "internal defect: lattice and direct centrality disagree" in err


NOT_ALTERNATING = {
    "nonzero-diagonal": "schema 1\norder 7\nweights 1\nrow 1\n",
    "not-antisymmetric": (
        "schema 1\norder 7\nweights 1 1 1\n"
        "row 0 1 0\nrow 1 0 0\nrow 0 0 0\n"),
    "second-block": (
        "schema 1\ncriterion segre\n\nalgebra A\norder 2\nweights 1 1\n"
        "row 0 0\nrow 0 0\n\nalgebra B\norder 3\nweights 1 1\n"
        "row 0 1\nrow 1 0\n"),
}


@pytest.mark.parametrize("command,name", [
    ("point-scheme", "nonzero-diagonal"),
    ("pi-degree", "nonzero-diagonal"),
    ("center", "nonzero-diagonal"),
    ("point-scheme", "not-antisymmetric"),
    ("pi-degree", "not-antisymmetric"),
    ("center", "not-antisymmetric"),
    ("point-scheme", "second-block"),
])
def test_matrix_without_unit_diagonal_or_antisymmetry_exits_3(command, name, tmp_path):
    """The input breaks an assumption of the command: exit 3, not 4 or an answer."""
    man = tmp_path / "bad.man"
    man.write_text(NOT_ALTERNATING[name])
    code, out, err = within(5, lambda: run_cli([command, "--input", str(man)]))
    assert code == 3
    assert out == ""
    assert "unit diagonal and antisymmetry" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,key,value", [
    (["center"], "pure_powers", [10**9 + 7] * 3),
    (["center", "--chart", "2"], "pure_powers", [10**9 + 7, 10**9 + 7, 1]),
    (["pi-degree"], "pi_degree", 10**9 + 7),
], ids=["center", "center-chart-2", "pi-degree"])
def test_root_order_near_a_billion_is_answered_at_once(argv, key, value, tmp_path):
    """No cost grows with the root order: only exponents mod N are handled."""
    n = 10**9 + 7
    man = tmp_path / "big.man"
    man.write_text(
        f"schema 1\norder {n}\nweights 1 1 1 1\n"
        f"row 0 1 0 0\nrow {n - 1} 0 0 0\nrow 0 0 0 0\nrow 0 0 0 0\n")
    code, out, err = within(5, lambda: run_cli(argv + ["--input", str(man)]))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"][key] == value


def test_one_generator_chart_past_the_kernels_modulus_bound(tmp_path):
    """A chart of one generator at N = 3 * 10^9: the Smith form answers alone."""
    man = tmp_path / "huge.man"
    man.write_text("schema 1\norder 3000000000\nweights 1 1\nrow 0 7\nrow -7 0\n")
    code, out, err = within(5, lambda: run_cli(
        ["pi-degree", "--chart", "0", "--input", str(man)]))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["pi_degree"] == 1


def _golden(name):
    return (GOLDEN / "expected" / name).read_text()


def test_usage_errors_and_help_leave_the_parser_serving():
    """One parser serves the process: after a usage error and a help exit,
    the next request still reproduces its frozen report."""
    cli._build_parser()
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        run_cli(["search-q", "--input", "tests/golden/manifests/cube.man",
                 "--order", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["certify", "--help"])
    assert exc.value.code == 0
    assert cli._build_parser() is parser
    code, out, err = run_cli(
        ["certify", "--input", "tests/golden/manifests/weighted.man"])
    assert (code, out, err) == (0, _golden("certify_weighted.json"), "")


def test_no_argument_leaks_between_requests():
    """--chart 0 on one request leaves the next one's default alone."""
    argv = ["pi-degree", "--input", "tests/golden/manifests/weighted.man"]
    assert run_cli(argv + ["--chart", "0"]) == (0, _golden("pi_degree_chart0.json"), "")
    assert run_cli(argv) == (0, _golden("pi_degree_ambient.json"), "")


def test_commands_are_looked_up_when_called(monkeypatch):
    """A cmd_* replaced after the parser is built is the one main runs, so a
    wrapper installed in the module namespace sees every request."""
    argv = ["center", "--input", "tests/golden/manifests/weighted.man", "--chart", "0"]
    run_cli(argv)
    calls = []
    real = cli.cmd_center

    def wrapped(man, args):
        calls.append(args.chart)
        return real(man, args)

    monkeypatch.setattr(cli, "cmd_center", wrapped)
    assert run_cli(argv) == (0, _golden("center_chart0.json"), "")
    assert calls == [0]


def test_point_scheme_walks_its_supports_once(monkeypatch):
    """One single-algebra request walks the admissible supports once:
    max_stratum_dimension reads the ones the report lists."""
    calls = []
    supports = points.admissible_supports

    def count_supports(spec):
        calls.append(spec.nvars)
        return supports(spec)

    monkeypatch.setattr(points, "admissible_supports", count_supports)
    monkeypatch.setattr(cli, "admissible_supports", count_supports)
    code, out, err = run_cli(
        ["point-scheme", "--input", "tests/golden/manifests/weighted.man"])
    assert (code, out, err) == (0, _golden("point_scheme_weighted.json"), "")
    assert calls == [4]
