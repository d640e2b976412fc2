"""Command line behavior: frozen reports, determinism, and exit codes."""

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcy import cli, cyclo, hilbert, points, qalgebra, search
from qcy.cli import main
from qcy.cycert import Verdict, certify_weighted
from qcy.qalgebra import AlgebraSpec

from helpers import (
    CRITERION_2_SYSTEMS,
    manifest_text,
    record_spec_constructions,
    reference_census,
    reference_search,
    reference_second_chart_scalar,
    within,
)

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
    ("pi_degree_large_order.json",
     ["pi-degree", "--input", "tests/golden/manifests/large_order.man"]),
    ("hilbert_12.json",
     ["hilbert", "--input", "tests/golden/manifests/weighted.man"]),
    ("hilbert_segre.json",
     ["hilbert", "--input", "tests/golden/manifests/segre.man"]),
    ("center_chart0.json",
     ["center", "--input", "tests/golden/manifests/weighted.man",
      "--chart", "0"]),
    ("center_large_order.json",
     ["center", "--input", "tests/golden/manifests/large_order.man",
      "--chart", "0"]),
    ("enumerate_weights_25.json",
     ["enumerate-weights", "--vars", "4", "--bound", "25"]),
    ("search_q_1111_order2.json",
     ["search-q", "--input", "tests/golden/manifests/cube.man"]),
    ("search_q_111_order3.json",
     ["search-q", "--input", "tests/golden/manifests/cubic.man"]),
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


REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-2**70, 2**70) | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@given(REPORT_VALUES)
@settings(max_examples=500, deadline=None)
@example({"\u00e9\"\\\n\x00\x1f": [-1, 2**64 + 1, True, None, [], {}, ()]})
@example({"a": {"b": [[0, -2**70], ("x", "\u2603"), {}]}, "": []})
@example([])
def test_structured_writer_equals_json_dumps(doc):
    """The report writer writes what json.dumps writes with indent=2, sort_keys=True."""
    out: list[str] = []
    cli._json_lines(doc, "", out)
    assert "".join(out) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, np.int64(3), {1: "int key"}, {"a": [0, 2.0]}],
    ids=["float", "np.int64", "int key", "nested float"])
def test_structured_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        cli._json_lines(value, "", [])


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
    # a small sieve: the walk's own count passes the bound
    code, out, err = within(5, lambda: run_cli(
        ["enumerate-weights", "--vars", "300", "--bound", "6"]))
    assert code == 2
    assert out == ""
    assert f"WEIGHT_ENUMERATION_BOUND = {search.WEIGHT_ENUMERATION_BOUND}" in err
    assert "Traceback" not in err


def test_enumerate_weights_with_a_bound_past_floats_exits_2():
    # the sieve's price takes a float only below the bound, so 10^400 is
    # refused by its degree count, not by an OverflowError
    code, out, err = within(5, lambda: run_cli(
        ["enumerate-weights", "--vars", "2", "--bound", str(10**400)]))
    assert code == 2
    assert out == ""
    assert "the sieve is priced at more than WEIGHT_ENUMERATION_BOUND" in err
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


def test_search_q_answers_ten_and_twelve_equal_weights(tmp_path):
    """Ten and twelve unit weights at order 1: the generator moves answer
    them however large the group (10! and 12! permutations)."""
    for n in (10, 12):
        man = tmp_path / f"units{n}.man"
        man.write_text("schema 1\norder 1\nweights" + " 1" * n + "\n")
        code, out, err = within(5, lambda: run_cli(["search-q", "--input", str(man)]))
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["count"] == 1


def test_search_q_answers_nine_equal_weights(tmp_path):
    """Nine unit weights at order 1 are answered."""
    man = tmp_path / "nine.man"
    man.write_text("schema 1\norder 1\nweights" + " 1" * 9 + "\n")
    code, out, err = within(20, lambda: run_cli(["search-q", "--input", str(man)]))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["count"] == 1


def test_search_q_above_the_hermite_bound_exits_2(tmp_path):
    """Forty doubling weights (1, 1, 2, ..., 2^38) at order 2: the Hermite
    form of their 780 pairs is priced past HERMITE_BOUND, refused up front."""
    man = tmp_path / "doubling.man"
    man.write_text("schema 1\norder 2\nweights 1"
                   + "".join(f" {2**k}" for k in range(39)) + "\n")
    code, out, err = within(1, lambda: run_cli(["search-q", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert f"HERMITE_BOUND = {search.HERMITE_BOUND}" in err
    assert "498888000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weights, order, code", [
    ((1, 1) + tuple(2**k for k in range(1, 11)), 10**2000, 2),
    ((1,) * 20, 10**4000, 2),
    ((1,) * 27, 10**4000, 0),
], ids=["doubling12-10^2000", "units20-10^4000", "units27-10^4000"])
def test_search_q_at_a_huge_order_runs_at_its_effective_order(tmp_path, weights,
                                                              order, code):
    """Twelve doubling weights (effective order 2048) and twenty unit
    weights (20) are refused against SEARCH_BOUND, and twenty-seven unit
    weights (1) have one class, the zero matrix: each within a second,
    however many digits N has."""
    argv = ["search-q", "--input", _weights_manifest(tmp_path, weights),
            "--order", str(order)]
    got, out, err = within(1, lambda: run_cli(argv))
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and f"SEARCH_BOUND = {search.SEARCH_BOUND}" in err
    else:
        assert err == ""
        result = json.loads(out)["result"]
        assert result["count"] == 1
        assert result["specs"][0]["exponents"] == [[0] * 27] * 27
        assert result["specs"][0]["witness"] == [1, 0]


def _exact_decimal(value):
    """str(value) with the interpreter's int-to-str limit lifted for the
    one conversion, as a reference the CLI does not share."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [
    0, 7, -7, 10**603, 2**2000, 2**2001, 10**5000, 10**5000 + 1, -(10**5000),
    7**20000, -(3**30001) + 10**100, 12345 * 10**4400,
], ids=lambda v: f"{v.bit_length()}bits")
def test_decimal_writes_ints_past_the_digit_limit(value):
    assert cli._decimal(value) == _exact_decimal(value)


def test_pi_degree_past_the_digit_limit_renders_exactly(tmp_path):
    """Six unit-weight generators with random antisymmetric exponents at
    N = 10^1050: the image size has more than 4,300 digits, and both
    formats print it exactly, with exit 0."""
    order = 10**1050
    rng = random.Random(16)
    exps = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            exps[i][j] = rng.randrange(order)
            exps[j][i] = -exps[i][j] % order
    spec = AlgebraSpec((1,) * 6, order, exps)
    expected = _exact_decimal(points.pi_degree(spec) ** 2)
    assert len(expected) > 4300
    man = tmp_path / "six.man"
    man.write_text(manifest_text(spec))
    argv = ["pi-degree", "--input", str(man)]
    code, out, err = within(5, lambda: run_cli(argv))
    assert (code, err) == (0, "")
    assert f'"image_size": {expected},\n' in out
    code, out, err = within(5, lambda: run_cli(argv + ["--format", "human"]))
    assert (code, err) == (0, "")
    assert f"image_size: {expected}\n" in out


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
    """Eighteen generators: a chart of 17, one past CENTER_GENERATOR_BOUND."""
    man = tmp_path / "eighteen.man"
    man.write_text("schema 1\norder 7\nweights" + " 1" * 18 + "\n"
                   + ("row" + " 0" * 18 + "\n") * 18)
    code, out, err = within(1, lambda: run_cli(["center", "--input", str(man)]))
    assert code == 2
    assert out == ""
    assert "chart of 17 generators" in err
    assert f"CENTER_GENERATOR_BOUND = {qalgebra.CENTER_GENERATOR_BOUND}" in err
    assert "Traceback" not in err


def test_certify_failing_verification_exits_4(monkeypatch):
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: False)
    code, out, err = run_cli(
        ["certify", "--input", "tests/golden/manifests/weighted.man"])
    assert code == 4
    assert out == ""
    assert "internal defect" in err
    assert "certificate with verdict CY fails re-verification" in err


def test_center_with_a_forged_lattice_exits_4(monkeypatch):
    """A kernel lattice missing its row (1, 1, 1) on chart 0 of weighted.man
    is no square Hermite form."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice", lambda *a: real(*a)[1:])
    code, out, err = run_cli(
        ["center", "--input", "tests/golden/manifests/weighted.man", "--chart", "0"])
    assert code == 4
    assert out == ""
    assert "internal defect: kernel basis of 2 rows is not a 3 x 3 Hermite form" in err


def test_center_with_a_doubled_pivot_exits_4(monkeypatch, tmp_path):
    """Chart 0 of this manifest is x1 x0 = zeta_7 x0 x1, whose center x0^7,
    x1^7 has no monomial of degree 1 to 6; the forged kernel (14, 0),
    (0, 7) is central but has index 98, and the image of E has 49."""
    man = tmp_path / "zeta7.man"
    man.write_text("schema 1\norder 7\nweights 1 1 1\n"
                   "row 0 0 0\nrow 0 0 6\nrow 0 1 0\n")
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice",
                        lambda *a: [[14, 0]] + real(*a)[1:])
    code, out, err = run_cli(["center", "--input", str(man), "--chart", "0"])
    assert code == 4
    assert out == ""
    assert "internal defect: kernel basis has index 98, but E has an image of 49" in err


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


@pytest.mark.parametrize("order,k,e", [
    (3 * 10**9, 10**9, 1),
    (2**63 + 1, 3074457345618258603, 1),
    (10**29, 10**29, 3),
], ids=["3e9", "2^63+1", "1e29"])
def test_center_of_a_cyclic_chart_at_large_orders(order, k, e, tmp_path):
    """On x0 x1 x2 with q_01 = q_12 = q_20 = zeta_N, chart 0 has q'_12 =
    zeta_N^3 = zeta_k^e.  The cross-check runs in int64 at 3e9, on Python
    ints at 2^63 + 1 (whose k is below 2**63) and at 10^29, and every
    report is frozen byte for byte."""
    man = tmp_path / "cyclic.man"
    man.write_text(f"schema 1\norder {order}\nweights 1 1 1\n"
                   "row 0 1 -1\nrow -1 0 1\nrow 1 -1 0\n")
    code, out, err = within(5, lambda: run_cli(
        ["center", "--chart", "0", "--input", str(man)]))
    assert (code, err) == (0, "")
    digest = hashlib.sha256(man.read_bytes()).hexdigest()
    assert out == (
        '{\n  "command": "center",\n  "input": {\n'
        f'    "digest": "{digest}",\n    "path": {json.dumps(str(man))}\n  }},\n'
        '  "result": {\n    "basis": [\n'
        f'      [\n        {k},\n        0\n      ],\n'
        f'      [\n        0,\n        {k}\n      ]\n    ],\n'
        '    "chart": 0,\n    "chart_matrix": [\n      [\n'
        '        [\n          1,\n          0\n        ],\n'
        f'        [\n          {k},\n          {e}\n        ]\n      ],\n      [\n'
        f'        [\n          {k},\n          {k - e}\n        ],\n'
        '        [\n          1,\n          0\n        ]\n      ]\n    ],\n'
        '    "has_mixed": false,\n    "kept": [\n      1,\n      2\n    ],\n'
        '    "mixed_generator": null,\n'
        f'    "pure_powers": [\n      {k},\n      {k}\n    ]\n  }}\n}}\n')


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


def test_census_second_chart_scalar_on_every_sweep_row(tmp_path):
    """The q'_32 that qcy census prints equals chart_parameters' on the
    subalgebra x1, x2, x3, for each of the 238 criterion-2 classes."""
    rows = search.sweep_census(CRITERION_2_SYSTEMS)
    assert len(rows) == 238
    man = tmp_path / "row.man"
    for row in rows:
        man.write_text(manifest_text(row.spec))
        code, out, err = run_cli(["census", "--input", str(man)])
        assert (code, err) == (0, ""), row.spec
        scalar = json.loads(out)["result"]["second_chart_scalar"]
        assert scalar == list(reference_second_chart_scalar(row.spec)), row.spec


def test_search_q_tests_the_surface_shape_once(monkeypatch):
    """The census column of search-q asks once per request whether the
    weights are a surface's, not once per class."""
    calls = []
    is_surface = points._is_surface

    def count_is_surface(weights):
        calls.append(tuple(weights))
        return is_surface(weights)

    monkeypatch.setattr(cli, "_is_surface", count_is_surface)
    code, out, err = run_cli(
        ["search-q", "--input", "tests/golden/manifests/cube.man"])
    assert (code, out, err) == (0, _golden("search_q_1111_order2.json"), "")
    assert calls == [(1, 1, 1, 1)]


def _weights_manifest(tmp_path, weights):
    """A manifest of weights alone, at order 1, for search-q --order."""
    man = tmp_path / "weights.man"
    man.write_text("schema 1\norder 1\nweights " + " ".join(map(str, weights)) + "\n")
    return str(man)


def test_search_q_builds_no_spec(monkeypatch, tmp_path):
    """search-q writes the search's matrices and witness pairs as they come
    and builds no AlgebraSpec, on its golden surface and on 72 classes."""
    surface = _weights_manifest(tmp_path, (1, 1, 2, 4))
    built = record_spec_constructions(monkeypatch)
    assert run_cli(["search-q", "--input", "tests/golden/manifests/cube.man"]) == (
        0, _golden("search_q_1111_order2.json"), "")
    code, out, err = run_cli(["search-q", "--input", surface, "--order", "8"])
    assert (code, err, json.loads(out)["result"]["count"]) == (0, "", 72)
    assert built == []


@pytest.mark.parametrize("weights, order", [
    *((w, k * sum(w)) for w in CRITERION_2_SYSTEMS for k in (1, 2, 3)),
    # orders around 2^31 and 2^32: the search runs at its effective order
    # and scales its matrices back as Python ints, which the report writer
    # must get
    ((1, 1), 2**31 - 2),
    ((1, 1), 2**31),
    ((1, 1), 2**32),
    ((1, 1, 1, 1), 2**32),
], ids=str)
def test_search_q_answers_agree_with_the_references(tmp_path, weights, order):
    """qcy search-q --order N, each class against the scalar walk
    (exponents), certify_weighted (witness) and the chart-by-chart census
    (census_total, null off surfaces)."""
    argv = ["search-q", "--input", _weights_manifest(tmp_path, weights),
            "--order", str(order)]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert (result["weights"], result["order"]) == (list(weights), order)
    assert [s["exponents"] for s in result["specs"]] == [
        [list(row) for row in mat] for mat in reference_search(weights, order)]
    assert result["count"] == len(result["specs"])
    for entry in result["specs"]:
        spec = AlgebraSpec(weights, order, entry["exponents"])
        cert = certify_weighted(spec)
        assert cert.verdict is Verdict.CY
        assert entry["witness"] == list(cert.witness[0].pair())
        total = None
        if points._is_surface(weights):
            total = reference_census(spec).total
            total = ({"kind": "infinite"} if total is points.INFINITE
                     else {"kind": "finite", "value": total})
        assert entry["census_total"] == total

