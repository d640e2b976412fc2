"""Random manifests and argv through the command line: a named exit, never a traceback."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.cli import main
from qcy.cyclo import RootScalar
from qcy.hilbert import DEGREE_BOUND
from qcy.points import INFINITE
from qcy.qalgebra import AlgebraSpec
from qcy.search import _cy_lattice

from helpers import (
    CRITERION_2_SYSTEMS,
    image_brute,
    manifest_text,
    reference_census,
    reference_chart,
    reference_second_chart_scalar,
    reference_solve_root_system,
    within,
)

COMMANDS = ("certify", "census", "point-scheme", "pi-degree", "hilbert",
            "center", "enumerate-weights", "search-q")


@st.composite
def manifests(draw):
    """One or two blocks, order <= 12, <= 5 generators, rows sometimes bad."""
    lines = ["schema 1"]
    if draw(st.booleans()):
        lines.append("criterion " + draw(st.sampled_from(("weighted", "segre", "mixed"))))
    for name in "AB"[:draw(st.integers(1, 2))]:
        order = draw(st.integers(1, 12))
        n = draw(st.integers(1, 5))
        weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        lines += [f"algebra {name}", f"order {order}",
                  "weights " + " ".join(map(str, weights))]
        rows = draw(st.sampled_from(("antisymmetric", "arbitrary", "one short", "none")))
        if rows == "none":
            continue
        entries = st.integers(0, order - 1)
        if rows == "antisymmetric":
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mat[i][j] = draw(entries)
                    mat[j][i] = -mat[i][j] % order
        else:
            mat = [[draw(entries) for _ in range(n)] for _ in range(n)]
        if rows == "one short":
            mat = mat[:-1]
        lines += ["row " + " ".join(map(str, row)) for row in mat]
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw, path):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "enumerate-weights" and draw(st.booleans()):
        argv += ["--vars", str(draw(st.integers(-1, 5))),
                 "--bound", str(draw(st.sampled_from((-1, 0, 1, 4, 12, 20, 1000))))]
    elif command == "enumerate-weights":  # many small weights
        argv += ["--vars", str(draw(st.integers(-1, 2000))),
                 "--bound", str(draw(st.integers(1, 3)))]
    else:
        argv += ["--input", path]
    if command in ("pi-degree", "center") and draw(st.booleans()):
        argv += ["--chart", str(draw(st.integers(-1, 5)))]
    if command == "hilbert":
        argv += ["--max-degree", str(draw(st.sampled_from(
            (0, 1, 12, DEGREE_BOUND, DEGREE_BOUND + 1, 10**7))))]
    if command == "search-q" and draw(st.booleans()):
        argv += ["--order", str(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        argv += ["--format", "human"]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@given(manifests(), st.data())
@settings(max_examples=300, deadline=None)
def test_every_invocation_ends_in_a_named_exit(text, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.man")
        with open(path, "w") as fh:
            fh.write(text)
        argv = data.draw(invocations(path))
        code, out, err = within(30, lambda: _run(argv))
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    structured = argv[-2:] != ["--format", "human"]
    assert _parses(out) == (structured and code == 0), (argv, code, out[:200])
    if structured and code == 0:
        # the report writer writes what json writes with indent=2, sort_keys=True
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@st.composite
def surfaces(draw, orders=lambda d: st.integers(1, 12 * d)):
    """A criterion-2 weight system at an order N drawn from orders(d), 1..12 d
    by default, each upper entry a multiple of the search's stride for its
    pair: a spec the census must answer, Calabi-Yau or not."""
    weights = draw(st.sampled_from(CRITERION_2_SYSTEMS))
    order = draw(orders(sum(weights)))
    pairs, strides, boxes, _ = _cy_lattice(weights, order)
    exps = [[0] * 4 for _ in range(4)]
    for (i, j), stride, box in zip(pairs, strides, boxes):
        exps[i][j] = stride * draw(st.integers(0, box - 1))
        exps[j][i] = -exps[i][j] % order
    return AlgebraSpec(weights, order, exps)


def _tagged(count):
    if count is INFINITE:
        return {"kind": "infinite"}
    return {"kind": "finite", "value": count}


def _run_on(spec, command, *options):
    """`command` on a manifest holding spec, through main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.man")
        with open(path, "w") as fh:
            fh.write(manifest_text(spec))
        return within(30, lambda: _run([command, "--input", path, *options]))


@given(surfaces())
@settings(max_examples=200, deadline=None)
def test_census_answers_agree_with_the_chart_by_chart_reference(spec):
    code, out, err = _run_on(spec, "census")
    assert (code, err) == (0, ""), spec
    got = json.loads(out)["result"]
    ref = reference_census(spec)
    assert got["total"] == _tagged(ref.total)
    assert got["charts"] == [
        {"chart": c.chart,
         "description": c.description,
         "count": _tagged(c.count),
         "items": [{"support": list(i.support), "count": _tagged(i.count)}
                   for i in c.items],
         "trivial_pairs": [list(p) for p in c.trivial_pairs]}
        for c in ref.charts]
    assert got["second_chart_scalar"] == list(reference_second_chart_scalar(spec))


@given(surfaces(orders=lambda d: st.integers(1, 6).map(lambda k: k * d)))
@settings(max_examples=200, deadline=None)
def test_certify_answers_agree_with_the_column_reference(spec):
    """At N = k d every draw meets the weighted hypotheses, and the verdict
    falls either way; each is compared with the column-by-column solver on
    the pairs (a_j, zeta_N^(sum_i e_ij))."""
    code, out, err = _run_on(spec, "certify")
    assert (code, err) == (0, ""), spec
    got = json.loads(out)["result"]
    pairs = [(a, RootScalar(spec.order, sum(row[j] for row in spec.exponents)))
             for j, a in enumerate(spec.weights)]
    witness, j = reference_solve_root_system(pairs)
    if witness is None:
        assert got["verdict"] == "not_CY", spec
        assert got["detail"] == (
            f"no root of unity c exists; columns 0..{j} are jointly unsolvable")
    else:
        assert got["verdict"] == "CY", spec
        assert got["witness"] == [list(witness.pair())]


@given(surfaces(orders=lambda d: st.integers(1, 7)))
@settings(max_examples=200, deadline=None)
def test_pi_degree_answers_agree_with_the_enumerated_image(spec):
    """At N <= 7 the image of the surface's matrix (N^4 <= 2,401 vectors)
    and of each chart's (N^3) is enumerated over (Z/N)^m; the chart
    matrices are the chart scalars by their definition, not qalgebra's."""
    n = spec.order
    for chart in (None, 0, 1):
        options = () if chart is None else ("--chart", str(chart))
        code, out, err = _run_on(spec, "pi-degree", *options)
        assert (code, err) == (0, ""), (spec, chart)
        got = json.loads(out)["result"]
        if chart is None:
            mat = spec.exponents
        else:
            mat = [[s.exponent_over(n) for s in row] for row in reference_chart(spec, chart)]
        size = len(image_brute(mat, n))
        assert (got["image_size"], got["pi_degree"] ** 2) == (size, size), (spec, chart)
