"""Random manifests and argv through the command line: a named exit, never a traceback."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.cli import main
from qcy.hilbert import DEGREE_BOUND

from helpers import within

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
