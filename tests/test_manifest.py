"""Manifest parsing: positions, digests, and block structure."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.errors import ManifestError
from qcy.manifest import _tokenize, load, loads

from helpers import reference_tokenize

GOOD = """\
# running example
schema 1
criterion weighted

algebra C
order 3
weights 1 1 2 2
row 0 0 0 2
row 0 0 2 0
row 0 1 0 0
row 1 0 0 0
"""


def test_parse_round_trip():
    man = loads(GOOD)
    assert man.schema == 1
    assert man.criterion == "weighted"
    assert len(man.algebras) == 1
    alg = man.algebras[0]
    assert alg.name == "C"
    assert alg.order == 3
    assert alg.weights == (1, 1, 2, 2)
    spec = alg.spec()
    assert spec.exponents[0] == (0, 0, 0, 2)
    assert man.digest == hashlib.sha256(GOOD.encode()).hexdigest()


def test_load_from_file(tmp_path):
    path = tmp_path / "alg.man"
    path.write_text(GOOD)
    man = load(str(path))
    assert man.algebras[0].weights == (1, 1, 2, 2)


def test_two_algebra_manifest():
    text = """\
schema 1
criterion segre

algebra A
order 2
weights 1 1
row 0 1
row 1 0

algebra B
order 2
weights 1 1
row 0 0
row 0 0
"""
    man = loads(text)
    assert [a.name for a in man.algebras] == ["A", "B"]
    assert man.algebras[1].spec().exponents == ((0, 0), (0, 0))


def test_implicit_single_block():
    man = loads("schema 1\norder 2\nweights 1 1\nrow 0 1\nrow 1 0\n")
    assert man.criterion is None
    assert man.algebras[0].name == "A"


def test_weights_without_rows_is_allowed():
    man = loads("schema 1\norder 6\nweights 1 1 2 2\n")
    assert man.algebras[0].rows is None
    with pytest.raises(ValueError):
        man.algebras[0].spec()


def _error(text):
    with pytest.raises(ManifestError) as info:
        loads(text)
    return info.value


def test_comments_and_blank_lines_ignored():
    text = "# lead\n\nschema 1  # trailing\n\norder 2\nweights 1 1\nrow 0 1\nrow 1 0\n"
    man = loads(text)
    assert man.algebras[0].order == 2


# At least one case per error branch of the reader, each pinned to the exact
# message, line and column the reader gave before its rewrite as one loop.
# Leading blanks and tabs move the columns off 1, so a column taken from the
# wrong token shows; the unindented cases pin the same branches at column 1.
EXACT_ERRORS = [
    pytest.param("# lead\n  order 3\n",
                 "line 2, column 3: manifest must start with a schema line",
                 2, 3, id="schema-not-first"),
    pytest.param("schema 1 2\n",
                 "line 1, column 1: schema takes one version number",
                 1, 1, id="schema-arity"),
    pytest.param("schema one\n",
                 "line 1, column 8: expected an integer, got 'one'",
                 1, 8, id="schema-integer"),
    pytest.param("schema   2\n",
                 "line 1, column 10: unsupported schema version 2",
                 1, 10, id="schema-version"),
    pytest.param("schema 1\n\n schema 1\n",
                 "line 3, column 2: duplicate schema line",
                 3, 2, id="schema-duplicate"),
    pytest.param("schema 1\ncriterion\n",
                 "line 2, column 1: criterion takes one word",
                 2, 1, id="criterion-arity"),
    pytest.param("schema 1\ncriterion  parabolic\n",
                 "line 2, column 12: criterion must be one of segre, mixed, "
                 "weighted; got 'parabolic'",
                 2, 12, id="criterion-unknown"),
    pytest.param("schema 1\ncriterion segre\n criterion mixed\n",
                 "line 3, column 2: duplicate criterion line",
                 3, 2, id="criterion-duplicate"),
    pytest.param("schema 1\nalgebra A B\n",
                 "line 2, column 1: algebra takes one name",
                 2, 1, id="algebra-arity"),
    pytest.param("schema 1\norder 3\n\torder 5\n",
                 "line 3, column 2: duplicate order for algebra 'A'",
                 3, 2, id="order-duplicate"),
    pytest.param("schema 1\norder 3 4\n",
                 "line 2, column 1: order takes one integer",
                 2, 1, id="order-arity"),
    pytest.param("schema 1\norder 3x\n",
                 "line 2, column 7: expected an integer, got '3x'",
                 2, 7, id="order-integer"),
    pytest.param("schema 1\norder  0\n",
                 "line 2, column 8: order must be positive, got 0",
                 2, 8, id="order-below-1"),
    pytest.param("schema 1\nalgebra C\nweights 1\n  weights 1\n",
                 "line 4, column 3: duplicate weights for algebra 'C'",
                 4, 3, id="weights-duplicate"),
    pytest.param("schema 1\norder 3\n weights   # none\n",
                 "line 3, column 2: weights line is empty",
                 3, 2, id="weights-empty"),
    pytest.param("schema 1\norder 3\nweights 1 1 x\n",
                 "line 3, column 13: expected an integer, got 'x'",
                 3, 13, id="weights-integer"),
    # the value below 1 comes before the bad integer after it
    pytest.param("schema 1\norder 3\nweights 1 -1 x\n",
                 "line 3, column 11: weights must be positive, got -1",
                 3, 11, id="weights-below-1"),
    pytest.param("schema 1\norder 3\n  row 0 1\n",
                 "line 3, column 3: matrix rows must come after the weights "
                 "line",
                 3, 3, id="row-before-weights"),
    pytest.param("schema 1\norder 3\nweights 1 1\nrow 0 1 2\n",
                 "line 4, column 1: row has 3 entries, expected 2",
                 4, 1, id="row-width"),
    pytest.param("schema 1\norder 3\nweights 1 1\nrow 0 1\nrow 1 0\n"
                 " row 0 0\n",
                 "line 6, column 2: too many matrix rows for algebra 'A'",
                 6, 2, id="row-one-too-many"),
    pytest.param("schema 1\norder 3\nweights 1 1\nrow 0 y\n",
                 "line 4, column 7: expected an integer, got 'y'",
                 4, 7, id="row-integer"),
    pytest.param("schema 1\n   shape weighted\n",
                 "line 2, column 4: unknown directive 'shape'",
                 2, 4, id="unknown-directive"),
    pytest.param("# only a comment\n\n",
                 "line 1, column 1: empty manifest",
                 1, 1, id="empty-manifest"),
    pytest.param("schema 1\ncriterion segre\n",
                 "line 1, column 1: manifest declares no algebra",
                 1, 1, id="no-algebra"),
    pytest.param("schema 1\n" + "".join(
                     f"algebra {name}\norder 2\nweights 1\n" for name in "XYZ"),
                 "line 8, column 1: at most two algebras per manifest",
                 8, 1, id="third-algebra"),
    pytest.param("schema 1\nalgebra A\norder 2\nweights 1\n\n"
                 "algebra B\nweights 1 1\n",
                 "line 6, column 1: algebra 'B' is missing an order line",
                 6, 1, id="missing-order"),
    pytest.param("schema 1\n\norder 2\n",
                 "line 3, column 1: algebra 'A' is missing a weights line",
                 3, 1, id="missing-weights"),
    pytest.param("schema 1\nalgebra A\norder 2\nweights 1 1\nrow 0 1\n",
                 "line 2, column 1: algebra 'A' has 1 matrix rows for 2 weights",
                 2, 1, id="short-matrix"),
    # an implicit block opens at its first directive
    pytest.param("schema 1\norder 3\nweights 1 1\nrow 0 1\n",
                 "line 2, column 1: algebra 'A' has 1 matrix rows for 2 weights",
                 2, 1, id="short-matrix-implicit-block"),
    pytest.param("order 3\n",
                 "line 1, column 1: manifest must start with a schema line",
                 1, 1, id="schema-not-first-unindented"),
    pytest.param("schema 2\n",
                 "line 1, column 8: unsupported schema version 2",
                 1, 8, id="schema-version-one-blank"),
    pytest.param("schema 1\ncriterion parabolic\n",
                 "line 2, column 11: criterion must be one of segre, mixed, "
                 "weighted; got 'parabolic'",
                 2, 11, id="criterion-unknown-one-blank"),
    pytest.param("schema 1\norder 3\norder 5\nweights 1 1\nrow 0 0\nrow 0 0\n",
                 "line 3, column 1: duplicate order for algebra 'A'",
                 3, 1, id="order-duplicate-unindented"),
    pytest.param("schema 1\norder 3\nweights 1 -1\n",
                 "line 3, column 11: weights must be positive, got -1",
                 3, 11, id="weights-below-1-last"),
    pytest.param("schema 1\norder 3\nrow 0 1\n",
                 "line 3, column 1: matrix rows must come after the weights "
                 "line",
                 3, 1, id="row-before-weights-unindented"),
    pytest.param("schema 1\nshape weighted\n",
                 "line 2, column 1: unknown directive 'shape'",
                 2, 1, id="unknown-directive-unindented"),
]


@pytest.mark.parametrize("text, message, line, column", EXACT_ERRORS)
def test_each_error_is_pinned_exactly(text, message, line, column):
    err = _error(text)
    assert (str(err), err.line, err.column) == (message, line, column)

# tabs, the comment mark, and characters str.isspace accepts beyond ASCII
# (\x1c, \u3000, \xa0, \x85) or refuses (\u200b), among token characters
LINE_CHARS = st.sampled_from(["\t", " ", "#", "\x1c", "\u3000", "\xa0", "\x85",
                              "\u200b", "1", "-", "w", "\u00e9"])


@given(st.one_of(st.text(LINE_CHARS), st.text()))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_character_loop(line):
    assert _tokenize(line) == reference_tokenize(line)
