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


def test_missing_schema_line():
    err = _error("order 3\n")
    assert err.line == 1
    assert "schema" in str(err)


def test_unsupported_schema_version():
    err = _error("schema 2\n")
    assert (err.line, err.column) == (1, 8)


def test_bad_integer_reports_position():
    err = _error("schema 1\norder 3\nweights 1 1 x\n")
    assert (err.line, err.column) == (3, 13)
    assert "expected an integer" in str(err)


def test_row_before_weights():
    err = _error("schema 1\norder 3\nrow 0 1\n")
    assert err.line == 3
    assert "weights" in str(err)


def test_row_width_mismatch():
    err = _error("schema 1\norder 3\nweights 1 1\nrow 0 1 2\n")
    assert err.line == 4


def test_row_count_mismatch():
    err = _error("schema 1\norder 3\nweights 1 1\nrow 0 1\n")
    assert "row" in str(err)


def test_duplicate_directive():
    err = _error("schema 1\norder 3\norder 5\nweights 1 1\nrow 0 0\nrow 0 0\n")
    assert err.line == 3


def test_unknown_directive():
    err = _error("schema 1\nshape weighted\n")
    assert err.line == 2


def test_bad_criterion_value():
    err = _error("schema 1\ncriterion parabolic\n")
    assert err.line == 2


def test_too_many_algebras():
    text = "schema 1\n" + "".join(
        f"algebra {name}\norder 2\nweights 1\n" for name in "XYZ")
    err = _error(text)
    assert "two" in str(err) or "algebra" in str(err)


def test_comments_and_blank_lines_ignored():
    text = "# lead\n\nschema 1  # trailing\n\norder 2\nweights 1 1\nrow 0 1\nrow 1 0\n"
    man = loads(text)
    assert man.algebras[0].order == 2


def test_negative_entries_are_rejected():
    err = _error("schema 1\norder 3\nweights 1 -1\n")
    assert err.line == 3


# tabs, the comment mark, and characters str.isspace accepts beyond ASCII
# (\x1c, \u3000, \xa0, \x85) or refuses (\u200b), among token characters
LINE_CHARS = st.sampled_from(["\t", " ", "#", "\x1c", "\u3000", "\xa0", "\x85",
                              "\u200b", "1", "-", "w", "\u00e9"])


@given(st.one_of(st.text(LINE_CHARS), st.text()))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_character_loop(line):
    assert _tokenize(line) == reference_tokenize(line)
