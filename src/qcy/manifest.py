"""Plain-text manifests describing one or two algebras.

Line oriented, '#' comments, whitespace separated:

    schema 1
    criterion weighted          # optional: segre | mixed | weighted
    algebra A                   # optional block header; implicit otherwise
    order 3
    weights 1 1 2 2
    row 0 0 0 2
    row 0 0 2 0
    row 0 1 0 0
    row 1 0 0 0

A second `algebra` line opens a second block (two-sided certifications).
Matrix rows are integer exponents mod the block's order; a block may omit
them entirely (parameter searches and Hilbert series need only weights
and order).  Parse errors carry 1-based line and column of the offending
token.
"""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import dataclass

from .cycert import CRITERIA
from .errors import ManifestError
from .qalgebra import AlgebraSpec


@dataclass(frozen=True)
class ManifestAlgebra:
    name: str
    order: int
    weights: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...] | None

    def spec(self) -> AlgebraSpec:
        if self.rows is None:
            raise ValueError(
                f"algebra {self.name!r} has no matrix rows in the manifest")
        return AlgebraSpec(self.weights, self.order, self.rows)


@dataclass(frozen=True)
class Manifest:
    schema: int
    criterion: str | None
    algebras: tuple[ManifestAlgebra, ...]
    digest: str


def _tokenize(line: str):
    """(token, 1-based column) pairs; '#' starts a comment.  Tokens are
    split at the characters str.isspace accepts, which are those \\s matches."""
    return [(m.group(), m.start() + 1)
            for m in re.finditer(r"\S+", line.partition("#")[0])]


def _quoted(token: str) -> str:
    """The token quoted, cut to a prefix when long."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _int_token(token: str, lineno: int, col: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        # int() takes every token of decimal digits but one longer than the
        # interpreter's limit on int conversion (4,300 digits by default)
        if re.fullmatch(r"[+-]?\d+", token):
            raise ManifestError(
                f"integer of {len(token.lstrip('+-'))} digits is past the "
                f"{sys.get_int_max_str_digits()}-digit limit on int conversion, "
                f"got {_quoted(token)}", lineno, col)
        raise ManifestError(f"expected an integer, got {_quoted(token)}", lineno, col)


def loads(text: str) -> Manifest:
    digest = hashlib.sha256(text.encode()).hexdigest()
    schema = criterion = None
    blocks: list[dict] = []

    def open_block(name: str):
        blocks.append(dict(name=name, line=lineno, order=None, weights=None,
                           rows=[]))

    def fail(message: str, col: int):
        raise ManifestError(message, lineno, col)

    def ints(positive: bool = False) -> list[int]:
        """The line's values, in order; one below 1 fails if `positive`."""
        values = []
        for token, col in rest:
            value = _int_token(token, lineno, col)
            if positive and value < 1:
                fail(f"{word} must be positive, got {value}", col)
            values.append(value)
        return values

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line)
        if not tokens:
            continue
        (word, col0), rest = tokens[0], tokens[1:]
        if schema is None and word != "schema":
            fail("manifest must start with a schema line", col0)
        if word in ("order", "weights", "row") and not blocks:
            open_block("A")
        if word == "schema":
            if schema is not None:
                fail("duplicate schema line", col0)
            if len(rest) != 1:
                fail("schema takes one version number", col0)
            [schema] = ints()
            if schema != 1:
                fail(f"unsupported schema version {schema}", rest[0][1])
        elif word == "criterion":
            if len(rest) != 1:
                fail("criterion takes one word", col0)
            value, col = rest[0]
            if value not in CRITERIA:
                fail(f"criterion must be one of {', '.join(CRITERIA)}; "
                     f"got {value!r}", col)
            if criterion is not None:
                fail("duplicate criterion line", col0)
            criterion = value
        elif word == "algebra":
            if len(rest) != 1:
                fail("algebra takes one name", col0)
            open_block(rest[0][0])
        elif word in ("order", "weights"):
            b = blocks[-1]
            if b[word] is not None:
                fail(f"duplicate {word} for algebra {b['name']!r}", col0)
            if word == "order" and len(rest) != 1:
                fail("order takes one integer", col0)
            if not rest:
                fail("weights line is empty", col0)
            values = ints(positive=True)
            b[word] = values[0] if word == "order" else tuple(values)
        elif word == "row":
            b = blocks[-1]
            if b["weights"] is None:
                fail("matrix rows must come after the weights line", col0)
            width = len(b["weights"])
            if len(rest) != width:
                fail(f"row has {len(rest)} entries, expected {width}", col0)
            if len(b["rows"]) == width:
                fail(f"too many matrix rows for algebra {b['name']!r}", col0)
            b["rows"].append(tuple(ints()))
        else:
            fail(f"unknown directive {word!r}", col0)

    if schema is None:
        raise ManifestError("empty manifest", 1, 1)
    if not blocks:
        raise ManifestError("manifest declares no algebra", 1, 1)
    if len(blocks) > 2:
        raise ManifestError(
            "at most two algebras per manifest", blocks[2]["line"], 1)
    for b in blocks:  # fail() reports at the block's opening line
        lineno, name, rows = b["line"], b["name"], b["rows"]
        if b["order"] is None:
            fail(f"algebra {name!r} is missing an order line", 1)
        if b["weights"] is None:
            fail(f"algebra {name!r} is missing a weights line", 1)
        if rows and len(rows) != len(b["weights"]):
            fail(f"algebra {name!r} has {len(rows)} matrix rows "
                 f"for {len(b['weights'])} weights", 1)
    algebras = tuple(ManifestAlgebra(b["name"], b["order"], b["weights"],
                                     tuple(b["rows"]) or None) for b in blocks)
    return Manifest(schema, criterion, algebras, digest)


def load(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
