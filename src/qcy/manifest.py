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


def _int_token(token: str, lineno: int, col: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ManifestError(f"expected an integer, got {token!r}", lineno, col)


class _Block:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.order = None
        self.weights = None
        self.rows = []

    def finish(self) -> ManifestAlgebra:
        if self.order is None:
            raise ManifestError(
                f"algebra {self.name!r} is missing an order line", self.lineno, 1)
        if self.weights is None:
            raise ManifestError(
                f"algebra {self.name!r} is missing a weights line", self.lineno, 1)
        if self.rows and len(self.rows) != len(self.weights):
            raise ManifestError(
                f"algebra {self.name!r} has {len(self.rows)} matrix rows "
                f"for {len(self.weights)} weights", self.lineno, 1)
        return ManifestAlgebra(
            name=self.name,
            order=self.order,
            weights=self.weights,
            rows=tuple(self.rows) if self.rows else None,
        )


def loads(text: str) -> Manifest:
    digest = hashlib.sha256(text.encode()).hexdigest()
    schema = None
    criterion = None
    blocks: list[_Block] = []

    def block(lineno) -> _Block:
        if not blocks:
            blocks.append(_Block("A", lineno))
        return blocks[-1]

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line)
        if not tokens:
            continue
        (word, col0), rest = tokens[0], tokens[1:]
        if schema is None:
            if word != "schema":
                raise ManifestError(
                    "manifest must start with a schema line", lineno, col0)
            if len(rest) != 1:
                raise ManifestError("schema takes one version number", lineno, col0)
            version = _int_token(rest[0][0], lineno, rest[0][1])
            if version != 1:
                raise ManifestError(
                    f"unsupported schema version {version}", lineno, rest[0][1])
            schema = version
            continue
        if word == "schema":
            raise ManifestError("duplicate schema line", lineno, col0)
        if word == "criterion":
            if len(rest) != 1:
                raise ManifestError("criterion takes one word", lineno, col0)
            value, col = rest[0]
            if value not in CRITERIA:
                raise ManifestError(
                    f"criterion must be one of {', '.join(CRITERIA)}; "
                    f"got {value!r}", lineno, col)
            if criterion is not None:
                raise ManifestError("duplicate criterion line", lineno, col0)
            criterion = value
            continue
        if word == "algebra":
            if len(rest) != 1:
                raise ManifestError("algebra takes one name", lineno, col0)
            blocks.append(_Block(rest[0][0], lineno))
            continue
        if word == "order":
            b = block(lineno)
            if b.order is not None:
                raise ManifestError(
                    f"duplicate order for algebra {b.name!r}", lineno, col0)
            if len(rest) != 1:
                raise ManifestError("order takes one integer", lineno, col0)
            value = _int_token(rest[0][0], lineno, rest[0][1])
            if value < 1:
                raise ManifestError(
                    f"order must be positive, got {value}", lineno, rest[0][1])
            b.order = value
            continue
        if word == "weights":
            b = block(lineno)
            if b.weights is not None:
                raise ManifestError(
                    f"duplicate weights for algebra {b.name!r}", lineno, col0)
            if not rest:
                raise ManifestError("weights line is empty", lineno, col0)
            values = []
            for token, col in rest:
                a = _int_token(token, lineno, col)
                if a < 1:
                    raise ManifestError(
                        f"weights must be positive, got {a}", lineno, col)
                values.append(a)
            b.weights = tuple(values)
            continue
        if word == "row":
            b = block(lineno)
            if b.weights is None:
                raise ManifestError(
                    "matrix rows must come after the weights line", lineno, col0)
            if len(rest) != len(b.weights):
                raise ManifestError(
                    f"row has {len(rest)} entries, expected {len(b.weights)}",
                    lineno, col0)
            if len(b.rows) == len(b.weights):
                raise ManifestError(
                    f"too many matrix rows for algebra {b.name!r}", lineno, col0)
            b.rows.append(tuple(
                _int_token(token, lineno, col) for token, col in rest))
            continue
        raise ManifestError(f"unknown directive {word!r}", lineno, col0)

    if schema is None:
        raise ManifestError("empty manifest", 1, 1)
    if not blocks:
        raise ManifestError("manifest declares no algebra", 1, 1)
    if len(blocks) > 2:
        raise ManifestError(
            "at most two algebras per manifest", blocks[2].lineno, 1)
    return Manifest(
        schema=schema,
        criterion=criterion,
        algebras=tuple(b.finish() for b in blocks),
        digest=digest,
    )


def load(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
