"""Exception types shared across the package."""


class OrderMismatchError(ValueError):
    """Cyclotomic integers of different orders combined, or a root of unity
    written over an order that its lowest order does not divide."""


class HypothesisViolation(ValueError):
    """Input violates the hypotheses a computation requires."""


class InternalDefect(RuntimeError):
    """A cross-check that should be unconditionally true failed.

    Raised when two independent routes to the same quantity disagree, or
    when a theory-guaranteed shape (e.g. a perfect-square image size) does
    not hold.  Always indicates a bug, never bad user input.
    """


class ManifestError(ValueError):
    """Parse failure in an algebra manifest, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
