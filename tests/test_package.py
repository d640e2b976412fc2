"""The package's public surface, and two rules on its source files."""

import ast
import pathlib

import qcy

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qcy"


def test_every_exported_name_resolves():
    missing = [name for name in qcy.__all__ if not hasattr(qcy, name)]
    assert missing == []
    assert len(set(qcy.__all__)) == len(qcy.__all__)


def test_no_assert_statements_in_the_package():
    """Every check in the package raises a named error, so that it survives
    python -O; this keeps any assert from creeping back in."""
    bad = [f"{p}:{node.lineno}" for p in sorted(SRC.rglob("*.py"))
           for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert bad == []


def test_no_module_level_numpy_import_outside_the_array_modules():
    """Only _kernels, hilbert and search import numpy at module level; the
    scalar modules (cyclo, qalgebra, points, cycert, cli, ...) run on Python
    ints.  This checks module-level import statements only: cyclo still
    loads numpy through _kernels on every request, until the lazy imports of
    ROADMAP.md item 5 land."""
    scalar = [p for p in sorted(SRC.glob("*.py"))
              if p.stem not in ("_kernels", "hilbert", "search")]
    bad = [f"{p}:{node.lineno}" for p in scalar for node in ast.parse(p.read_text()).body
           if isinstance(node, ast.Import)
           and any(a.name.split(".")[0] == "numpy" for a in node.names)
           or isinstance(node, ast.ImportFrom)
           and (node.module or "").split(".")[0] == "numpy"]
    assert bad == []
