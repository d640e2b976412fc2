"""Every `raise InternalDefect` in src/qcy has a test that makes it fire.

The sites are read from the source, each named by its module and the
literal text of its message ("{}" where a value is formatted in).  A new
site without an entry in FORGERIES or UNREACHABLE fails here, and so does
an entry whose site is gone or whose test is missing.  The same holds for
every way cycert.verify_certificate can reject a certificate (REJECTIONS).
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcy"

# (module, message text) -> (test file, the test that forges one route and
# expects this error, or exit code 4 from cli.main).
FORGERIES = {
    ("cli.py", "{} certificate with verdict {} fails re-verification"):
        ("test_cli.py", "test_certify_failing_verification_exits_4"),
    ("cyclo.py", "divisor {} is not monic"):
        ("test_cyclo.py", "test_polynomial_division_defects_raise_also_under_optimization"),
    ("cyclo.py", "division by {} left the remainder {}"):
        ("test_cyclo.py", "test_polynomial_division_defects_raise_also_under_optimization"),
    ("cyclo.py", "image size mismatch: coset closure {}, Smith form {}"):
        ("test_cyclo.py", "test_image_size_with_a_forged_closure_is_a_defect"),
    ("hilbert.py", "no order-{} element found modulo {}"):
        ("test_hilbert.py", "test_missing_root_of_unity_is_an_internal_defect"),
    ("points.py", "exponent-matrix image has non-square size {}"):
        ("test_points.py", "test_pi_degree_of_a_non_square_image_is_a_defect"),
    ("qalgebra.py", "kernel basis of {} rows is not a {} x {} Hermite form"):
        ("test_qalgebra.py", "test_center_with_a_forged_lattice_is_a_defect"),
    ("qalgebra.py", "kernel basis row {} is not central"):
        ("test_qalgebra.py", "test_center_with_a_non_central_row_is_a_defect"),
    ("qalgebra.py", "kernel basis has index {}, but E has an image of {}"):
        ("test_qalgebra.py", "test_center_with_a_doubled_pivot_is_a_defect"),
    ("search.py", "weight walk emitted inadmissible {}"):
        ("test_search.py", "test_enumeration_with_a_forged_walk_is_a_defect"),
    ("search.py", "CY matrices of {} at order {} are not closed under "
                  "weight-preserving permutations"):
        ("test_search.py", "test_permutation_leaving_the_weights_is_a_defect"),
    ("search.py", "search class {} of {} at order {} violates {}"):
        ("test_search.py", "test_forged_exponent_matrix_is_a_defect"),
    ("search.py", "search class {} of {} at order {} certifies not_CY: "
                  "columns 0..{} are jointly unsolvable"):
        ("test_cli.py", "test_search_q_invariant_failure_exits_4"),
}

UNREACHABLE = {
    # CycField.inv: Phi_N is irreducible over Q and a nonzero residue has
    # degree below deg Phi_N, so Euclid always ends at a nonzero constant.
    ("cyclo.py", "nontrivial gcd against a cyclotomic polynomial"),
}

# verify_certificate's rejections -> the test in test_cycert.py that forges
# a certificate reaching it.  Each `return False` is keyed by the condition
# of its `if`, and each boolean return by its expression, as ast.unparse
# prints them; `return True` rejects nothing.
REJECTIONS = {
    "found != cert.violations or bool(found) != violated":
        "test_dropped_violation_fails_verification",
    "cert.expected_dimension != expected":
        "test_forged_dimension_fails_verification",
    "not cy and cert.witness is not None":
        "test_violated_certificate_carrying_a_witness_fails_verification",
    # the pairwise refusal route
    "any((_pairwise_unsolvable(pairs) for pairs in systems))":
        "test_forged_not_cy_fails_verification",
    # the witness check
    "isinstance(witness, tuple) and len(witness) == len(systems) and "
    "all((isinstance(c, RootScalar) and all((c ** a == p for a, p in pairs)) "
    "for c, pairs in zip(witness, systems)))":
        "test_forged_witness_fails_verification",
}


def _message_text(node) -> str:
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    raise AssertionError(f"message at line {node.lineno} is not a string literal")


def defect_sites() -> list:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id == "InternalDefect"):
                sites.append((path.name, _message_text(exc.args[0])))
    return sites


def rejection_sites() -> list:
    tree = ast.parse((SRC / "cycert.py").read_text())
    verify = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "verify_certificate")
    sites = []
    for node in ast.walk(verify):
        if isinstance(node, ast.If):
            if any(isinstance(s, ast.Return) and isinstance(s.value, ast.Constant)
                   and s.value.value is False for s in node.body):
                sites.append(ast.unparse(node.test))
        elif isinstance(node, ast.Return) and not isinstance(node.value, ast.Constant):
            sites.append(ast.unparse(node.value))
    return sites


def _functions(name) -> dict:
    source = (TESTS / name).read_text()
    return {node.name: ast.get_source_segment(source, node)
            for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def test_every_internal_defect_site_is_mapped():
    found = defect_sites()
    sites = set(found)
    assert len(sites) == len(found), "two sites share a message"
    assert not FORGERIES.keys() & UNREACHABLE
    assert sites - FORGERIES.keys() - UNREACHABLE == set(), "sites without a forging test"
    assert (FORGERIES.keys() | UNREACHABLE) - sites == set(), "entries without a site"


def test_each_forging_test_exists_and_expects_the_defect():
    functions = {(name, test): source
                 for name in {f for f, _ in FORGERIES.values()}
                 for test, source in _functions(name).items()}
    for site, key in FORGERIES.items():
        assert key in functions, (site, key)
        assert "InternalDefect" in functions[key] or "code == 4" in functions[key], key


def test_every_verification_rejection_is_mapped():
    found = rejection_sites()
    assert len(set(found)) == len(found), "two rejections share a condition"
    assert set(found) - REJECTIONS.keys() == set(), "rejections without a forging test"
    assert REJECTIONS.keys() - set(found) == set(), "entries without a rejection"
    functions = _functions("test_cycert.py")
    for site, test in REJECTIONS.items():
        assert test in functions, (site, test)
        assert "assert not verify_certificate(" in functions[test], test
