"""End-to-end acceptance: the frozen desk-scale results, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All results are exact integers or exact roots of unity; tolerance
zero throughout.  Three criteria carry wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from qcy.cyclo import (
    RootScalar,
    hermite_normal_form,
    image_size,
    lattice_contains,
)
from qcy.cycert import Verdict, certify_segre, certify_weighted, verify_certificate
from qcy.hilbert import brute_force_dims, quotient_by_regular, series_qpoly
from qcy.points import (
    INFINITE,
    admissible_supports,
    census_weighted_surface,
    pi_degree,
    point_scheme_dim_product,
    two_var_fermat_count,
)
from qcy.qalgebra import (
    AlgebraSpec,
    SkewPoly,
    center_lattice,
    fermat,
    is_central,
)
from qcy.search import enumerate_cy_weights, search_q_params, sweep_census

import test_cyclo
import test_points
import test_qalgebra
from helpers import SPEC3, SPEC4, antisymmetric, monomials_of_degree_at_most


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {label}")
        raise
    print(f"criterion {number}: PASS  {label}")


def test_criterion_1_census_of_the_running_example():
    with criterion(1, "census 24 = 12 + 6 + 6, exact, < 1 s"):
        t0 = time.perf_counter()
        report = census_weighted_surface(SPEC4)
        elapsed = time.perf_counter() - t0
        assert report.total == 24
        assert [c.count for c in report.charts] == [12, 6, 6]
        assert [(i.support, i.count) for i in report.charts[0].items] == [
            ((1,), 6), ((2,), 3), ((3,), 3)]
        assert [(i.support, i.count) for i in report.charts[1].items] == [
            ((2,), 3), ((3,), 3)]
        factors = two_var_fermat_count(2, 2, 6)
        assert (factors.factors, factors.shifts) == (3, 2)
        assert report.charts[2].count == factors.count == 6
        assert elapsed < 1.0, f"census took {elapsed:.3f} s"


def test_criterion_2_every_finite_census_is_24():
    with criterion(2, "sweep of all (1,1,a,b) CY specs: finite totals all 24, < 1 min"):
        t0 = time.perf_counter()
        systems = [ws for ws in enumerate_cy_weights(4, 25).systems
                   if ws.weights[:2] == (1, 1)]
        assert len(systems) == 5
        rows = sweep_census(systems)
        elapsed = time.perf_counter() - t0
        assert rows, "sweep found no CY specs"
        finite = [r for r in rows if r.census.total is not INFINITE]
        assert finite, "sweep found no finite censuses"
        for row in finite:
            assert row.census.total == 24, (row.weights, row.spec.exponents)
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_3_weight_enumeration_against_the_reference_list():
    with criterion(3, "ten divisible reference systems found, two flagged"):
        result = enumerate_cy_weights(4, 25)
        found = {r.weights for r in result.reference if r.found}
        assert found == {
            (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4),
            (1, 1, 4, 6), (1, 2, 3, 6), (2, 3, 3, 4), (1, 2, 6, 9),
            (2, 3, 10, 15), (1, 6, 14, 21)}
        flagged = {r.weights for r in result.reference if r.discrepancy}
        assert flagged == {(1, 1, 2, 5), (1, 3, 3, 4)}


def test_criterion_4_certification_verdicts():
    with criterion(4, "witness zeta_3; sign-pair CY with constants 1; "
                      "(zeta, zeta^2, ...) columns not CY"):
        cert = certify_weighted(SPEC4)
        assert cert.verdict is Verdict.CY
        assert cert.witness == (RootScalar(3, 1),)
        assert verify_certificate(cert)

        a = AlgebraSpec.unweighted(2, (
            (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)))
        b = AlgebraSpec.unweighted(2, ((0, 0, 0),) * 3)
        pair = certify_segre(a, b)
        assert pair.verdict is Verdict.CY
        assert all(w.is_one() for w in pair.witness)
        assert verify_certificate(pair)

        not_cy = AlgebraSpec(
            weights=(1, 1, 2, 2), order=3,
            exponents=((0, 2, 0, 0), (1, 0, 0, 0),
                       (0, 0, 0, 0), (0, 0, 0, 0)))
        prods = [RootScalar(3, sum(r[j] for r in not_cy.exponents))
                 for j in range(4)]
        assert [p.pair() for p in prods] == [(3, 1), (3, 2), (1, 0), (1, 0)]
        refused = certify_weighted(not_cy)
        assert refused.verdict is Verdict.NOT_CY
        assert verify_certificate(refused)


def test_criterion_5_pi_degree_both_routes():
    with criterion(5, "chart PI degree 3, enumeration (27 vectors) = "
                      "elementary divisors; all-ones gives 1"):
        mat = [list(r) for r in SPEC3.exponents]
        assert image_size(mat, 3, method="enumerate") == 9
        assert image_size(mat, 3, method="snf") == 9
        assert pi_degree(SPEC3) == 3
        ones = AlgebraSpec.unweighted(3, ((0, 0, 0),) * 3)
        assert pi_degree(ones) == 1


def test_criterion_6_center_lattice_of_the_sign_matrix():
    with criterion(6, "center of the 3-variable sign matrix: "
                      "(2,0,0), (0,2,0), (1,1,1); mixed generator flagged"):
        spec = AlgebraSpec.unweighted(2, antisymmetric(2, (1, 1, 1)))
        lattice = center_lattice(spec)
        claimed = hermite_normal_form(
            [[2, 0, 0], [0, 2, 0], [1, 1, 1]])
        for vec in claimed:
            assert lattice.contains(vec)
        for row in lattice.basis:
            assert lattice_contains(claimed, list(row))
        mismatches = 0
        for exps in monomials_of_degree_at_most((1, 1, 1), 6):
            direct = is_central(SkewPoly.monomial(2, exps), spec)
            if direct != lattice.contains(exps):
                mismatches += 1
        assert mismatches == 0
        # the pure-power presentation is incomplete: a mixed generator
        # exists and is reported as a flagged fact, not resolved here
        assert lattice.has_mixed and lattice.mixed_generator == (1, 1, 1)


def test_criterion_7_hilbert_oracle_equivalence():
    with criterion(7, "quotient series = brute-force dims to degree 12, < 10 s"):
        t0 = time.perf_counter()
        dims = brute_force_dims(SPEC4, fermat(SPEC4), max_degree=12)
        series = quotient_by_regular(series_qpoly(SPEC4.weights), 6)
        assert dims == list(series.prefix(12))

        quintic = AlgebraSpec.unweighted(
            1, tuple(tuple(0 for _ in range(5)) for _ in range(5)))
        dims5 = brute_force_dims(quintic, fermat(quintic), max_degree=12)
        series5 = quotient_by_regular(series_qpoly((1,) * 5), 5)
        assert dims5 == list(series5.prefix(12))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_8_point_scheme_dimensions():
    with criterion(8, "general supports = 1-skeleton; product dims 1 and 3"):
        rng = random.Random(20240817)
        while True:
            entries = [rng.randrange(1, 5) for _ in range(6)]
            spec = AlgebraSpec.unweighted(5, antisymmetric(5, entries))
            e = spec.exponents
            cocycles = [
                (e[i][j] + e[j][k] + e[k][i]) % 5
                for i in range(4) for j in range(i + 1, 4)
                for k in range(j + 1, 4)]
            if all(cocycles):
                break
        supports = admissible_supports(spec)
        skeleton = [(i,) for i in range(4)] + [
            (i, j) for i in range(4) for j in range(i + 1, 4)]
        assert sorted(supports) == sorted(skeleton)

        a = AlgebraSpec.unweighted(2, (
            (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)))
        b = AlgebraSpec.unweighted(2, ((0, 0, 0),) * 3)
        assert point_scheme_dim_product(a, b) == 1
        commutative = AlgebraSpec.unweighted(2, ((0,) * 4,) * 4)
        assert point_scheme_dim_product(commutative, b) == 3


def test_criterion_9_property_suites():
    with criterion(9, "five property suites, >= 1000 cases each, zero failures"):
        test_qalgebra.test_reorder_scalar_is_a_bicharacter()
        test_qalgebra.test_multiply_is_associative_and_distributive()
        test_qalgebra.test_fermat_is_central_under_hypotheses()
        test_cyclo.test_solve_root_system_roundtrip_and_refutation()
        test_points.test_census_identity_for_surface_weights()
