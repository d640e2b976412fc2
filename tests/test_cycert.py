"""Three-valued Calabi-Yau certification with verifiable evidence."""

import dataclasses
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.cyclo import RootScalar, solve_root_system
from qcy.cycert import (
    Verdict,
    _column_pairs,
    _pairwise_unsolvable,
    certify_mixed,
    certify_segre,
    certify_weighted,
    verify_certificate,
)
from qcy.qalgebra import AlgebraSpec

from helpers import E4, SPEC4, antisymmetric, within

# Reference Segre data: the 4x4 sign matrix with -1 on the lower-right
# triangle pairs, and a fully commutative 3-variable partner.
SEGRE_A = AlgebraSpec.unweighted(2, (
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)))
SEGRE_B = AlgebraSpec.unweighted(2, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def column_products(spec):
    return [spec.order and RootScalar(
        spec.order, sum(row[j] for row in spec.exponents))
        for j in range(spec.nvars)]


# -- weighted ---------------------------------------------------------------


def test_weighted_running_example_is_cy():
    cert = certify_weighted(SPEC4)
    assert cert.verdict is Verdict.CY
    assert cert.witness == (RootScalar(3, 1),)
    assert cert.expected_dimension == 2
    assert verify_certificate(cert)


def test_weighted_rejects_contradictory_column_products():
    # column products (zeta_3, zeta_3^2, 1, 1): both weight-one columns
    # demand a different value of c, so no root exists.
    exps = ((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    spec = AlgebraSpec(weights=(1, 1, 2, 2), order=3, exponents=exps)
    prods = column_products(spec)
    assert [p.pair() for p in prods] == [(3, 1), (3, 2), (1, 0), (1, 0)]
    cert = certify_weighted(spec)
    assert cert.verdict is Verdict.NOT_CY
    assert cert.witness is None
    assert verify_certificate(cert)


def test_not_cy_verification_at_a_large_order_is_fast():
    # q_01 = i at order N = 4e6: columns 0 and 1 need c = -i and c = i
    order = 4_000_000
    spec = AlgebraSpec(weights=(1, 1, 2), order=order,
                       exponents=antisymmetric(order, (order // 4, 0, 0)))
    cert = certify_weighted(spec)
    assert cert.verdict is Verdict.NOT_CY
    assert within(2, lambda: verify_certificate(cert))


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(0, 5)),
                min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_pairwise_refutation_matches_brute_force(columns):
    """No c with c^{a_j} = zeta_{N_j}^{e_j} iff no x mod M = lcm(N_j) lcm(a_j) works."""
    pairs = [(a, RootScalar(n, e)) for a, n, e in columns]
    m = lcm(*[n for _, n, _ in columns]) * lcm(*[a for a, _, _ in columns])
    targets = [(a, p.exponent_over(m)) for a, p in pairs]
    unsolvable = not any(all((a * x - t) % m == 0 for a, t in targets)
                         for x in range(m))
    assert _pairwise_unsolvable(pairs) == unsolvable


def test_weighted_flags_hypothesis_failures():
    spec = AlgebraSpec(weights=(1, 1, 3), order=2,
                       exponents=antisymmetric(2, (1, 0, 0)))
    cert = certify_weighted(spec)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert any(v.kind == "weight-divisibility" for v in cert.violations)
    assert verify_certificate(cert)


def test_weighted_commutative_is_cy_with_trivial_witness():
    spec = AlgebraSpec(weights=(1, 2, 3), order=5,
                       exponents=antisymmetric(5, (0, 0, 0)))
    cert = certify_weighted(spec)
    assert cert.verdict is Verdict.CY
    assert cert.witness[0].is_one()
    assert cert.expected_dimension == 1


# -- Segre ------------------------------------------------------------------


def test_segre_sign_matrix_pair_is_cy():
    cert = certify_segre(SEGRE_A, SEGRE_B)
    assert cert.verdict is Verdict.CY
    assert cert.witness == (RootScalar(1, 0), RootScalar(1, 0))
    assert all(w.is_one() for w in cert.witness)
    assert cert.expected_dimension == 3
    assert verify_certificate(cert)


def test_segre_rejects_nonconstant_column_products():
    # q_01 = -1 only: column products (-1, -1, 1, 1) on side A
    a = AlgebraSpec.unweighted(2, antisymmetric(2, (1, 0, 0, 0, 0, 0)))
    cert = certify_segre(a, SEGRE_B)
    assert cert.verdict is Verdict.NOT_CY
    assert "column 2" in cert.detail
    assert verify_certificate(cert)


def test_segre_requires_unit_weights():
    weighted = AlgebraSpec(weights=(1, 2), order=2,
                           exponents=antisymmetric(2, (0,)))
    cert = certify_segre(weighted, SEGRE_B)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert verify_certificate(cert)


# -- mixed ------------------------------------------------------------------

COMM4 = AlgebraSpec.unweighted(3, tuple(tuple(0 for _ in range(4))
                                        for _ in range(4)))
QUANT3 = AlgebraSpec.unweighted(3, ((0, 1, 2), (2, 0, 1), (1, 2, 0)))


def test_mixed_one_more_commutative_variable():
    cert = certify_mixed(COMM4, QUANT3)
    assert cert.verdict is Verdict.CY
    assert cert.witness == (RootScalar(1, 0),)
    assert cert.expected_dimension == 3
    assert verify_certificate(cert)


def test_mixed_equal_sizes():
    comm3 = AlgebraSpec.unweighted(3, tuple(tuple(0 for _ in range(3))
                                            for _ in range(3)))
    cert = certify_mixed(comm3, QUANT3)
    assert cert.verdict is Verdict.CY
    assert cert.expected_dimension == 2


def test_mixed_rejects_noncommutative_first_side():
    cert = certify_mixed(QUANT3, QUANT3)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert any(v.kind == "commutative-side" for v in cert.violations)
    assert verify_certificate(cert)


def test_mixed_rejects_bad_shapes():
    comm5 = AlgebraSpec.unweighted(3, tuple(tuple(0 for _ in range(5))
                                            for _ in range(5)))
    cert = certify_mixed(comm5, QUANT3)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert any(v.kind == "shape" for v in cert.violations)
    assert verify_certificate(cert)


def test_mixed_nonconstant_quantum_columns():
    # q_01 = zeta_3 only: column products (zeta_3, zeta_3^2, 1)
    b = AlgebraSpec.unweighted(3, antisymmetric(3, (1, 0, 0)))
    cert = certify_mixed(COMM4, b)
    assert cert.verdict is Verdict.NOT_CY
    assert verify_certificate(cert)


# -- generator counts -------------------------------------------------------

ONE_GEN = AlgebraSpec.unweighted(3, ((0,),))
COMM2 = AlgebraSpec.unweighted(3, ((0, 0), (0, 0)))


def generator_count_wheres(cert):
    return [v.where for v in cert.violations if v.kind == "generator-count"]


def test_weighted_refuses_one_generator():
    # k[x]/(x^h) has empty Proj: no Calabi-Yau scheme of dimension -1
    cert = certify_weighted(ONE_GEN)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert generator_count_wheres(cert) == [(1,)]
    assert cert.expected_dimension is None
    assert verify_certificate(cert)


def test_weighted_two_generators_certify():
    cert = certify_weighted(AlgebraSpec(weights=(1, 1), order=1,
                                        exponents=((0, 0), (0, 0))))
    assert cert.verdict is Verdict.CY
    assert cert.expected_dimension == 0


def test_segre_refuses_one_generator_sides():
    cert = certify_segre(ONE_GEN, ONE_GEN)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert generator_count_wheres(cert) == [(1,), (1,)]
    assert [v.detail[:6] for v in cert.violations] == ["side A", "side B"]
    assert verify_certificate(cert)


def test_mixed_refuses_one_generator_quantum_side():
    cert = certify_mixed(COMM2, ONE_GEN)
    assert cert.verdict is Verdict.HYPOTHESES_VIOLATED
    assert generator_count_wheres(cert) == [(1,)]
    assert verify_certificate(cert)


# -- forged certificates ----------------------------------------------------

# criterion -> (certify, specs certifying CY, specs violating >= 2 hypotheses)
FORGERY_CASES = {
    "weighted": (certify_weighted, (SPEC4,), (AlgebraSpec(
        weights=(1, 1, 3), order=2, exponents=((1, 0, 0), (0, 0, 0), (0, 0, 0))),)),
    "segre": (certify_segre, (SEGRE_A, SEGRE_B), (AlgebraSpec(
        weights=(1, 2), order=2, exponents=((0, 0), (0, 0))), SEGRE_B)),
    "mixed": (certify_mixed, (COMM4, QUANT3), (QUANT3, QUANT3)),
}


@pytest.fixture(params=sorted(FORGERY_CASES))
def certified(request):
    certify, clean, violating = FORGERY_CASES[request.param]
    cy, bad = certify(*clean), certify(*violating)
    assert cy.verdict is Verdict.CY and verify_certificate(cy)
    assert bad.verdict is Verdict.HYPOTHESES_VIOLATED and verify_certificate(bad)
    assert len(bad.violations) >= 2
    return cy, bad


def test_forged_witness_fails_verification(certified):
    cy, _ = certified
    wrong = tuple(w * RootScalar(5, 1) for w in cy.witness)
    assert not verify_certificate(dataclasses.replace(cy, witness=wrong))


# A CY witness is a tuple of one root per decided side, nothing else.
MISSHAPEN_WITNESSES = {
    "empty": lambda w: (),
    "one-short": lambda w: w[:-1],
    "one-extra": lambda w: w + w[:1],
    "list": list,
    "none": lambda w: None,
    "none-entries": lambda w: (None,) * len(w),
}


@pytest.mark.parametrize("shape", sorted(MISSHAPEN_WITNESSES))
def test_misshapen_witness_fails_verification(certified, shape):
    cy, _ = certified
    forged = MISSHAPEN_WITNESSES[shape](cy.witness)
    assert not verify_certificate(dataclasses.replace(cy, witness=forged))


def test_violated_certificate_carrying_a_witness_fails_verification(certified):
    cy, bad = certified
    assert not verify_certificate(dataclasses.replace(bad, witness=cy.witness))


def test_forged_not_cy_fails_verification(certified):
    cy, _ = certified
    forged = dataclasses.replace(cy, verdict=Verdict.NOT_CY, witness=None,
                                 expected_dimension=None)
    assert not verify_certificate(forged)


def test_forged_violation_on_clean_specs_fails_verification(certified):
    cy, bad = certified
    assert not verify_certificate(dataclasses.replace(bad, specs=cy.specs))


def test_dropped_violation_fails_verification(certified):
    _, bad = certified
    assert not verify_certificate(
        dataclasses.replace(bad, violations=bad.violations[1:]))


def test_forged_dimension_fails_verification(certified):
    cy, bad = certified
    for dim in (cy.expected_dimension + 5, cy.expected_dimension - 1, None):
        assert not verify_certificate(dataclasses.replace(cy, expected_dimension=dim))
    assert not verify_certificate(
        dataclasses.replace(bad, expected_dimension=cy.expected_dimension))


# criterion -> (certify, specs certifying not_CY)
NOT_CY_CASES = {
    "weighted": (certify_weighted, (AlgebraSpec(
        weights=(1, 1, 2, 2), order=3,
        exponents=((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))),)),
    "segre": (certify_segre, (
        AlgebraSpec.unweighted(2, antisymmetric(2, (1, 0, 0, 0, 0, 0))), SEGRE_B)),
    "mixed": (certify_mixed, (COMM4, AlgebraSpec.unweighted(3, antisymmetric(3, (1, 0, 0))))),
}


@pytest.mark.parametrize("kind", sorted(NOT_CY_CASES))
def test_not_cy_certificate_carrying_a_dimension_fails_verification(kind):
    certify, specs = NOT_CY_CASES[kind]
    cert = certify(*specs)
    assert cert.verdict is Verdict.NOT_CY and verify_certificate(cert)
    assert not verify_certificate(dataclasses.replace(cert, expected_dimension=2))


@pytest.mark.parametrize("kind", sorted(NOT_CY_CASES))
def test_not_cy_certificate_carrying_a_witness_fails_verification(kind):
    certify, specs = NOT_CY_CASES[kind]
    cert = certify(*specs)
    for witness in ((RootScalar(1, 0),), (RootScalar(1, 0),) * len(specs)):
        assert not verify_certificate(dataclasses.replace(cert, witness=witness))


@pytest.mark.parametrize("weights", [(1, 1), (1, 2, 3), (1, 1, 2, 2), (1, 6, 14, 21),
                                     (1, 1, 1, 1, 2), (1,) * 7])
def test_weighted_dimension_is_the_hilbert_pole_order_minus_one(weights):
    spec = AlgebraSpec(weights=weights, order=1,
                       exponents=tuple((0,) * len(weights) for _ in weights))
    cert = certify_weighted(spec)
    assert cert.expected_dimension == len(weights) - 2
    assert verify_certificate(cert)


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 7)])
def test_segre_dimension_is_the_hilbert_polynomial_degree(sizes):
    specs = [AlgebraSpec.unweighted(1, ((0,) * n,) * n) for n in sizes]
    cert = certify_segre(*specs)
    assert cert.expected_dimension == sum(sizes) - 4
    assert verify_certificate(cert)
    for dim in range(-1, sum(sizes)):
        if dim != cert.expected_dimension:
            assert not verify_certificate(
                dataclasses.replace(cert, expected_dimension=dim))


# -- properties -------------------------------------------------------------


@st.composite
def unit_weight_specs(draw):
    """Any exponent matrix: the identity below needs no hypothesis."""
    n = draw(st.integers(1, 6))
    order = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, order - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return AlgebraSpec.unweighted(order, rows)


@given(unit_weight_specs())
@settings(max_examples=500, deadline=None)
def test_unit_weight_solver_finds_the_first_column_off_column_zero(spec):
    """With unit weights the column system says the products are constant,
    so segre and mixed can share the solver with weighted."""
    products = column_products(spec)
    off = [j for j, p in enumerate(products) if p != products[0]]
    c, j = solve_root_system(_column_pairs(spec))
    if off:
        assert (c, j) == (None, off[0])
    else:
        assert j == spec.nvars
        assert (c.order, c.exponent) == (products[0].order, products[0].exponent)


@st.composite
def surface_specs(draw):
    entries = [draw(st.integers(0, 2)) for _ in range(6)]
    return AlgebraSpec(weights=(1, 1, 2, 2), order=3,
                       exponents=antisymmetric(3, entries))


@given(surface_specs())
@settings(max_examples=500, deadline=None)
def test_weighted_verdicts_carry_checkable_evidence(spec):
    cert = certify_weighted(spec)
    assert cert.verdict in (Verdict.CY, Verdict.NOT_CY)
    assert verify_certificate(cert)
    if cert.verdict is Verdict.CY:
        c = cert.witness[0]
        for j, p in enumerate(column_products(spec)):
            assert c ** spec.weights[j] == p


@given(surface_specs(), st.permutations(range(4)))
@settings(max_examples=300, deadline=None)
def test_weighted_verdict_is_permutation_invariant(spec, perm):
    if any(spec.weights[perm[i]] != spec.weights[i] for i in range(4)):
        return
    permuted = AlgebraSpec(
        weights=spec.weights, order=spec.order,
        exponents=tuple(tuple(spec.exponents[perm[i]][perm[j]]
                              for j in range(4)) for i in range(4)))
    assert certify_weighted(permuted).verdict is certify_weighted(spec).verdict
