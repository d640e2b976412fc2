"""Skew polynomial arithmetic, charts, the center lattice and monomials."""

from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcy.cyclo import CycInt, RootScalar
from qcy import qalgebra
from qcy.errors import HypothesisViolation, InternalDefect
from qcy.qalgebra import (
    CENTER_CHECK_BOUND,
    AlgebraSpec,
    _monomial_is_central,
    _reorder_exponent,
    SkewPoly,
    center_lattice,
    chart_parameters,
    fermat,
    is_central,
    monomials_up_to,
    multiply,
    reorder_scalar,
    validate_spec,
)

from helpers import (CHART3, E4, SPEC3, SPEC4, antisymmetric,
                     monomials_of_degree, monomials_of_degree_at_most, within)


# -- validation -------------------------------------------------------------


def test_validate_passes_running_example():
    assert validate_spec(SPEC4) == ()


def test_validate_flags_each_hypothesis():
    bad_diag = AlgebraSpec.unweighted(3, ((1, 0), (0, 0)))
    kinds = {v.kind for v in validate_spec(bad_diag)}
    assert "diagonal" in kinds

    bad_anti = AlgebraSpec.unweighted(3, ((0, 1), (1, 0)))
    kinds = {v.kind for v in validate_spec(bad_anti)}
    assert "antisymmetry" in kinds

    bad_weights = AlgebraSpec(weights=(1, 1, 3), order=2,
                              exponents=antisymmetric(2, (0, 0, 0)))
    kinds = {v.kind for v in validate_spec(bad_weights)}
    assert kinds == {"weight-divisibility"}

    # q_01 = zeta_4 with h = (2, 2) fails q^h = 1
    bad_entry = AlgebraSpec.unweighted(4, antisymmetric(4, (1,)))
    kinds = {v.kind for v in validate_spec(bad_entry)}
    assert kinds == {"entry-order"}


def test_fermat_exponents():
    assert SPEC4.fermat_exponents() == (6, 6, 3, 3)
    bad = AlgebraSpec(weights=(1, 1, 3), order=2,
                      exponents=antisymmetric(2, (0, 0, 0)))
    with pytest.raises(HypothesisViolation):
        bad.fermat_exponents()


def test_spec_has_slots_and_no_instance_dict():
    assert not hasattr(SPEC4, "__dict__")
    with pytest.raises(AttributeError):
        SPEC4.order = 5


@pytest.mark.parametrize("value, field", [
    (RootScalar(6, 2), "exponent"),
    (CycInt(3, (1, 2)), "coeffs"),
    (SkewPoly(3, 2, {(1, 0): 1}), "terms"),
], ids=["RootScalar", "CycInt", "SkewPoly"])
def test_value_types_have_slots_and_refuse_assignment(value, field):
    assert not hasattr(value, "__dict__")
    assert field in type(value).__slots__
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_value_types_compare_and_hash_by_value():
    # RootScalar by its reduced pair, whatever order it was built with
    assert RootScalar(6, 2) == RootScalar(3, 1)
    assert hash(RootScalar(6, 2)) == hash(RootScalar(3, 1)) == hash((3, 1))
    assert RootScalar(6, 8) == RootScalar(6, 2) != RootScalar(6, 1)
    assert RootScalar(3, 1) != (3, 1)
    # CycInt by order and coefficient tuple
    assert CycInt(3, [1, 2]) == CycInt(3, (1, 2))
    assert hash(CycInt(3, [1, 2])) == hash((3, (1, 2)))
    assert CycInt(3, (1, 2)) != CycInt(4, (1, 2))
    assert CycInt(3, (1, 2)) != (3, (1, 2))
    # SkewPoly by order, generator count and nonzero terms
    p = SkewPoly(3, 2, {(1, 0): 1, (0, 1): 0})
    assert p == SkewPoly.monomial(3, (1, 0))
    assert hash(p) == hash((3, 2, frozenset({(1, 0): CycInt.from_int(3, 1)}.items())))
    assert p != SkewPoly(3, 3, {(1, 0, 0): 1})
    assert p != SkewPoly(6, 2, {(1, 0): 1})


def test_spec_normalizes_entries_mod_the_order():
    spec = AlgebraSpec([True, 1.0], 3, [[3, -1], [4, 0]])
    assert spec.weights == (1, 1)
    assert spec.exponents == ((0, 2), (1, 0))
    assert all(type(x) is int for x in spec.weights + spec.exponents[0])


def test_spec_equality_and_hash_follow_the_normalized_fields():
    same = AlgebraSpec((1, 1, 2, 2), 3, [[x + 3 for x in r] for r in E4])
    assert same == SPEC4
    assert hash(same) == hash(SPEC4)
    assert len({same, SPEC4}) == 1
    assert AlgebraSpec((1, 1, 2, 2), 6, E4) != SPEC4


@pytest.mark.parametrize("weights, order, exponents, message", [
    ((1, 1), 0, ((0, 0), (0, 0)), "root order must be positive"),
    ((), 3, (), "need at least one generator"),
    ((1, 0), 3, ((0, 0), (0, 0)), "weights must be positive"),
    ((1, 1), 3, ((0, 0),), "shape must match"),
    ((1, 1), 3, ((0, 0), (0,)), "shape must match"),
])
def test_spec_shape_errors(weights, order, exponents, message):
    with pytest.raises(ValueError, match=message):
        AlgebraSpec(weights, order, exponents)


def test_subspec_restricts_generators():
    sub = SPEC4.subspec((1, 2, 3))
    assert sub.weights == (1, 2, 2)
    assert sub.exponents == ((0, 2, 0), (1, 0, 0), (0, 0, 0))


# -- normal ordering --------------------------------------------------------


def test_reorder_scalar_on_single_swap():
    # x_1 x_0 = q_10 x_0 x_1
    spec = AlgebraSpec.unweighted(2, antisymmetric(2, (1,)))
    assert reorder_scalar((0, 1), (1, 0), spec).pair() == (2, 1)
    assert reorder_scalar((1, 0), (0, 1), spec).is_one()


def test_multiply_difference_of_squares():
    # with x_1 x_0 = -x_0 x_1: (x_0 + x_1)(x_0 - x_1) = x_0^2 - 2 x_0 x_1 - x_1^2
    spec = AlgebraSpec.unweighted(2, antisymmetric(2, (1,)))
    x0 = SkewPoly.gen(2, 2, 0)
    x1 = SkewPoly.gen(2, 2, 1)
    got = multiply(x0 + x1, x0 - x1, spec)
    expected = (SkewPoly.monomial(2, (2, 0))
                + SkewPoly.monomial(2, (1, 1), -2)
                - SkewPoly.monomial(2, (0, 2)))
    assert got == expected


def test_multiply_commutative_binomial():
    spec = AlgebraSpec.unweighted(5, antisymmetric(5, (0,)))
    x0 = SkewPoly.gen(5, 2, 0)
    x1 = SkewPoly.gen(5, 2, 1)
    s = x0 + x1
    cube = multiply(multiply(s, s, spec), s, spec)
    for k in range(4):
        coeff = cube.terms.get((3 - k, k))
        assert coeff is not None and coeff == coeff.from_int(5, comb(3, k))


@st.composite
def spec_and_vectors(draw, nvars=3, max_order=6, max_entry=3):
    order = draw(st.integers(1, max_order))
    entries = [draw(st.integers(0, order - 1))
               for _ in range(nvars * (nvars - 1) // 2)]
    spec = AlgebraSpec.unweighted(order, antisymmetric(order, entries))
    vec = st.tuples(*[st.integers(0, max_entry)] * nvars)
    return spec, draw(vec), draw(vec), draw(vec)


@given(spec_and_vectors())
@settings(max_examples=1000, deadline=None)
def test_reorder_scalar_is_a_bicharacter(data):
    spec, u, v, w = data
    uv = tuple(a + b for a, b in zip(u, v))
    vw = tuple(a + b for a, b in zip(v, w))
    # multiplicative in the left argument ...
    assert reorder_scalar(uv, w, spec) == \
        reorder_scalar(u, w, spec) * reorder_scalar(v, w, spec)
    # ... and in the right argument
    assert reorder_scalar(u, vw, spec) == \
        reorder_scalar(u, v, spec) * reorder_scalar(u, w, spec)


@given(spec_and_vectors())
@settings(max_examples=500, deadline=None)
def test_reorder_exponent_is_the_scalar_exponent(data):
    spec, u, v, _ = data
    assert _reorder_exponent(u, v, spec) % spec.order == reorder_scalar(u, v, spec).exponent


@given(spec_and_vectors())
@settings(max_examples=500, deadline=None)
def test_monomial_centrality_matches_the_scalar_comparison(data):
    """The exponent test agrees with comparing the two reorder scalars."""
    spec, u, _, _ = data
    units = [tuple(int(i == k) for i in range(spec.nvars)) for k in range(spec.nvars)]
    by_scalars = all(reorder_scalar(unit, u, spec) == reorder_scalar(u, unit, spec)
                     for unit in units)
    assert _monomial_is_central(u, spec) == by_scalars


@st.composite
def spec_and_polys(draw):
    order = draw(st.integers(1, 4))
    entries = [draw(st.integers(0, order - 1)) for _ in range(3)]
    spec = AlgebraSpec.unweighted(order, antisymmetric(order, entries))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
            terms[exps] = draw(st.integers(-2, 2))
        return SkewPoly(order, 3, {
            k: SkewPoly.monomial(order, k, c).terms.get(k)
            for k, c in terms.items() if c
        } or {})

    return spec, poly(), poly(), poly()


@given(spec_and_polys())
@settings(max_examples=1000, deadline=None)
def test_multiply_is_associative_and_distributive(data):
    spec, p, r, s = data
    assert multiply(multiply(p, r, spec), s, spec) == \
        multiply(p, multiply(r, s, spec), spec)
    assert multiply(p, r + s, spec) == \
        multiply(p, r, spec) + multiply(p, s, spec)


# -- Fermat element and centrality ------------------------------------------


def test_fermat_of_running_example_is_central():
    f = fermat(SPEC4)
    assert set(f.terms) == {(6, 0, 0, 0), (0, 6, 0, 0),
                            (0, 0, 3, 0), (0, 0, 0, 3)}
    assert f.homogeneous_degree(SPEC4.weights) == 6
    assert is_central(f, SPEC4)


def test_single_generator_not_central():
    x0 = SkewPoly.gen(3, 3, 0)
    assert not is_central(x0, SPEC3)


@st.composite
def validated_fermat_specs(draw):
    """Weighted specs passing all Fermat hypotheses, small enough to test."""
    weights = draw(st.sampled_from(
        [(1, 1, 1), (1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 3)]))
    d = sum(weights)
    order = draw(st.sampled_from((1, 2, 3, 6)))
    n = len(weights)
    h = [d // a for a in weights]
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            # exponent must kill both h_i and h_j at this order
            step = lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
            choices = list(range(0, order, step))
            entries.append(draw(st.sampled_from(choices)))
    return AlgebraSpec(weights=weights, order=order,
                       exponents=antisymmetric(order, entries))


@given(validated_fermat_specs())
@settings(max_examples=1000, deadline=None)
def test_fermat_is_central_under_hypotheses(spec):
    assert validate_spec(spec) == ()
    assert is_central(fermat(spec), spec)


@st.composite
def any_matrix_and_poly(draw):
    """Any exponent matrix, order <= 12, and up to four CycInt-weighted terms.

    Each term's exponents are multiples of either 1 or the order, so both
    central and non-central polynomials are drawn for every matrix.
    """
    order = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, order - 1)
    spec = AlgebraSpec.unweighted(
        order, [[draw(entry) for _ in range(n)] for _ in range(n)])
    vec = st.sampled_from((1, order)).flatmap(
        lambda step: st.tuples(*[st.integers(0, 3).map(lambda k: k * step)] * n))
    deg = len(CycInt.zero(order).coeffs)
    coeff = st.lists(st.integers(-2, 2), min_size=deg, max_size=deg).map(
        lambda c: CycInt(order, c))
    terms = draw(st.dictionaries(vec, coeff, min_size=1, max_size=4))
    return spec, SkewPoly(order, n, terms)


@given(any_matrix_and_poly())
@settings(max_examples=500, deadline=None)
def test_is_central_agrees_with_products_by_every_generator(data):
    spec, p = data
    by_products = all(
        multiply(SkewPoly.gen(spec.order, spec.nvars, k), p, spec)
        == multiply(p, SkewPoly.gen(spec.order, spec.nvars, k), spec)
        for k in range(spec.nvars))
    assert is_central(p, spec) == by_products


# -- charts -----------------------------------------------------------------


def test_chart_parameters_of_running_example():
    chart = chart_parameters(SPEC4, 0)
    assert chart.kept == (1, 2, 3)
    assert chart.spec.exponents == CHART3
    assert chart.spec.weights == (1, 1, 1)


def test_chart_requires_unit_weight():
    with pytest.raises(ValueError):
        chart_parameters(SPEC4, 2)


def test_chart_of_commutative_stays_commutative():
    spec = AlgebraSpec(weights=(1, 1, 2), order=4,
                       exponents=antisymmetric(4, (0, 0, 0)))
    chart = chart_parameters(spec, 1)
    assert all(e == 0 for row in chart.spec.exponents for e in row)


# -- center lattice ---------------------------------------------------------


def test_center_of_chart_matrix():
    lattice = center_lattice(SPEC3)
    assert lattice.basis == ((1, 1, 1), (0, 3, 0), (0, 0, 3))
    assert lattice.pure_powers == (3, 3, 3)
    assert lattice.has_mixed
    assert lattice.mixed_generator == (1, 1, 1)
    assert lattice.contains((1, 1, 1))
    assert lattice.contains((3, 0, 0))
    assert not lattice.contains((1, 0, 0))


def test_center_membership_matches_is_central():
    for exps in monomials_of_degree_at_most((1, 1, 1), 5):
        p = SkewPoly.monomial(3, exps)
        assert center_lattice(SPEC3).contains(exps) == is_central(p, SPEC3)


def test_center_of_commutative_is_everything():
    spec = AlgebraSpec.unweighted(5, antisymmetric(5, (0, 0, 0)))
    lattice = center_lattice(spec)
    assert lattice.pure_powers == (1, 1, 1)
    assert lattice.contains((1, 0, 0))


def test_center_with_a_forged_lattice_is_a_defect(monkeypatch):
    """Dropping the kernel's row (1, 1, 1) leaves x0 x1 x2 central by its
    reorder exponents but outside the lattice."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice", lambda *a: real(*a)[1:])
    with pytest.raises(InternalDefect, match=r"disagree at \(1, 1, 1\)"):
        center_lattice(SPEC3)


def test_center_cross_check_is_priced_by_the_generator_count():
    """The largest accepted chart has ten generators."""
    assert comb(16, 6) * 10**2 <= CENTER_CHECK_BOUND < comb(17, 6) * 11**2
    # q_ij = zeta_7 for i < j: most monomials fail fast, so this stays quick
    ten = AlgebraSpec.unweighted(7, antisymmetric(7, (1,) * 45))
    assert center_lattice(ten).pure_powers == (7,) * 10
    eleven = AlgebraSpec.unweighted(7, antisymmetric(7, (0,) * 55))
    with pytest.raises(ValueError, match=f"CENTER_CHECK_BOUND = {CENTER_CHECK_BOUND}"):
        within(1, lambda: center_lattice(eleven))


# -- monomial enumeration ---------------------------------------------------


def _degree_rows(weights, degree, max_degree):
    exps, starts = monomials_up_to(weights, max_degree)
    return [tuple(e) for e in exps[starts[degree]:starts[degree + 1]].tolist()]


def test_monomial_counts_match_binomials():
    for n in range(1, 5):
        for d in range(6):
            got = _degree_rows((1,) * n, d, 5)
            assert len(got) == comb(n + d - 1, d)
            assert len(set(got)) == len(got)
            assert got == sorted(got)


def test_weighted_monomials():
    got = _degree_rows((1, 1, 2, 2), 2, 2)
    assert set(got) == {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0),
                        (0, 0, 1, 0), (0, 0, 0, 1)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.integers(0, 14))
@example([2, 2, 4], 7)  # even weights: no monomial of odd degree
@example([2, 4, 4, 2], 11)
@example([4], 9)
@example([1], 0)
def test_monomial_arrays_equal_the_reference_walk(weights, max_degree):
    exps, starts = monomials_up_to(weights, max_degree)
    assert exps.dtype == np.int64 and exps.shape[1] == len(weights)
    assert len(starts) == max_degree + 2
    assert starts[0] == 0 and starts[-1] == len(exps)
    for t in range(max_degree + 1):
        rows = exps[starts[t]:starts[t + 1]].tolist()
        assert list(map(tuple, rows)) == monomials_of_degree(weights, t), t
