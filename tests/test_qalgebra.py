"""Skew polynomial arithmetic, charts and the center lattice."""

from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.cyclo import CycInt, RootScalar
from qcy import qalgebra
from qcy.errors import HypothesisViolation, InternalDefect
from qcy.qalgebra import (
    CENTER_GENERATOR_BOUND,
    AlgebraSpec,
    _central_mask,
    SkewPoly,
    center_lattice,
    chart_parameters,
    fermat,
    is_central,
    multiply,
    reorder_scalar,
    validate_spec,
)

from helpers import (CHART3, E4, SPEC3, SPEC4, antisymmetric,
                     monomials_of_degree_at_most, reference_chart, subspec, within)


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
    spec = AlgebraSpec([True, np.int64(1)], np.int32(3), [[3, -1], [4, 0]])
    assert spec.weights == (1, 1)
    assert spec.exponents == ((0, 2), (1, 0))
    assert all(type(x) is int for x in (spec.order, *spec.weights, *spec.exponents[0]))


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
    ((1.9, 1), 3, ((0, 1), (2, 0)), "weight must be an integer, not float"),
    ((1, 1), 3.0, ((0, 1), (2, 0)), "root order must be an integer, not float"),
    ((1, 1), 3, ((0, 1.5), (2.2, 0)), "exponent must be an integer, not float"),
    ((1, 1), 3, ((0, "1"), (2, 0)), "exponent must be an integer, not str"),
])
def test_spec_shape_errors(weights, order, exponents, message):
    with pytest.raises(ValueError, match=message):
        AlgebraSpec(weights, order, exponents)


def test_skew_poly_refuses_exponents_that_are_not_integers():
    with pytest.raises(ValueError, match="monomial exponent must be an integer"):
        SkewPoly(3, 2, {(1.5, 0): 1})
    p = SkewPoly(3, 2, {(np.int64(1), 0): 1})
    assert p == SkewPoly.monomial(3, (1, 0))
    assert all(type(e) is int for e in next(iter(p.terms)))


def test_subspec_restricts_generators():
    sub = subspec(SPEC4, (1, 2, 3))
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
    x0 = SkewPoly.monomial(2, (1, 0))
    x1 = SkewPoly.monomial(2, (0, 1))
    got = multiply(x0 + x1, x0 - x1, spec)
    expected = (SkewPoly.monomial(2, (2, 0))
                + SkewPoly.monomial(2, (1, 1), -2)
                - SkewPoly.monomial(2, (0, 2)))
    assert got == expected


def test_multiply_commutative_binomial():
    spec = AlgebraSpec.unweighted(5, antisymmetric(5, (0,)))
    x0 = SkewPoly.monomial(5, (1, 0))
    x1 = SkewPoly.monomial(5, (0, 1))
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
def test_monomial_centrality_matches_the_scalar_comparison(data):
    """The mask agrees, row by row, with comparing the two reorder scalars."""
    spec, u, v, w = data
    units = [tuple(int(i == k) for i in range(spec.nvars)) for k in range(spec.nvars)]
    by_scalars = [all(reorder_scalar(unit, x, spec) == reorder_scalar(x, unit, spec)
                      for unit in units) for x in (u, v, w)]
    assert _central_mask([u, v, w], spec) == by_scalars
    # N * 2**62 added to every entry keeps M e mod N, past int64
    shifted = [[x + spec.order * 2**62 for x in row] for row in (u, v, w)]
    assert _central_mask(shifted, spec) == by_scalars


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


def test_homogeneous_degree_names_a_length_mismatch():
    # zipped, (1, 1, 4) against (1, 1) read as degree 2
    x = SkewPoly.monomial(3, (1, 1, 4))
    with pytest.raises(ValueError, match="3 variables against 2 weights"):
        x.homogeneous_degree((1, 1))
    with pytest.raises(ValueError, match="3 variables against 4 weights"):
        x.homogeneous_degree((1, 1, 1, 1))
    assert x.homogeneous_degree((1, 1, 2)) == 10


def test_single_generator_not_central():
    x0 = SkewPoly.monomial(3, (1, 0, 0))
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
    deg = len(CycInt.from_int(order, 0).coeffs)
    coeff = st.lists(st.integers(-2, 2), min_size=deg, max_size=deg).map(
        lambda c: CycInt(order, c))
    terms = draw(st.dictionaries(vec, coeff, min_size=1, max_size=4))
    return spec, SkewPoly(order, n, terms)


@given(any_matrix_and_poly())
@settings(max_examples=500, deadline=None)
def test_is_central_agrees_with_products_by_every_generator(data):
    spec, p = data
    gens = [SkewPoly.monomial(spec.order, [int(i == k) for i in range(spec.nvars)])
            for k in range(spec.nvars)]
    by_products = all(multiply(x, p, spec) == multiply(p, x, spec) for x in gens)
    assert is_central(p, spec) == by_products


def test_is_central_names_a_length_mismatch():
    x0 = SkewPoly.monomial(3, (1, 0))
    with pytest.raises(ValueError, match="2 variables against 3 generators"):
        is_central(x0, SPEC3)


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


@st.composite
def chart_inputs(draw):
    """Any exponent matrix, alternating or not: order <= 12, 2 to 5
    generators, weights <= 4 with weight 1 at the inverted generator t."""
    order = draw(st.integers(1, 12))
    m = draw(st.integers(2, 5))
    t = draw(st.integers(0, m - 1))
    weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    weights[t] = 1
    entries = st.lists(st.integers(0, order - 1), min_size=m, max_size=m)
    exps = draw(st.lists(entries, min_size=m, max_size=m))
    return AlgebraSpec(tuple(weights), order, exps), t


@given(chart_inputs())
@settings(max_examples=300, deadline=None)
def test_chart_scalars_follow_their_definition(drawn):
    """Every chart entry is q'_jk = q_tj^{a_k} q_jk q_kt^{a_j}, multiplied out
    in RootScalar arithmetic (helpers.reference_chart), apart from the
    census and qalgebra._chart_exponent, which share one formula."""
    spec, t = drawn
    chart = chart_parameters(spec, t).spec
    got = [[chart.q(j, k) for k in range(chart.nvars)] for j in range(chart.nvars)]
    assert got == reference_chart(spec, t), (spec, t)


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
    """Dropping the kernel's row (1, 1, 1) leaves two rows, no square
    Hermite form."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice", lambda *a: real(*a)[1:])
    with pytest.raises(InternalDefect, match=r"2 rows is not a 3 x 3 Hermite form"):
        center_lattice(SPEC3)


def test_center_with_a_doubled_pivot_is_a_defect(monkeypatch):
    """On x1 x0 = zeta_7 x0 x1 the central monomials are x0^7a x1^7b, none
    of degree 1 to 6.  A kernel forged to (14, 0), (0, 7) is a Hermite form
    of central rows, so only its index, 98 against the image's 49, shows
    the missing x0^7."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice",
                        lambda *a: [[14, 0]] + real(*a)[1:])
    spec = AlgebraSpec.unweighted(7, [[0, 6], [1, 0]])
    assert real([[0, 6], [1, 0]], 7) == [[7, 0], [0, 7]]
    with pytest.raises(InternalDefect, match="index 98, but E has an image of 49"):
        center_lattice(spec)


def test_center_with_a_non_central_row_is_a_defect(monkeypatch):
    """(1, 0, 0) in place of (1, 1, 1) keeps a Hermite form of index 9, the
    image's size, but x0 does not commute with x1."""
    real = qalgebra.kernel_lattice
    monkeypatch.setattr(qalgebra, "kernel_lattice",
                        lambda *a: [[1, 0, 0]] + real(*a)[1:])
    with pytest.raises(InternalDefect, match=r"row \(1, 0, 0\) is not central"):
        center_lattice(SPEC3)


def test_center_cross_check_is_priced_by_the_generator_count(rng, monkeypatch):
    """The largest accepted chart, CENTER_GENERATOR_BOUND = 16 generators of
    random exponents at order 10^1000, answers within a second; one more
    generator is refused before the kernel is computed."""
    assert CENTER_GENERATOR_BOUND == 16
    order = 10**1000
    largest = AlgebraSpec.unweighted(
        order, antisymmetric(order, [rng.randrange(order) for _ in range(120)]))
    assert len(within(1, lambda: center_lattice(largest)).basis) == 16

    def no_work(*args):
        raise AssertionError("the kernel was computed")

    monkeypatch.setattr(qalgebra, "kernel_lattice", no_work)
    seventeen = AlgebraSpec.unweighted(7, antisymmetric(7, (1,) * 136))
    with pytest.raises(ValueError, match="chart of 17 generators is above "
                                         "CENTER_GENERATOR_BOUND = 16"):
        center_lattice(seventeen)


@pytest.mark.parametrize("order", [2**62, 10**29, 10**60],
                         ids=["2^62", "10^29", "10^60"])
def test_center_of_a_random_thirteen_generator_chart_answers_quickly(rng, order):
    """The kernel's Hermite form runs modulo N, so no entry outgrows N: a
    chart of thirteen generators with random exponents answers within 2 s
    at orders past int64 too, and every basis row is a kernel vector."""
    spec = AlgebraSpec.unweighted(
        order, antisymmetric(order, [rng.randrange(order) for _ in range(78)]))
    lattice = within(2, lambda: center_lattice(spec))
    assert len(lattice.basis) == 13
    for row in lattice.basis:
        assert all(sum(e * x for e, x in zip(r, row)) % order == 0
                   for r in spec.exponents)
