"""Point schemes: strata, PI degrees, and the closed-point census."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy import points
from qcy.cyclo import RootScalar
from qcy.errors import HypothesisViolation, InternalDefect
from qcy.points import (
    INFINITE,
    STRATUM_BOUND,
    admissible_supports,
    census_weighted_surface,
    is_special,
    max_stratum_dimension,
    pi_degree,
    point_scheme_dim_product,
    two_var_fermat_count,
)
from qcy.qalgebra import AlgebraSpec, _chart_exponent

from helpers import (
    SPEC3,
    SPEC4,
    antisymmetric,
    chart_simple_count,
    record_spec_constructions,
    reference_second_chart_scalar,
    within,
)


# -- special parameters and torus strata ------------------------------------


def test_special_detects_trivial_triple_cocycles():
    assert is_special(SPEC3)
    assert not is_special(SPEC4)
    commutative = AlgebraSpec.unweighted(4, antisymmetric(4, (0, 0, 0)))
    assert is_special(commutative)


def test_admissible_supports_of_general_matrix():
    # every triple cocycle of SPEC4 is nontrivial, so only the 1-skeleton
    got = admissible_supports(SPEC4)
    assert got == [
        (0,), (1,), (2,), (3,),
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_admissible_supports_of_special_matrix():
    got = admissible_supports(SPEC3)
    assert (0, 1, 2) in got
    assert len(got) == 7


def test_support_walk_above_the_bound_is_refused():
    """Seventeen generators: C(17, 3) 2^14 + 2^17 steps, refused at once."""
    spec = AlgebraSpec.unweighted(1, [[0] * 17] * 17)
    with pytest.raises(ValueError, match=f"11272192 steps, above STRATUM_BOUND = {STRATUM_BOUND}"):
        within(1, lambda: admissible_supports(spec))


def test_stratum_walk_above_the_bound_is_refused():
    """Two sides of ten generators: 1023^2 support pairs, 20 terms each."""
    spec = AlgebraSpec.unweighted(1, [[0] * 10] * 10)
    with pytest.raises(ValueError, match=f"20930580 steps, above STRATUM_BOUND = {STRATUM_BOUND}"):
        within(1, lambda: point_scheme_dim_product(spec, spec))


@st.composite
def random_specs(draw):
    n = draw(st.integers(2, 5))
    order = draw(st.integers(1, 6))
    entries = [draw(st.integers(0, order - 1))
               for _ in range(n * (n - 1) // 2)]
    return AlgebraSpec.unweighted(order, antisymmetric(order, entries))


@given(random_specs())
@settings(max_examples=400, deadline=None)
def test_admissible_supports_are_downward_closed(spec):
    got = set(admissible_supports(spec))
    for i in range(spec.nvars):
        assert (i,) in got
    for s in got:
        for drop in range(len(s)):
            sub = s[:drop] + s[drop + 1:]
            if sub:
                assert sub in got
    # a support is admissible iff all its triples have trivial cocycle
    for s in got:
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                for c in range(b + 1, len(s)):
                    i, j, k = s[a], s[b], s[c]
                    e = (spec.exponents[i][j] + spec.exponents[j][k]
                         + spec.exponents[k][i]) % spec.order
                    assert e == 0


def test_max_stratum_dimension_cuts_one_dimension():
    # a singleton stratum keeps one Fermat term and dies; a pair keeps two
    # and drops to a point; the triple of a special chart drops to a line
    assert max_stratum_dimension(AlgebraSpec.unweighted(1, ((0,),))) is None
    assert max_stratum_dimension(AlgebraSpec.unweighted(2, antisymmetric(2, (1,)))) == 0
    assert max_stratum_dimension(SPEC3) == 1


def test_max_stratum_dimension_of_running_example():
    assert max_stratum_dimension(SPEC4) == 0


def test_max_stratum_dimension_needs_divisibility():
    spec = AlgebraSpec(weights=(1, 1, 3), order=2,
                       exponents=antisymmetric(2, (0, 0, 0)))
    with pytest.raises(HypothesisViolation):
        max_stratum_dimension(spec)


# -- product point schemes --------------------------------------------------

SEGRE_A = AlgebraSpec.unweighted(2, (
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)))
SEGRE_B = AlgebraSpec.unweighted(2, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_product_dimension_general_parameters():
    assert point_scheme_dim_product(SEGRE_A, SEGRE_B) == 1


def test_product_dimension_commutative_specialization():
    a = AlgebraSpec.unweighted(2, tuple(tuple(0 for _ in range(4))
                                        for _ in range(4)))
    assert point_scheme_dim_product(a, SEGRE_B) == 3


def test_product_dimension_mixed_equation():
    assert point_scheme_dim_product(SEGRE_A, SEGRE_B, "mixed") == 1


def test_product_dimension_rejects_unknown_shape():
    with pytest.raises(ValueError):
        point_scheme_dim_product(SEGRE_A, SEGRE_B, "cubic")


def two_sided_oracle(spec_a, spec_b, equations):
    """The two-sided loop the cut rule replaced, kept as a test oracle.

    Each equation is a list of terms (generators on A, generators on B).
    """
    best = None
    for s in admissible_supports(spec_a):
        for t in admissible_supports(spec_b):
            dim = len(s) - 1 + len(t) - 1
            dead = False
            for eq in equations:
                alive = sum(1 for (ea, eb) in eq
                            if set(ea) <= set(s) and set(eb) <= set(t))
                if alive == 1:
                    dead = True
                    break
                if alive >= 2:
                    dim -= 1
            if not dead and (best is None or dim > best):
                best = dim
    return best


def oracle_equations(na, nb, g_shape):
    f = [({i}, set()) for i in range(na)]
    if g_shape == "fermat":
        return [f, [(set(), {j}) for j in range(nb)]]
    return [f, [({l}, {l}) for l in range(min(na, nb))]]


@st.composite
def side_specs(draw):
    """Unit-weight antisymmetric specs with 1..5 generators at order 1..6."""
    n = draw(st.integers(1, 5))
    order = draw(st.integers(1, 6))
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = draw(st.integers(0, order - 1))
            e[j][i] = -e[i][j]
    return AlgebraSpec.unweighted(order, e)


@given(side_specs(), side_specs(), st.sampled_from(["fermat", "mixed"]))
@settings(max_examples=400, deadline=None)
def test_product_dimension_matches_the_two_sided_oracle(spec_a, spec_b, g_shape):
    want = two_sided_oracle(spec_a, spec_b,
                            oracle_equations(spec_a.nvars, spec_b.nvars, g_shape))
    assert point_scheme_dim_product(spec_a, spec_b, g_shape) == want


@given(side_specs())
@settings(max_examples=300, deadline=None)
def test_max_stratum_dimension_matches_the_oracle_on_one_side(spec):
    # a one-generator side B adds the single point stratum and no equation
    point = AlgebraSpec.unweighted(1, ((0,),))
    f = [({i}, set()) for i in range(spec.nvars)]
    want = two_sided_oracle(spec, point, [f])
    assert max_stratum_dimension(spec) == want
    assert max_stratum_dimension(spec, admissible_supports(spec)) == want


# -- PI degree --------------------------------------------------------------


def test_pi_degree_of_chart_matrix():
    assert pi_degree(SPEC3) == 3


def test_pi_degree_of_commutative_is_one():
    spec = AlgebraSpec.unweighted(3, antisymmetric(3, (0, 0, 0)))
    assert pi_degree(spec) == 1


def test_pi_degree_of_quantum_plane():
    # x y = zeta_5 y x: image of the exponent matrix has 25 vectors
    spec = AlgebraSpec.unweighted(5, antisymmetric(5, (1,)))
    assert pi_degree(spec) == 5


def test_pi_degree_of_a_non_square_image_is_a_defect(monkeypatch):
    monkeypatch.setattr(points, "image_size", lambda *a: 8)
    with pytest.raises(InternalDefect, match="non-square size 8"):
        pi_degree(SPEC3)


# -- two-variable quotients -------------------------------------------------


def test_two_var_fermat_counts():
    assert two_var_fermat_count(2, 2, 6).count == 6  # 3 factors x 2 shifts
    assert two_var_fermat_count(1, 3, 6).count == 2  # 2 factors x 1 shift
    assert two_var_fermat_count(1, 1, 4).count == 4
    assert two_var_fermat_count(4, 6, 12).count == 2  # 1 factor x 2 shifts
    with pytest.raises(ValueError):
        two_var_fermat_count(2, 3, 8)  # lcm(2,3) does not divide 8


# -- chart counts and the census --------------------------------------------


def test_chart_simple_count_all_nontrivial():
    result = chart_simple_count(SPEC3, (6, 3, 3))
    assert result.count == 12
    assert [(i.support, i.count) for i in result.items] == [
        ((0,), 6), ((1,), 3), ((2,), 3)]
    assert result.trivial_pairs == ()


def test_chart_simple_count_trivial_pair_is_infinite():
    commutative = AlgebraSpec.unweighted(3, antisymmetric(3, (0, 0, 0)))
    result = chart_simple_count(commutative, (6, 3, 3))
    assert result.count is INFINITE
    assert len(result.trivial_pairs) == 3


def test_census_of_running_example():
    report = census_weighted_surface(SPEC4)
    assert report.total == 24
    assert [c.count for c in report.charts] == [12, 6, 6]
    assert report.charts[0].description == "x0 inverted"
    assert [(i.support, i.count) for i in report.charts[0].items] == [
        ((1,), 6), ((2,), 3), ((3,), 3)]
    assert [(i.support, i.count) for i in report.charts[1].items] == [
        ((2,), 3), ((3,), 3)]
    assert report.charts[2].items[0].count == 6
    # the chart x0 = 0, x1 inverted has the one scalar q'_32 = zeta_3^2, by
    # the formula qcy census prints it from and by chart_parameters
    q32 = _chart_exponent(SPEC4.exponents, SPEC4.weights, 3, 1, 3, 2)
    assert RootScalar(3, q32).pair() == (3, 2)
    assert reference_second_chart_scalar(SPEC4) == (3, 2)


def test_census_builds_no_spec(monkeypatch):
    """Finite or infinite, the census reads its chart scalars off the
    surface's exponents and builds no chart spec."""
    commutative = AlgebraSpec(weights=(1, 1, 2, 2), order=3,
                              exponents=antisymmetric(3, (0,) * 6))
    built = record_spec_constructions(monkeypatch)
    assert census_weighted_surface(SPEC4).total == 24
    assert census_weighted_surface(commutative).total is INFINITE
    assert built == []


def test_census_of_commutative_surface_is_infinite():
    spec = AlgebraSpec(weights=(1, 1, 2, 2), order=3,
                       exponents=antisymmetric(3, (0, 0, 0, 0, 0, 0)))
    report = census_weighted_surface(spec)
    assert report.total is INFINITE
    assert report.charts[0].count is INFINITE


def test_census_requires_surface_shape():
    with pytest.raises(ValueError):
        census_weighted_surface(SPEC3)
    spec = AlgebraSpec(weights=(1, 2, 2, 1), order=3,
                       exponents=antisymmetric(3, (0,) * 6))
    with pytest.raises(ValueError):
        census_weighted_surface(spec)


def test_census_rejects_invalid_spec():
    broken = AlgebraSpec(weights=(1, 1, 2, 2), order=3,
                         exponents=((0, 1, 0, 0), (1, 0, 0, 0),
                                    (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(HypothesisViolation):
        census_weighted_surface(broken)


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=1000, deadline=None)
def test_census_identity_for_surface_weights(a, b):
    """d + 2d/a + 2d/b + d g^2/(ab) = 24 exactly on the five systems."""
    weights = tuple(sorted((1, 1, a, b)))
    d = sum(weights)
    a, b = weights[2], weights[3]
    g = gcd(a, b)
    divisible = d % a == 0 and d % b == 0
    total = Fraction(d) + 2 * Fraction(d, a) + 2 * Fraction(d, b) \
        + Fraction(d * g * g, a * b)
    in_family = weights in {(1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2),
                            (1, 1, 2, 4), (1, 1, 4, 6)}
    assert (divisible and total == 24) == in_family
    if in_family:
        assert total.denominator == 1
