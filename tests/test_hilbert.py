"""Hilbert series prefixes against combinatorial and linear-algebra oracles."""

import random
import tracemalloc
from itertools import islice
from math import comb, gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy import _kernels, hilbert, qalgebra
from qcy.cyclo import CycInt, RootScalar
from qcy.errors import InternalDefect
from qcy.hilbert import (
    DEGREE_BOUND,
    HilbertSeries,
    brute_force_dims,
    difference_degree,
    pole_order_at_one,
    quotient_by_regular,
    segre_coefficients,
    series_qpoly,
)
from qcy.manifest import load
from qcy.qalgebra import (
    AlgebraSpec,
    SkewPoly,
    fermat,
    is_central,
    validate_spec,
)

from helpers import (SPEC4, antisymmetric, exact_dims, monomials_of_degree,
                     multiply_rows, multiply_rows_mod, within)

GOLDEN = Path(__file__).resolve().parent / "golden" / "manifests"


# -- free series ------------------------------------------------------------


def test_series_counts_weighted_monomials():
    for weights in ((1,), (1, 1, 1), (1, 1, 2, 2), (1, 2, 3, 6), (2, 3)):
        coefficients = series_qpoly(weights).prefix(14)
        for d in range(15):
            assert coefficients[d] == len(monomials_of_degree(weights, d))


def test_unweighted_series_is_binomial():
    series = series_qpoly((1, 1, 1, 1))
    assert series.prefix(6) == tuple(comb(d + 3, 3) for d in range(7))


def test_degree_six_coefficient_of_1236():
    # partitions of 6 into parts 1, 2, 3, 6 with labelled parts:
    # (6), (3,3), (3,2,1), (3,1,1,1), (2,2,2), (2,2,1,1), (2,1^4), (1^6)
    coefficients = series_qpoly((1, 2, 3, 6)).prefix(6)
    assert coefficients[6] == 8
    assert coefficients[6] == len(monomials_of_degree((1, 2, 3, 6), 6))


def test_prefix_refuses_degrees_outside_the_bound():
    series = series_qpoly((1, 2))
    assert series.prefix(0) == (1,)
    for upto in (-1, -5, DEGREE_BOUND + 1, 10**7):
        with pytest.raises(ValueError, match=f"DEGREE_BOUND = {DEGREE_BOUND}"):
            within(1, lambda: series.prefix(upto))


def test_series_rejects_malformed_rational_form():
    with pytest.raises(ValueError):
        HilbertSeries({(0, 0): 1}, ((1,),))
    with pytest.raises(ValueError):
        HilbertSeries({(-1,): 1}, ((1,),))
    with pytest.raises(ValueError):
        HilbertSeries({(0,): 1}, ((0,),))


# -- quotients --------------------------------------------------------------


def test_quotient_matches_inclusion_exclusion():
    base = series_qpoly((1, 1, 2, 2)).prefix(19)
    q = quotient_by_regular(series_qpoly((1, 1, 2, 2)), 6).prefix(19)
    for d in range(20):
        assert q[d] == base[d] - (base[d - 6] if d >= 6 else 0)


def test_quotient_rejects_zero_degree():
    base = series_qpoly((1, 1))
    with pytest.raises(ValueError):
        quotient_by_regular(base, 0)
    with pytest.raises(ValueError):
        quotient_by_regular(base, (2,))


def test_commutative_quintic_prefix():
    q = quotient_by_regular(series_qpoly((1, 1, 1, 1, 1)), 5)
    assert q.prefix(6) == (1, 5, 15, 35, 70, 125, 205)
    assert q.prefix(12)[12] == comb(16, 4) - comb(11, 4)


def test_pole_order_at_one_counts_factors_less_numerator_zeros():
    assert pole_order_at_one(series_qpoly((1, 2, 3))) == 3
    assert pole_order_at_one(quotient_by_regular(series_qpoly((1, 2, 3)), 6)) == 2
    # numerator (1 - t)^2 (1 + t) = 1 - t - t^2 + t^3 against three factors
    cubic = HilbertSeries({(0,): 1, (1,): -1, (2,): -1, (3,): 1}, ((1,), (2,), (5,)))
    assert pole_order_at_one(cubic) == 1
    with pytest.raises(ValueError):
        pole_order_at_one(HilbertSeries({}, ((1,),)))


def test_pole_order_at_one_needs_no_dense_numerator():
    series = quotient_by_regular(series_qpoly((1, 10**9)), 10**9 + 1)
    assert within(1, lambda: pole_order_at_one(series)) == 1


# -- Segre products ---------------------------------------------------------


def test_segre_coefficients_are_products_of_monomial_counts():
    for wa, wb in (((1, 1, 1, 1), (1, 1, 1)), ((1, 2), (1, 1, 3)), ((2, 3), (1,))):
        coefficients = segre_coefficients(series_qpoly(wa).prefix(10),
                                          series_qpoly(wb).prefix(10))
        for i in range(11):
            assert coefficients[i] == (len(monomials_of_degree(wa, i))
                                       * len(monomials_of_degree(wb, i)))


def test_segre_of_free_rings():
    a, b = series_qpoly((1, 1, 1, 1)), series_qpoly((1, 1, 1))
    coefficients = segre_coefficients(a.prefix(4), b.prefix(4))
    assert coefficients[2] == comb(5, 3) * comb(4, 2) == 60
    assert coefficients == (1, 12, 60, 200, 525)


def test_difference_degree_reads_polynomial_degrees():
    assert difference_degree([0, 0, 0]) == -1
    assert difference_degree([]) == -1
    assert difference_degree([5, 5, 5]) == 0
    for degree in range(6):
        values = [2 * i ** degree - 5 for i in range(-2, degree + 2)]
        assert difference_degree(values) == degree
    # fewer values than the degree needs read low: that is the caller's bound
    assert difference_degree([i ** 3 for i in range(3)]) == 2


@pytest.mark.parametrize("name", ["segre.man", "mixed.man"])
def test_segre_of_quotients_matches_brute_force(name):
    spec_a, spec_b = (alg.spec() for alg in load(str(GOLDEN / name)).algebras)
    quotients = [quotient_by_regular(series_qpoly(s.weights), s.total_degree)
                 for s in (spec_a, spec_b)]
    dims_a = brute_force_dims(spec_a, fermat(spec_a), max_degree=8)
    dims_b = brute_force_dims(spec_b, fermat(spec_b), max_degree=8)
    assert list(segre_coefficients(*(q.prefix(8) for q in quotients))) == [
        x * y for x, y in zip(dims_a, dims_b)]


# -- brute force dimensions -------------------------------------------------


def test_brute_force_matches_quotient_on_running_example():
    dims = brute_force_dims(SPEC4, fermat(SPEC4), max_degree=9)
    q = quotient_by_regular(series_qpoly(SPEC4.weights), SPEC4.total_degree)
    assert dims == list(q.prefix(9))


def test_brute_force_on_small_commutative_cubic():
    spec = AlgebraSpec.unweighted(1, antisymmetric(1, (0, 0, 0)))
    f = fermat(spec)
    dims = brute_force_dims(spec, f, max_degree=7)
    q = quotient_by_regular(series_qpoly((1, 1, 1)), 3)
    assert dims == list(q.prefix(7))


def test_brute_force_requires_homogeneous_central_input():
    x0 = SkewPoly.gen(SPEC4.order, 4, 0)
    x2 = SkewPoly.gen(SPEC4.order, 4, 2)
    with pytest.raises(ValueError):
        brute_force_dims(SPEC4, x0 + x2)  # not homogeneous
    with pytest.raises(ValueError):
        brute_force_dims(SPEC4, x0)  # homogeneous but not central
    with pytest.raises(ValueError):
        brute_force_dims(SPEC4, SkewPoly.zero(SPEC4.order, 4))


def test_brute_force_accepts_multiple_quotients(monkeypatch):
    # two relations in the commutative square: x0^2 + x1^2 and x2^2 + x3^2.
    # From degree 4 on their rows are dependent, (x2^2 + x3^2) f =
    # (x0^2 + x1^2) g, so no prime gives full rank and the primes run on
    # until their squared product passes B^2 = 2^rows (N = 1, two unit
    # terms a row): one prime near 2^31 for 20 and 40 rows, two for 70.
    calls = []
    rank = _kernels.modp_rank

    def counted(mat, p):
        out = rank(mat, p)
        calls.append((mat.shape, p, out))
        return out

    monkeypatch.setattr(_kernels, "modp_rank", counted)
    spec = AlgebraSpec.unweighted(1, tuple(tuple(0 for _ in range(4))
                                           for _ in range(4)))
    f = SkewPoly.monomial(1, (2, 0, 0, 0)) + SkewPoly.monomial(1, (0, 2, 0, 0))
    g = SkewPoly.monomial(1, (0, 0, 2, 0)) + SkewPoly.monomial(1, (0, 0, 0, 2))
    dims = brute_force_dims(spec, (f, g), max_degree=6)
    series = quotient_by_regular(
        quotient_by_regular(series_qpoly((1, 1, 1, 1)), 2), 2)
    assert dims == list(series.prefix(6))
    by_shape = {}
    for shape, p, out in calls:
        by_shape.setdefault(shape, []).append((p, out))
    deficient = {shape: runs for shape, runs in by_shape.items()
                 if shape[0] in (20, 40, 70)}  # rows at degrees 4, 5, 6
    assert sorted(deficient) == [(20, 35), (40, 56), (70, 84)]
    assert [len(deficient[shape]) for shape in sorted(deficient)] == [1, 1, 2]
    for (rows, _), runs in deficient.items():
        assert len({p for p, _ in runs}) == len(runs)
        assert all(out < rows for _, out in runs)
    assert all(len(runs) == 1 for shape, runs in by_shape.items()
               if shape not in deficient)


def test_brute_force_on_two_cubics_where_nothing_peels(monkeypatch):
    # Two commutative cubics in six variables: each column monomial is hit
    # by the rows of both or of neither, so no column has one nonzero and
    # every span reaches the elimination loop whole.  From degree 6 on the
    # spans are deficient (f g = g f) and take several primes each.
    calls = []  # (span shape, shapes the elimination loop received)
    rank, eliminate = _kernels.modp_rank, _kernels._eliminate

    def counted_rank(mat, p):
        calls.append((mat.shape, []))
        return rank(mat, p)

    def counted_eliminate(a, p, live, above):
        calls[-1][1].append(a.shape)
        return eliminate(a, p, live, above)

    monkeypatch.setattr(_kernels, "modp_rank", counted_rank)
    monkeypatch.setattr(_kernels, "_eliminate", counted_eliminate)
    spec = AlgebraSpec.unweighted(1, ((0,) * 6,) * 6)
    cubes = [tuple(3 * (j == i) for j in range(6)) for i in range(6)]
    f = sum((SkewPoly.monomial(1, e) for e in cubes[1:]),
            SkewPoly.monomial(1, cubes[0]))
    g = sum((SkewPoly.monomial(1, e, i + 2) for i, e in enumerate(cubes[1:])),
            SkewPoly.monomial(1, cubes[0]))
    dims = brute_force_dims(spec, (f, g), max_degree=8)
    series = quotient_by_regular(
        quotient_by_regular(series_qpoly((1,) * 6), 3), 3)
    assert dims == list(series.prefix(8))
    assert dims[-3:] == [351, 546, 804]
    assert len(calls) > 9  # more than one prime at some degree
    assert all(loop == [span] for span, loop in calls)


def test_brute_force_builds_no_cyclotomic_integer(monkeypatch):
    counts = {"multiply": 0, "mul": 0, "monomials": []}
    multiply, mul = qalgebra.multiply, CycInt.__mul__
    monomials = qalgebra.monomials_up_to

    def counted_multiply(*args):
        counts["multiply"] += 1
        return multiply(*args)

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_monomials(weights, max_degree):
        counts["monomials"].append(max_degree)
        return monomials(weights, max_degree)

    monkeypatch.setattr(qalgebra, "multiply", counted_multiply)
    monkeypatch.setattr(CycInt, "__mul__", counted_mul)
    monkeypatch.setattr(CycInt, "__rmul__", counted_mul)
    monkeypatch.setattr(hilbert, "monomials_up_to", counted_monomials)
    dims = brute_force_dims(SPEC4, fermat(SPEC4), max_degree=12)
    assert counts["multiply"] == counts["mul"] == 0
    # every degree's monomials come from one enumeration per call
    assert counts["monomials"] == [12]
    q = quotient_by_regular(series_qpoly(SPEC4.weights), SPEC4.total_degree)
    assert dims == list(q.prefix(12))


def test_brute_force_evaluates_each_coefficient_once_per_prime(monkeypatch):
    calls = []
    evaluate = CycInt.evaluate_mod

    def counted(self, g, p):
        calls.append(p)
        return evaluate(self, g, p)

    monkeypatch.setattr(CycInt, "evaluate_mod", counted)
    f = fermat(SPEC4)
    dims = brute_force_dims(SPEC4, (f, f + f), max_degree=12)
    q = quotient_by_regular(series_qpoly(SPEC4.weights), SPEC4.total_degree)
    assert dims == list(q.prefix(12))
    # four terms per element, two elements, each prime once for all degrees
    primes = set(calls)
    assert len(primes) > 1
    assert all(calls.count(p) == 8 for p in primes)


# -- refusals before any monomial is built ---------------------------------


def _refused(monkeypatch, spec, quotient, max_degree, match):
    built = []
    monkeypatch.setattr(hilbert, "monomials_up_to",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError, match=match):
        within(1, lambda: brute_force_dims(spec, quotient, max_degree))
    assert built == []


def test_brute_force_refuses_a_negative_degree(monkeypatch):
    _refused(monkeypatch, SPEC4, fermat(SPEC4), -1, "nonnegative")


def test_brute_force_refuses_codes_past_int64(monkeypatch):
    # radix 8 in 21 unit variables: 8^21 > 2^62, while the table is admitted
    spec = AlgebraSpec.unweighted(1, ((0,) * 21,) * 21)
    f = SkewPoly.monomial(1, (7,) + (0,) * 20)
    assert hilbert._price(spec.weights, (7,), (1,), 7) <= \
        hilbert.ORACLE_CELL_BOUND
    _refused(monkeypatch, spec, f, 7, "do not fit in int64")
    places = hilbert._places(spec.weights[:20], 7)
    assert places.tolist() == [8**k for k in range(19, -1, -1)]
    # int64 arrays wrap without a warning, so this bound is the overflow
    # guard: codes below 2^62 leave code(m) + code(e) below 2^63
    assert hilbert._places((1,) * 62, 1).tolist() == \
        [2**k for k in range(61, -1, -1)]
    with pytest.raises(ValueError, match="do not fit in int64"):
        hilbert._places((1,) * 63, 1)


def test_brute_force_refuses_spans_past_the_bound(monkeypatch):
    # five unit weights to degree 40: the degree-40 span of the quintic has
    # C(39, 4) rows and C(44, 4) columns, three cells each
    quintic = AlgebraSpec.unweighted(1, ((0,) * 5,) * 5)
    price = hilbert._price(quintic.weights, (5,), (5,), 40)
    assert price > 3 * comb(39, 4) * comb(44, 4) > hilbert.ORACLE_CELL_BOUND
    _refused(monkeypatch, quintic, fermat(quintic), 40,
             f"ORACLE_CELL_BOUND = {hilbert.ORACLE_CELL_BOUND}")


def test_brute_force_refuses_tables_past_the_bound(monkeypatch):
    # spans of one row, but tables past the bound: two unit weights to
    # degree 10^4, 50 million monomials; and a heavy last weight, where the
    # table is one hundredth as large but its first coordinate alone has
    # one row per degree
    pair = AlgebraSpec.unweighted(1, ((0, 0), (0, 0)))
    f = SkewPoly.monomial(1, (10**4, 0))
    assert hilbert._price(pair.weights, (10**4,), (1,), 10**4) > \
        9 * comb(10**4 + 2, 2)
    _refused(monkeypatch, pair, f, 10**4, "ORACLE_CELL_BOUND")
    heavy = AlgebraSpec((1, 100), 1, ((0, 0), (0, 0)))
    f = SkewPoly.monomial(1, (0, 1))
    table = sum(series_qpoly(heavy.weights).prefix(60000))
    assert hilbert._price(heavy.weights, (100,), (1,), 60000) > \
        2 * 60001 + 9 * table > hilbert.ORACLE_CELL_BOUND
    _refused(monkeypatch, heavy, f, 60000, "ORACLE_CELL_BOUND")


def test_cell_bound_admits_the_complete_intersections():
    # four quadrics in eight variables to degree 8: 4 C(13, 7) rows of 8
    # terms and C(15, 7) columns, beside the table of C(16, 8) monomials
    price = hilbert._price((1,) * 8, (2,) * 4, (8,) * 4, 8)
    assert price == 9 * comb(16, 8) + \
        4 * comb(13, 7) * (3 * comb(15, 7) + 6 * 8) + 8 * 10
    assert price <= hilbert.ORACLE_CELL_BOUND
    assert hilbert._price((1,) * 6, (3, 3), (6, 6), 8) <= \
        hilbert.ORACLE_CELL_BOUND


def _generic(weights, degree, seed):
    """Every monomial of one degree, with coefficients 1 .. 50."""
    rng = random.Random(seed)
    exps, starts = qalgebra.monomials_up_to(weights, degree)
    rows = exps[starts[degree]:starts[degree + 1]].tolist()
    return SkewPoly(1, len(weights),
                    {tuple(e): rng.randint(1, 50) for e in rows})


def _commutative(weights):
    return AlgebraSpec(weights, 1, ((0,) * len(weights),) * len(weights))


@pytest.mark.parametrize("spec, quotient, max_degree", [
    # heavy last weight, heavy first weight: tables of one row per span
    (_commutative((1, 100)), [SkewPoly.monomial(1, (0, 1))], 1500),
    (_commutative((100, 1)), [SkewPoly.monomial(1, (1, 0))], 1500),
    # the paper's weights, both ways round, and eight unit weights
    (_commutative((1, 1, 1, 6, 9)), [SkewPoly.monomial(1, (0, 0, 0, 0, 2))], 36),
    (_commutative((9, 6, 1, 1, 1)), [SkewPoly.monomial(1, (2, 0, 0, 0, 0))], 36),
    (_commutative((1,) * 8), [SkewPoly.monomial(1, (12,) + (0,) * 7)], 12),
    # spans: sparse ones, and a many-term element whose spans are dense
    (SPEC4, [fermat(SPEC4)], 30),
    (_commutative((1,) * 5), [fermat(_commutative((1,) * 5))], 14),
    (_commutative((1, 1, 1)), [_generic((1, 1, 1), 20, 1)], 40),
], ids=["1,100", "100,1", "1,1,1,6,9", "9,6,1,1,1", "unit8", "spec4",
        "quintic", "dense"])
def test_price_covers_what_brute_force_holds(spec, quotient, max_degree):
    degrees = [f.homogeneous_degree(spec.weights) for f in quotient]
    price = hilbert._price(spec.weights, degrees,
                           [len(f.terms) for f in quotient], max_degree)
    # once untraced, so that first-use caches and imports are not counted
    brute_force_dims(spec, quotient, max_degree)
    tracemalloc.start()
    try:
        brute_force_dims(spec, quotient, max_degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * price >= peak > 8 * price // 2


# -- the rows modulo p against the multiply-built rows ----------------------

# Weight systems whose weights divide the total degree.  The last three
# have even weights only, so every odd degree has no monomial and some row
# degrees are empty.
ROW_WEIGHTS = ((1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1),
               (1, 1, 2, 2), (1, 1, 1, 3), (2, 2), (2, 2, 4), (2, 4, 6))


@st.composite
def central_quotients(draw, elements=(1, 3)):
    """A validated spec and `elements` (a range) homogeneous central elements.

    Each element is a sum of central monomials of one degree with
    coefficients c zeta^k (+ zeta^k'), so evaluate_mod sees non-unit
    residues as well as 1.
    """
    weights = draw(st.sampled_from(ROW_WEIGHTS))
    n, d = len(weights), sum(weights)
    h = [d // a for a in weights]
    order = draw(st.integers(1, 12))
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            # q_ij^h_i = q_ij^h_j = 1 exactly on multiples of this step
            step = lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
            entries.append(step * draw(st.integers(0, order - 1)))
    spec = AlgebraSpec(weights, order, antisymmetric(order, entries))
    assert validate_spec(spec) == ()
    central = {}
    for degree in range(1, d + 1):
        monos = [m for m in monomials_of_degree(weights, degree)
                 if is_central(SkewPoly.monomial(order, m), spec)]
        if monos:
            central[degree] = monos
    quotient = []
    for _ in range(draw(st.integers(*elements))):
        degree = draw(st.sampled_from(sorted(central)))
        terms = {}
        for mono in draw(st.lists(st.sampled_from(central[degree]),
                                  min_size=1, max_size=3, unique=True)):
            root = CycInt.from_root(RootScalar(order, draw(st.integers(0, order - 1))))
            coeff = root * draw(st.sampled_from((1, 2, -1, 3)))
            extra = CycInt.from_root(RootScalar(order, draw(st.integers(0, order - 1))))
            if draw(st.booleans()) and not (coeff + extra).is_zero():
                coeff = coeff + extra
            terms[mono] = coeff
        quotient.append(SkewPoly(order, n, terms))
    return spec, quotient


def _exponent_rows(spec, quotient, degree, p, g):
    """The rows brute_force_dims builds for one degree, element by element."""
    degrees = [f.homogeneous_degree(spec.weights) for f in quotient]
    exps, codes, starts, elems = hilbert._setup(spec, quotient, degrees, degree)
    blocks = hilbert._blocks(degree, exps, codes, starts, elems, spec.order)
    ncols = starts[degree + 1] - starts[degree]
    return hilbert._matrix_mod(blocks, ncols, p, g).tolist()


@settings(max_examples=200, deadline=None)
@given(central_quotients())
def test_exponent_rows_equal_multiply_rows_mod_p(case):
    spec, quotient = case
    top = max(f.homogeneous_degree(spec.weights) for f in quotient) + 3
    moduli = list(islice(hilbert._moduli(spec.order), 2))
    for degree in range(top + 1):
        for p, g in moduli:
            assert _exponent_rows(spec, quotient, degree, p, g) == \
                multiply_rows_mod(spec, quotient, degree, p, g), (degree, p)
    if len(quotient) == 1:
        # a nonzero central element is regular: the ring is a domain
        series = quotient_by_regular(
            series_qpoly(spec.weights), quotient[0].homogeneous_degree(spec.weights))
        assert brute_force_dims(spec, quotient, top) == list(series.prefix(top))


def test_brute_force_finds_its_primes_once(monkeypatch):
    walks, roots = [], []
    moduli, root = hilbert._moduli, hilbert._root_of_unity_mod

    def counted_moduli(order):
        walks.append(order)
        return moduli(order)

    def counted_root(order, p):
        roots.append(p)
        return root(order, p)

    monkeypatch.setattr(hilbert, "_moduli", counted_moduli)
    monkeypatch.setattr(hilbert, "_root_of_unity_mod", counted_root)
    dims = brute_force_dims(SPEC4, fermat(SPEC4), max_degree=9)
    assert walks == [SPEC4.order] and len(roots) == 1
    q = quotient_by_regular(series_qpoly(SPEC4.weights), SPEC4.total_degree)
    assert dims == list(q.prefix(9))
    # f and 2f: every degree from 6 on is deficient, and from 9 on it takes
    # two primes; each pair is found once for all degrees
    walks.clear()
    roots.clear()
    dims = brute_force_dims(SPEC4, (fermat(SPEC4), fermat(SPEC4) + fermat(SPEC4)),
                            max_degree=12)
    assert dims == list(q.prefix(12))
    assert walks == [SPEC4.order]
    assert len(roots) == len(set(roots)) > 1


@settings(max_examples=200, deadline=None)
@given(central_quotients(elements=(2, 3)))
def test_rank_equals_exact_elimination_on_several_elements(case):
    # Degree d1 + d2, the two least element degrees, is rank deficient or
    # has more rows than columns: f1 f2 = f2 f1 is a sum of rows of either.
    spec, quotient = case
    d1, d2 = sorted(f.homogeneous_degree(spec.weights) for f in quotient)[:2]
    dims = brute_force_dims(spec, quotient, d1 + d2)
    assert dims == exact_dims(spec, quotient, d1 + d2)
    rows = len(multiply_rows(spec, quotient, d1 + d2))
    assert dims[-1] > len(monomials_of_degree(spec.weights, d1 + d2)) - rows


def _block(coefficient):
    """One row with one term: `coefficient` at column 0, reorder exponent 0."""
    zero = np.zeros((1, 1), dtype=np.int64)
    return [(zero, zero, [coefficient], {})]


def test_rank_stops_once_the_primes_pass_the_norm_bound(monkeypatch):
    # N = 1: the only minor is p1 p2, divisible by the first two primes.
    # Their product equals the bound |N(D)| <= B = p1 p2, which proves
    # nothing, so a third prime must decide.
    calls = []
    rank = _kernels.modp_rank
    monkeypatch.setattr(_kernels, "modp_rank",
                        lambda mat, p: calls.append(p) or rank(mat, p))
    pairs = list(islice(hilbert._moduli(1), 3))
    block = _block(CycInt.from_int(1, pairs[0][0] * pairs[1][0]))
    assert hilbert._rank(block, 1, iter(pairs)) == 1
    assert calls == [p for p, _ in pairs]
    with pytest.raises(ValueError, match="too few primes"):
        hilbert._rank(block, 1, iter(pairs[:2]))
    with pytest.raises(ValueError, match="too few primes"):
        hilbert._rank(block, 1, iter(()))
    # N = 3: a + zeta lies in the three ideals (p_i, zeta - g_i) once
    # a = -g_i (mod p_i), and a < p1 p2 p3.  The three primes multiply past
    # |a + zeta|_1 = a + 1 but not past B = (a + 1)^phi(3), so a fourth
    # prime decides.
    pairs = list(islice(hilbert._moduli(3), 4))
    a, m = 0, 1
    for p, g in pairs[:3]:
        a += m * ((-g - a) * pow(m, -1, p) % p)
        m *= p
    calls.clear()
    assert hilbert._rank(_block(CycInt(3, (a, 1))), 1, iter(pairs)) == 1
    assert calls == [p for p, _ in pairs]


@pytest.mark.parametrize("order", [2**31, 10**9 + 7])
def test_prime_walk_ends_below_two(order):
    # no prime p = 1 (mod N) lies below 2**31 for these
    assert within(1, lambda: list(hilbert._moduli(order))) == []


def test_missing_root_of_unity_is_an_internal_defect():
    # 3 does not divide 5 - 1, so no element of order 3 exists modulo 5
    with pytest.raises(InternalDefect):
        hilbert._root_of_unity_mod(3, 5)
