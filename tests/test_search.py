"""Weight-system enumeration and exponent-matrix sweeps."""

import random
import tracemalloc
from functools import lru_cache
from fractions import Fraction
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy import _kernels, search
from qcy.cycert import Verdict, certify_weighted, verify_certificate
from qcy.errors import InternalDefect
from qcy.points import INFINITE
from qcy.search import (
    REFERENCE_SURFACE_WEIGHTS,
    SEARCH_BOUND,
    WEIGHT_ENUMERATION_BOUND,
    EnumerationResult,
    ReferenceEntry,
    enumerate_cy_weights,
    search_q_params,
    sweep_census,
    weight_system,
)
from qcy.qalgebra import AlgebraSpec

from helpers import (
    CRITERION_2_SYSTEMS,
    E4,
    least_of_orbits,
    record_spec_constructions,
    reference_census,
    reference_search,
    within,
)


# -- weight systems ---------------------------------------------------------


def test_weight_system_sorts_and_checks_divisibility():
    ws = weight_system((2, 1, 2, 1))
    assert ws.weights == (1, 1, 2, 2)
    assert ws.total_degree == 6
    assert ws.divides == (True, True, True, True)


def test_weight_system_flags_failures():
    ws = weight_system((1, 1, 2, 5))
    assert ws.total_degree == 9
    assert ws.divides == (True, True, False, False)
    assert weight_system((2, 2, 4)).divides == (True, True, True)  # but gcd 2


def test_enumeration_finds_the_divisible_reference_entries():
    result = enumerate_cy_weights(4, 25)
    found = {r.weights for r in result.reference if r.found}
    expected = {
        (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4),
        (1, 1, 4, 6), (1, 2, 3, 6), (2, 3, 3, 4), (1, 2, 6, 9),
        (2, 3, 10, 15), (1, 6, 14, 21)}
    assert found == expected
    flagged = {r.weights for r in result.reference if r.discrepancy}
    assert flagged == {(1, 1, 2, 5), (1, 3, 3, 4)}
    assert not any(r.found for r in result.reference if r.discrepancy)


def test_enumeration_extras_at_bound_25():
    result = enumerate_cy_weights(4, 25)
    assert result.extras == (
        (1, 2, 2, 5), (1, 3, 4, 4), (1, 3, 8, 12), (1, 4, 5, 10))
    assert len(result.systems) == 14


def test_enumeration_systems_are_admissible_and_sorted():
    result = enumerate_cy_weights(4, 12)
    seen = [ws.weights for ws in result.systems]
    assert seen == sorted(seen)
    for ws in result.systems:
        assert all(ws.divides) and gcd(*ws.weights) == 1
        assert ws.weights == tuple(sorted(ws.weights))


def test_enumeration_three_variables():
    result = enumerate_cy_weights(3, 6)
    assert (1, 1, 1) in {ws.weights for ws in result.systems}
    assert result.reference == ()


def test_enumeration_with_a_forged_walk_is_a_defect(monkeypatch):
    """(1, 1, 1, 2): the weight 2 does not divide the total degree 5."""
    monkeypatch.setattr(search, "_divisor_multiplicity_walk",
                        lambda n_vars, bound: iter([(1, 1, 1, 2)]))
    with pytest.raises(InternalDefect, match=r"inadmissible \(1, 1, 1, 2\)"):
        enumerate_cy_weights(4, 2)


def test_enumeration_validates_arguments():
    with pytest.raises(ValueError):
        enumerate_cy_weights(1, 10)
    with pytest.raises(ValueError):
        enumerate_cy_weights(4, 0)


OVER_BOUND = f"more than WEIGHT_ENUMERATION_BOUND = {WEIGHT_ENUMERATION_BOUND} weights"


@pytest.mark.parametrize("n_vars,bound", [
    (4, 10**6), (10**7, 1), (10**18, 2), (10**18, 10**18),
    pytest.param(2, 10**400, id="2-10^400")])
def test_enumeration_above_the_bound_is_refused_before_the_walk(n_vars, bound):
    """The sieve is priced before it is built, and a system's n weights are
    counted before its tuple is: nothing of the input's size is allocated."""
    step = "the walk takes" if bound == 1 else "the sieve is priced at"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{step} {OVER_BOUND}"):
            within(1, lambda: enumerate_cy_weights(n_vars, bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("n_vars,bound", [(300, 6), (9, 200), (2000, 3)])
def test_enumeration_past_the_bound_is_refused_by_its_walk(n_vars, bound):
    """The walk stops once its count of pushes and weights passes the bound."""
    with pytest.raises(ValueError, match=f"the walk takes {OVER_BOUND}"):
        within(5, lambda: enumerate_cy_weights(n_vars, bound))


def test_enumeration_at_the_largest_accepted_bound_runs_within_seconds():
    # five variables: the walk's work grows with its total degrees and the
    # A002966(5) = 147 systems, not with the C(bound + 4, 5) sorted tuples
    assert len(within(5, lambda: enumerate_cy_weights(5, 4269)).systems) == 147
    with pytest.raises(ValueError, match=f"the walk takes {OVER_BOUND}"):
        within(5, lambda: enumerate_cy_weights(5, 4270))


def test_enumeration_admits_cheap_inputs_past_six_variables():
    """(8, 17) has C(24, 8) = 735,471 sorted tuples, about 6 * 10^6 weights,
    but its walk counts 18,548."""
    assert within(5, lambda: enumerate_cy_weights(8, 17)) == _brute_force_weights(8, 17)


def test_enumeration_with_unit_bound_needs_no_recursion():
    assert [ws.weights for ws in enumerate_cy_weights(2000, 1).systems] == [(1,) * 2000]


def test_surface_shaped_systems_are_stable_in_the_bound():
    """(1,1,a,b) systems stop appearing beyond b = 6."""
    small = {ws.weights for ws in enumerate_cy_weights(4, 8).systems
             if ws.weights[:2] == (1, 1)}
    larger = {ws.weights for ws in enumerate_cy_weights(4, 30).systems
              if ws.weights[:2] == (1, 1)}
    assert small == larger == {
        (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 6)}


# -- the enumeration oracles ------------------------------------------------


@lru_cache(maxsize=None)
def _brute_force_admissible(n_vars, bound):
    """Every sorted tuple of n_vars weights up to bound, kept when admissible."""
    kept = []
    for w in combinations_with_replacement(range(1, bound + 1), n_vars):
        d = sum(w)
        if all(d % a == 0 for a in w) and gcd(*w) == 1:
            kept.append(w)
    return tuple(kept)


def _brute_force_weights(n_vars, bound, walked=None):
    """The enumeration by brute force, from a walk up to `walked` >= bound.

    The sorted tuples up to bound are those of the longer walk whose last
    entry is at most bound, in the same order, so one walk per n_vars
    serves every smaller bound.
    """
    kept = _brute_force_admissible(n_vars, walked or bound)
    systems = tuple(weight_system(w) for w in kept if w[-1] <= bound)
    emitted = {ws.weights for ws in systems}
    reference, extras = (), ()
    if n_vars == 4:
        reference = tuple(
            ReferenceEntry(ws.weights, ws.weights in emitted, ws.divides,
                           not all(ws.divides))
            for ws in map(weight_system, REFERENCE_SURFACE_WEIGHTS))
        extras = tuple(sorted(emitted - set(REFERENCE_SURFACE_WEIGHTS)))
    return EnumerationResult(n_vars, bound, systems, reference, extras)


def _brute_force_affordable(n_vars, bound):
    """At most 4 * 10^6 weights in the C(bound + n - 1, n) sorted tuples."""
    k = min(n_vars, bound - 1)
    return k <= 16 and comb(bound + n_vars - 1, k) * n_vars <= 4 * 10**6


@pytest.mark.parametrize("n_vars", range(2, 9))
def test_enumeration_matches_brute_force_on_every_accepted_bound(n_vars):
    """Every bound the brute force affords is accepted, and both agree."""
    bounds = [b for b in range(1, 31) if _brute_force_affordable(n_vars, b)]
    for bound in bounds:
        expected = _brute_force_weights(n_vars, bound, walked=bounds[-1])
        assert enumerate_cy_weights(n_vars, bound) == expected, bound


@pytest.mark.parametrize("n_vars, bound", [(1999, 2), (2000, 1), (199, 3), (60, 4)])
def test_many_small_weights_match_brute_force_within_seconds(n_vars, bound):
    result = within(5, lambda: enumerate_cy_weights(n_vars, bound))
    assert result == _brute_force_weights(n_vars, bound)


def _unit_fraction_solutions(n, total=Fraction(1), least=1):
    """Every h_1 <= ... <= h_n with sum 1/h_i = total, h_1 >= least."""
    if n == 1:
        unit = total.numerator == 1 and total.denominator >= least
        return [(total.denominator,)] if unit else []
    found = []
    # 1/h_1 is the largest of n terms summing to total: total/n <= 1/h_1 < total
    for h in range(max(least, int(1 / total) + 1), int(n / total) + 1):
        found += [(h,) + rest
                  for rest in _unit_fraction_solutions(n - 1, total - Fraction(1, h), h)]
    return found


def test_unit_fraction_counts_match_oeis_a002966():
    counts = [len(_unit_fraction_solutions(n)) for n in range(1, 7)]
    assert counts == [1, 1, 3, 14, 147, 3462]


@pytest.mark.parametrize("n_vars, bound", [
    (2, 1), (3, 3), (4, 21), (4, 25), (4, 68), (5, 903)])
def test_systems_are_the_unit_fraction_decompositions_of_one(n_vars, bound):
    """Weights a_i dividing d = sum a_i give sum 1/h_i = 1 with h_i = d / a_i;
    conversely d = lcm(h) and a_i = d / h_i, whose gcd is 1."""
    expected = set()
    for h in _unit_fraction_solutions(n_vars):
        d = lcm(*h)
        expected.add(tuple(sorted(d // x for x in h)))
    assert max(map(max, expected)) <= bound
    assert {ws.weights for ws in enumerate_cy_weights(n_vars, bound).systems} == expected


# -- parameter search -------------------------------------------------------


def test_search_finds_running_example_class():
    specs = search_q_params((1, 1, 2, 2), 3)
    assert len(specs) == 27
    keys = {spec.exponents for spec in specs}
    # the running example appears as its own canonical representative
    assert E4 in keys
    for spec in specs:
        assert certify_weighted(spec).verdict is Verdict.CY


def test_search_commutative_always_present():
    for weights, order in (((1, 1, 1, 1), 2), ((1, 1, 2, 2), 2)):
        specs = search_q_params(weights, order)
        zero = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        assert zero in {s.exponents for s in specs}


def test_search_requires_divisible_weights():
    with pytest.raises(ValueError):
        search_q_params((1, 1, 2, 5), 3)


def test_search_respects_entry_order_hypotheses():
    # (1,1,1,3) at order 6: entries touching x_3 must have order dividing 2
    specs = search_q_params((1, 1, 1, 3), 6)
    for spec in specs:
        for i in range(4):
            e = spec.exponents[i][3]
            assert (2 * e) % 6 == 0


def test_search_entry_order_check_reads_the_weights(monkeypatch):
    """A lattice built from strides of h_i alone admits e_ij that fail
    q_ij^{h_j} = 1; the batch check reads h from the weights, not from
    those strides, so it raises."""
    real = search.lcm
    # only _cy_lattice's stride lcm takes two arguments in search
    monkeypatch.setattr(search, "lcm",
                        lambda *xs: xs[0] if len(xs) == 2 else real(*xs))
    with pytest.raises(InternalDefect, match="entry-order"):
        search._search_classes((1, 1, 2, 4), 8)


def _relabel(exponents, perm):
    n = len(perm)
    return tuple(tuple(exponents[perm[i]][perm[j]] for j in range(n))
                 for i in range(n))


@given(st.permutations(range(4)))
@settings(max_examples=50, deadline=None)
def test_search_canonicalization_is_permutation_stable(perm):
    """Relabelling generators maps the canonical set to itself."""
    specs = search_q_params((1, 1, 1, 1), 2)
    keys = {s.exponents for s in specs}
    rng = random.Random(7)
    for spec in rng.sample(specs, min(10, len(specs))):
        pspec = AlgebraSpec(spec.weights, spec.order, _relabel(spec.exponents, perm))
        cert = certify_weighted(pspec)
        assert cert.verdict is Verdict.CY
        canon = min(_relabel(pspec.exponents, p) for p in permutations(range(4)))
        assert canon in keys


# -- the brute-force oracle -------------------------------------------------


def _weight_preserving(weights):
    n = len(weights)
    return [p for p in permutations(range(n))
            if all(weights[p[i]] == weights[i] for i in range(n))]


def _stride_product(weights, order):
    """Per pair (i, j), i < j, the exponents with q^{h_i} = q^{h_j} = 1."""
    d = sum(weights)
    h = [d // a for a in weights]
    n = len(weights)
    strides = []
    for i in range(n):
        for j in range(i + 1, n):
            step = lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
            strides.append([step * k for k in range(order // step)])
    return strides


@lru_cache(maxsize=None)
def _brute_force_cy(weights, order):
    """Every CY exponent matrix: one certificate per stride-product candidate."""
    n = len(weights)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for choice in product(*_stride_product(weights, order)):
        exps = [[0] * n for _ in range(n)]
        for (i, j), e in zip(pairs, choice):
            exps[i][j] = e
            exps[j][i] = (-e) % order
        spec = AlgebraSpec(weights, order, tuple(tuple(r) for r in exps))
        if certify_weighted(spec).verdict is Verdict.CY:
            found.append(spec.exponents)
    return tuple(found)


def _brute_force_search(weights, order):
    """The search by brute force: the least relabelling of each CY matrix."""
    weights = tuple(sorted(weights))
    perms = _weight_preserving(weights)
    classes = {min(_relabel(e, p) for p in perms)
               for e in _brute_force_cy(weights, order)}
    return [AlgebraSpec(weights, order, e) for e in sorted(classes)]


def _candidates(weights, order):
    count = 1
    for entries in _stride_product(weights, order):
        count *= len(entries)
    return count


@pytest.mark.parametrize("weights, order", [
    *((w, sum(w)) for w in CRITERION_2_SYSTEMS),
    ((1, 1, 1, 1, 2), 3),
    ((1,), 3),
], ids=str)
def test_search_matches_brute_force(weights, order):
    assert search_q_params(weights, order) == _brute_force_search(weights, order)


# (weights, order) with entries up to 6 and between 16 and 3000 candidates
SMALL_CASES = [
    (w, order)
    for n in range(2, 7) for w in combinations_with_replacement(range(1, 7), n)
    if all(sum(w) % a == 0 for a in w)
    for order in range(1, 13) if 16 <= _candidates(w, order) <= 3000
]


@given(st.sampled_from(SMALL_CASES))
@settings(max_examples=40, deadline=None)
def test_search_matches_brute_force_on_small_systems(case):
    weights, order = case
    assert search_q_params(weights, order) == _brute_force_search(weights, order)


@pytest.mark.parametrize("weights, order, classes", [
    *((w, sum(w), None) for w in CRITERION_2_SYSTEMS),
    ((1, 1, 1, 1, 2), 3, 126),
], ids=str)
def test_class_count_obeys_burnside(weights, order, classes):
    """Orbits = the average number of CY matrices a relabelling fixes."""
    cy = _brute_force_cy(weights, order)
    perms = _weight_preserving(weights)
    fixed = sum(_relabel(e, p) == e for p in perms for e in cy)
    assert fixed % len(perms) == 0
    count = len(search_q_params(weights, order))
    assert count == fixed // len(perms)
    assert classes is None or count == classes


def test_five_variable_search_within_a_minute():
    weights = (1, 1, 1, 1, 1)
    specs = within(60, lambda: search_q_params(weights, 5))
    assert len(specs) == 755
    perms = list(permutations(range(5)))
    # the classes partition the 5^7 CY matrices
    assert sum(len({_relabel(s.exponents, p) for p in perms}) for s in specs) == 78125
    for spec in specs:
        assert certify_weighted(spec).verdict is Verdict.CY


@pytest.mark.parametrize("weights, order, classes", [
    ((1, 1, 1, 6, 9), 18, 2088),
    ((1, 1, 1, 3, 6), 12, None),
    ((1, 1, 1, 1, 1), 5, 755),
    *((w, sum(w), None) for w in CRITERION_2_SYSTEMS),
], ids=str)
def test_search_matches_the_reference_walk(weights, order, classes):
    """The array walk and the scalar walk keep the same representatives,
    on systems too large for the brute force."""
    found = [s.exponents for s in search_q_params(weights, order)]
    assert found == reference_search(weights, order)
    assert classes is None or len(found) == classes


def test_search_holds_large_boxes_as_python_ints(monkeypatch):
    """With the search modulus M = N lcm(a_j) at _kernels.MODULUS_BOUND the
    walk and the merge both leave int64, and the classes stay equal."""
    expected = search._search_classes((1, 1, 2, 2), 6)
    real_points, real_merge = search._lattice_points, search.merge_columns
    dtypes = []

    def points(boxes, basis, dtype):
        out = real_points(boxes, basis, dtype)
        dtypes.append(("walk", out[0].dtype))
        return out

    def merge(weights, m, targets):
        dtypes.append(("merge", targets[0].dtype))
        return real_merge(weights, m, targets)

    monkeypatch.setattr(search, "_lattice_points", points)
    monkeypatch.setattr(search, "merge_columns", merge)
    monkeypatch.setattr(_kernels, "MODULUS_BOUND", 12)  # M = 6 * 2
    classes = search._search_classes((1, 1, 2, 2), 6)
    assert dtypes == [("walk", object), ("merge", object)]
    assert classes == expected
    _classes_certify((1, 1, 2, 2), 6, *classes)


def _signed_action(g, n):
    """g's relabelling of the pair digits, as _generators encodes it."""
    pairs = list(combinations(range(n), 2))
    return tuple(pairs.index((g[i], g[j])) if g[i] < g[j]
                 else pairs.index((g[j], g[i])) + len(pairs) for i, j in pairs)


@pytest.mark.parametrize("weights", [
    (1,), (1, 1, 2, 2), (1, 1, 1, 1, 2), (1, 2, 3, 6), (1, 1, 1, 3, 3, 3), (2, 1, 2, 1),
], ids=str)
def test_generators_close_to_the_filtered_permutations(weights):
    """The generators' closure under composition is the group of
    weight-preserving permutations, as actions on the pair digits, with at
    most a transposition and a cycle per class of equal weights."""
    n = len(weights)
    width = n * (n - 1) // 2
    gens = search._generators(weights)
    classes = Counter(weights).values()
    assert len(gens) == sum(min(2, c - 1) for c in classes)
    group = {tuple(range(width))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        signed = a + tuple((x + width) % (2 * width) for x in a)
        for b in gens:
            c = tuple(signed[x] for x in b)
            if c not in group:
                group.add(c)
                frontier.append(c)
    expected = {_signed_action(g, n) for g in permutations(range(n))
                if all(weights[g[i]] == weights[i] for i in range(n))}
    assert group == expected


def test_permutation_leaving_the_weights_is_a_defect(monkeypatch):
    """A relabelling that swaps a weight-1 and a weight-2 generator leaves
    the CY matrices of (1,1,2,2)@6: the orbit labelling raises."""
    real = search._generators
    monkeypatch.setattr(search, "_generators",
                        lambda weights: real(weights) + [_signed_action((0, 2, 1, 3), 4)])
    with pytest.raises(InternalDefect, match="not closed"):
        search_q_params((1, 1, 2, 2), 6)


def test_action_without_its_sign_is_a_defect(monkeypatch):
    """Relabelling e_ij to e_ji negates the exponent; dropping the sign
    sends CY matrices of (1,1,2,2)@6 outside the set."""
    real = search._generators
    monkeypatch.setattr(search, "_generators",
                        lambda weights: [[a % 6 for a in g] for g in real(weights)])
    with pytest.raises(InternalDefect, match="not closed"):
        search_q_params((1, 1, 2, 2), 6)


def test_move_between_pairs_of_different_boxes_is_a_defect(monkeypatch):
    """A move reading pair (0,1), box 6, into pair (0,2), box 3, of
    (1,1,2,2)@6 gives digits past their radix: refused before any image's
    index is read."""
    real = search._generators
    monkeypatch.setattr(search, "_generators",
                        lambda weights: real(weights) + [[0, 0, 2, 3, 4, 5]])
    with pytest.raises(InternalDefect, match="not closed"):
        search_q_params((1, 1, 2, 2), 6)


def test_points_out_of_order_are_a_defect(monkeypatch):
    """Each point's digits must read as its row index.  Point 0 of
    (1,1,2,2)@6 swapped with a point that agrees with it wherever the
    diagonal is above 1, where images are compared, makes the orbit
    labelling raise."""
    real = search._lattice_points

    def swapped(boxes, basis, dtype):
        columns, places = real(boxes, basis, dtype)
        kept = [p for p, row in enumerate(basis) if row[p] > 1]
        other = next(r for r in range(1, columns.shape[1])
                     if (columns[kept, r] == columns[kept, 0]).all())
        columns[:, [0, other]] = columns[:, [other, 0]]
        return columns, places

    monkeypatch.setattr(search, "_lattice_points", swapped)
    with pytest.raises(InternalDefect, match="not closed"):
        search_q_params((1, 1, 2, 2), 6)


# (weights, order) of SMALL_CASES whose brute-force orbits stay small
SMALL_ORBIT_CASES = [
    (w, order) for w, order in SMALL_CASES
    if prod(factorial(c) for c in Counter(w).values()) * _candidates(w, order) <= 20000
]


@given(st.sampled_from(SMALL_ORBIT_CASES))
@settings(max_examples=40, deadline=None)
def test_search_classes_are_the_least_of_their_orbits(case):
    assert search._search_classes(*case)[0] == least_of_orbits(*case)


# -- batch certification ---------------------------------------------------


# every (weights, order) this module searches outside the hypothesis draws
SEARCH_CASES = sorted({
    *((w, sum(w)) for w in CRITERION_2_SYSTEMS),
    ((1, 1, 1, 1, 2), 3), ((1,), 3), ((1, 1, 2, 2), 3), ((1, 1, 2, 2), 2),
    ((1, 1, 2, 2), 6), ((1, 1, 1, 1), 2), ((1, 1, 1, 3), 6),
    ((1, 1, 1, 6, 9), 18), ((1, 1, 1, 3, 6), 12), ((1, 1, 1, 1, 1), 5),
})


def _classes_certify(weights, order, matrices, witnesses):
    """Each class's spec certifies CY with the batch witness, as stored."""
    weights = tuple(sorted(weights))
    assert len(matrices) == len(witnesses)
    for mat, witness in zip(matrices, witnesses):
        cert = certify_weighted(AlgebraSpec(weights, order, mat))
        assert cert.verdict is Verdict.CY
        # RootScalar equality is by value; compare the stored pair exactly
        assert [(c.order, c.exponent) for c in cert.witness] == [tuple(witness)]
        assert verify_certificate(cert)


@pytest.mark.parametrize("weights, order", SEARCH_CASES, ids=str)
def test_batch_certificates_equal_certify_weighted(weights, order):
    _classes_certify(weights, order, *search._search_classes(weights, order))


@given(st.sampled_from(SMALL_CASES))
@settings(max_examples=40, deadline=None)
def test_batch_certificates_equal_certify_weighted_on_small_systems(case):
    _classes_certify(*case, *search._search_classes(*case))


@pytest.mark.parametrize("weights, order, dtype", [
    ((1, 1), 2**31 - 2, np.int64),  # M = 2^31 - 2, just below the bound
    ((1, 1), 2**31, object),  # M at the bound
    ((1, 1), 2**32, object),
    ((1, 1, 2), 2**30 - 2, np.int64),  # M = 2^31 - 4
    ((1, 1, 2), 2**30, object),  # M = 2^31
], ids=str)
def test_batch_certification_across_the_int64_bound(monkeypatch, weights, order, dtype):
    """The column merge runs on int64 below the kernels' MODULUS_BOUND and
    on Python ints from it on, with certify_weighted's witnesses either way."""
    assert _kernels.MODULUS_BOUND == 2**31
    real = search.merge_columns
    ran = []

    def spy(weights, m, targets):
        ran.append(targets[0].dtype)
        return real(weights, m, targets)

    monkeypatch.setattr(search, "merge_columns", spy)
    matrices, witnesses = search._search_classes(weights, order)
    assert ran == [np.dtype(dtype)]
    assert len(matrices) > 1
    _classes_certify(weights, order, matrices, witnesses)


def _forge(monkeypatch, edits):
    """Add each delta to one entry of the last class's exponent matrix."""
    real = search._exponent_matrices

    def forged(*args):
        exps = real(*args)
        for (i, j), delta in edits.items():
            exps[-1, i, j] += delta
        return exps

    monkeypatch.setattr(search, "_exponent_matrices", forged)


@pytest.mark.parametrize("edits, kind", [
    ({(1, 0): 1}, "antisymmetry"),
    ({(2, 2): 3}, "diagonal"),
    # q_23 of (1,1,2,2)@6 must be a cube root of unity: stride 2
    ({(2, 3): 1, (3, 2): -1}, "entry-order"),
    # q_01 times zeta, q_10 over it: hypotheses hold, columns 0 and 1 clash
    ({(0, 1): 1, (1, 0): -1}, "columns 0..1 are jointly unsolvable"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_forged_exponent_matrix_is_a_defect(monkeypatch, edits, kind):
    """The batch step checks its matrices, not the lattice that made them:
    a forged class breaking a hypothesis or its column system raises."""
    _forge(monkeypatch, edits)
    with pytest.raises(InternalDefect, match=kind):
        search_q_params((1, 1, 2, 2), 6)


def test_search_above_the_bound_is_refused_before_enumeration():
    with pytest.raises(ValueError) as exc:
        within(5, lambda: search_q_params((1,) * 6, 6))
    assert f"SEARCH_BOUND = {SEARCH_BOUND}" in str(exc.value)
    assert "362797056" in str(exc.value)


# -- census sweep -----------------------------------------------------------


def test_sweep_census_totals():
    rows = sweep_census([(1, 1, 1, 3)])
    assert rows
    for row in rows:
        assert row.weights == (1, 1, 1, 3)
        total = row.census.total
        assert total is INFINITE or total == 24


def test_sweep_census_matches_the_chart_by_chart_reference():
    rows = sweep_census(CRITERION_2_SYSTEMS)
    assert len(rows) == 238
    for row in rows:
        assert row.census == reference_census(row.spec), row.spec


def test_sweep_census_builds_no_spec(monkeypatch):
    """Neither the search nor the census builds a spec; each row builds its
    own when read, equal to the search's spec of that class."""
    built = record_spec_constructions(monkeypatch)
    rows = sweep_census(CRITERION_2_SYSTEMS)
    assert len(rows) == 238 and built == []
    expected = [spec for w in CRITERION_2_SYSTEMS
                for spec in search_q_params(w, sum(w))]
    assert [row.spec for row in rows] == expected


def test_sweep_census_skips_non_surface_shapes():
    assert sweep_census([(1, 2, 3, 6)]) == []
    assert sweep_census([(1, 1, 1)]) == []
