"""Weight-system enumeration and exponent-matrix sweeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy.cycert import Verdict, certify_weighted
from qcy.points import INFINITE
from qcy.search import (
    REFERENCE_SURFACE_WEIGHTS,
    enumerate_cy_weights,
    search_q_params,
    sweep_census,
    weight_system,
)
from qcy.qalgebra import AlgebraSpec

from helpers import E4


# -- weight systems ---------------------------------------------------------


def test_weight_system_sorts_and_checks_divisibility():
    ws = weight_system((2, 1, 2, 1))
    assert ws.weights == (1, 1, 2, 2)
    assert ws.total_degree == 6
    assert ws.divides == (True, True, True, True)
    assert ws.admissible


def test_weight_system_flags_failures():
    ws = weight_system((1, 1, 2, 5))
    assert ws.total_degree == 9
    assert ws.divides == (True, True, False, False)
    assert not ws.admissible
    assert not weight_system((2, 2, 4)).admissible  # gcd 2


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
        assert ws.admissible
        assert ws.weights == tuple(sorted(ws.weights))


def test_enumeration_three_variables():
    result = enumerate_cy_weights(3, 6)
    assert (1, 1, 1) in {ws.weights for ws in result.systems}
    assert result.reference == ()


def test_enumeration_validates_arguments():
    with pytest.raises(ValueError):
        enumerate_cy_weights(1, 10)
    with pytest.raises(ValueError):
        enumerate_cy_weights(4, 0)


def test_surface_shaped_systems_are_stable_in_the_bound():
    """(1,1,a,b) systems stop appearing beyond b = 6."""
    small = {ws.weights for ws in enumerate_cy_weights(4, 8).systems
             if ws.weights[:2] == (1, 1)}
    larger = {ws.weights for ws in enumerate_cy_weights(4, 30).systems
              if ws.weights[:2] == (1, 1)}
    assert small == larger == {
        (1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 6)}


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


@given(st.permutations(range(4)))
@settings(max_examples=50, deadline=None)
def test_search_canonicalization_is_permutation_stable(perm):
    """Relabelling generators maps the canonical set to itself."""
    specs = search_q_params((1, 1, 1, 1), 2)
    keys = {s.exponents for s in specs}
    rng = random.Random(7)
    for spec in rng.sample(specs, min(10, len(specs))):
        permuted = tuple(
            tuple(spec.exponents[perm[i]][perm[j]] for j in range(4))
            for i in range(4))
        pspec = AlgebraSpec(spec.weights, spec.order, permuted)
        cert = certify_weighted(pspec)
        assert cert.verdict is Verdict.CY
        from qcy.search import _canonical_key, _weight_preserving_perms
        key = _canonical_key(pspec.exponents, _weight_preserving_perms((1, 1, 1, 1)))
        n = 4
        canon = tuple(tuple(key[i * n + j] for j in range(n)) for i in range(n))
        assert canon in keys


# -- census sweep -----------------------------------------------------------


def test_sweep_census_totals():
    rows = sweep_census([(1, 1, 1, 3)])
    assert rows
    for row in rows:
        assert row.weights == (1, 1, 1, 3)
        total = row.census.total
        assert total is INFINITE or total == 24


def test_sweep_census_skips_non_surface_shapes():
    assert sweep_census([(1, 2, 3, 6)]) == []
    assert sweep_census([(1, 1, 1)]) == []
