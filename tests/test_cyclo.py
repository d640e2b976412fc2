"""Exact root-of-unity arithmetic and integer lattice routines.

The lattice routines are checked against brute-force set oracles, and the
root-of-unity solver against exhaustive search over its sufficient modulus.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcy import _kernels
from qcy.cyclo import (
    ENUMERATION_BOUND,
    CycField,
    CycInt,
    RootScalar,
    _polydiv_exact,
    cyclotomic_poly,
    hermite_normal_form,
    image_size,
    kernel_lattice,
    lattice_contains,
    merge_columns,
    smith_normal_form,
    solve_root_system,
)
from qcy.errors import InternalDefect, OrderMismatchError
from qcy.qalgebra import SkewPoly
from qcy.search import search_q_params

from helpers import image_brute, reference_solve_root_system, within


# -- RootScalar -------------------------------------------------------------


def test_root_scalar_reduction():
    r = RootScalar(6, 2)
    assert (r.order, r.exponent) == (3, 1)
    assert RootScalar(6, 2).pair() == (3, 1)
    assert RootScalar(6, 0).pair() == (1, 0)
    assert RootScalar(4, 2).pair() == (2, 1)
    assert RootScalar(1, 0).pair() == (1, 0)


def test_root_scalar_products_cross_order():
    a = RootScalar(4, 1)
    b = RootScalar(6, 1)
    assert (a * b).pair() == (12, 5)
    assert (a * a ** -1).is_one()
    assert (b ** 6).is_one()
    assert (b ** -1).pair() == (6, 5)


def test_root_scalar_equality_ignores_presentation():
    assert RootScalar(6, 2) == RootScalar(3, 1)
    assert hash(RootScalar(6, 2)) == hash(RootScalar(3, 1))
    assert RootScalar(6, 2) != RootScalar(6, 1)


def test_exponent_over_requires_a_multiple_of_the_lowest_order():
    r = RootScalar(6, 2)
    assert r.exponent_over(3) == 1
    assert r.exponent_over(6) == 2
    assert r.exponent_over(12) == 4
    with pytest.raises(OrderMismatchError):
        r.exponent_over(4)
    with pytest.raises(OrderMismatchError):
        r.exponent_over(2)


@given(st.integers(1, 30), st.integers(-60, 60), st.integers(1, 6))
@example(3, 1, 2)
@settings(max_examples=300)
def test_equal_scalars_stand_in_for_one_another(order, exponent, k):
    """RootScalar(k * o, k * e) and RootScalar(o, e) are stored alike, in
    lowest terms, hash alike and give the same exponent over each multiple
    of the lowest order."""
    small, big = RootScalar(order, exponent), RootScalar(k * order, k * exponent)
    assert (big.order, big.exponent) == (small.order, small.exponent)
    assert math.gcd(small.order, small.exponent) == 1
    assert big == small and hash(big) == hash(small)
    for m in range(small.order, 7 * small.order, small.order):
        assert big.exponent_over(m) == small.exponent_over(m)
        assert RootScalar(m, big.exponent_over(m)) == small


def test_skew_poly_takes_an_equal_scalar_of_larger_stored_order():
    built = SkewPoly(3, 2, {(1, 0): RootScalar(6, 2)})
    assert built == SkewPoly(3, 2, {(1, 0): RootScalar(3, 1)})
    assert SkewPoly.monomial(3, (1, 0), RootScalar(6, 2)) == built


@pytest.mark.parametrize("args", [(3, 1.5), (3.0, 1), ("3", 1), (3, Fraction(1))])
def test_root_scalar_refuses_entries_that_are_not_integers(args):
    with pytest.raises(ValueError, match="must be an integer"):
        RootScalar(*args)


def test_root_scalar_takes_numpy_integers_as_ints():
    r = RootScalar(np.int64(6), np.int32(2))
    assert type(r.order) is int and type(r.exponent) is int and r.pair() == (3, 1)


def test_root_scalar_is_immutable():
    r = RootScalar(3, 1)
    with pytest.raises(AttributeError):
        r.exponent = 2


@given(st.integers(1, 30), st.integers(-60, 60), st.integers(1, 30),
       st.integers(-60, 60))
@settings(max_examples=300)
def test_root_scalar_group_laws(n1, e1, n2, e2):
    a, b = RootScalar(n1, e1), RootScalar(n2, e2)
    assert (a * b) == (b * a)
    assert (a * b) * a ** -1 == b
    assert ((a * b) ** 3) == (a ** 3) * (b ** 3)


# -- cyclotomic polynomials and CycInt --------------------------------------


def test_cyclotomic_poly_small_orders():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_polynomial_division_defects_raise_also_under_optimization():
    """Plain exceptions, not asserts, so `python -O` keeps both checks."""
    assert _polydiv_exact([-1, 0, 0, 1], [-1, 1]) == [1, 1, 1]
    with pytest.raises(InternalDefect, match="remainder"):
        _polydiv_exact([1, 0, 1], [1, 1])
    with pytest.raises(InternalDefect, match="not monic"):
        _polydiv_exact([2, 2], [2, 2])


def test_cyclotomic_poly_degree_is_totient():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 40):
        assert len(cyclotomic_poly(n)) - 1 == phi(n)


def test_cycint_root_relations():
    # 1 + zeta_3 + zeta_3^2 = 0
    z = RootScalar(3, 1)
    total = CycInt.from_int(3, 1) + CycInt.from_root(z, 3) + CycInt.from_root(z * z, 3)
    assert total.is_zero()
    # zeta_6 = 1 + zeta_6^4 (since zeta_6^2 - zeta_6 + 1 = 0 gives x = 1 + x^-1... )
    z6 = CycInt.from_root(RootScalar(6, 1), 6)
    assert z6 * z6 * z6 == CycInt.from_int(6, -1)
    # a root embeds over any multiple of its lowest order
    assert CycInt.from_root(RootScalar(6, 2), 6) == z6 * z6
    with pytest.raises(OrderMismatchError):
        CycInt.from_root(RootScalar(6, 1), 3)


@pytest.mark.parametrize("coeffs", [(1.5, 0.2), (1, 2.0), ("1", 0), (Fraction(1), 0)])
def test_cycint_refuses_coefficients_that_are_not_integers(coeffs):
    with pytest.raises(ValueError, match="CycInt coefficient must be an integer"):
        CycInt(3, coeffs)


def test_cycint_takes_numpy_integers_as_ints():
    z = CycInt(3, (np.int64(1), np.int32(2)))
    assert all(type(c) is int for c in z.coeffs) and z == CycInt(3, (1, 2))


def test_cycint_mixed_multiplication():
    z = CycInt.from_root(RootScalar(4, 1), 4)
    assert z * 2 + z == z * 3
    assert z * RootScalar(4, 1) == CycInt.from_int(4, -1)
    assert (z - z).is_zero()
    assert not (z + z).is_zero()


def test_cycint_evaluate_mod():
    # order 4 over p = 13: i -> 5 or 8 (5^2 = 25 = -1 mod 13)
    z = CycInt.from_root(RootScalar(4, 1), 4)
    assert (z * z).evaluate_mod(5, 13) == 12
    three = CycInt.from_int(4, 3)
    assert three.evaluate_mod(5, 13) == 3


# -- root systems -----------------------------------------------------------


def test_solve_root_system_known_values():
    # c^1 = zeta_3, c^2 = zeta_3^2 has c = zeta_3
    r, j = solve_root_system([(1, RootScalar(3, 1)), (2, RootScalar(3, 2))])
    assert r is not None and r.pair() == (3, 1) and j == 2
    # c^1 = zeta_3 and c^1 = zeta_3^2 is contradictory from column 1 on
    assert solve_root_system(
        [(1, RootScalar(3, 1)), (1, RootScalar(3, 2))]) == (None, 1)
    # c^2 = -1 is solved only by the primitive fourth roots
    r, _ = solve_root_system([(2, RootScalar(2, 1))])
    assert r.pair() in ((4, 1), (4, 3))
    # empty system: the trivial root
    r, j = solve_root_system([])
    assert r.is_one() and j == 0


def test_solve_root_system_rejects_bad_exponents():
    with pytest.raises(ValueError):
        solve_root_system([(0, RootScalar(3, 1))])


@st.composite
def root_systems(draw):
    order = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    exps = [draw(st.integers(1, 6)) for _ in range(n)]
    rhs = [RootScalar(order, draw(st.integers(0, order - 1))) for _ in range(n)]
    return list(zip(exps, rhs))


@given(root_systems())
@example([(2, RootScalar(2, 1))])
@settings(max_examples=1000, deadline=None)
def test_solve_root_system_roundtrip_and_refutation(pairs):
    root, j = solve_root_system(pairs)
    # every solution, of every prefix, has order dividing
    # M = N * lcm(a_j), so x in range(M) covers all candidates c = zeta_M^x
    m = (math.lcm(*(r.order for _, r in pairs))
         * math.lcm(*(a for a, _ in pairs)))
    assert m <= 720
    targets = [(a, r.exponent_over(m)) for a, r in pairs]

    def solved_prefix(x):
        count = 0
        for a, t in targets:
            if (a * x - t) % m:
                break
            count += 1
        return count

    # pairs[:j] is solvable and pairs[:j+1] is not
    longest = max(solved_prefix(x) for x in range(m))
    assert j == longest
    if root is None:
        assert j < len(pairs)
    else:
        assert j == len(pairs)
        for a, rhs in pairs:
            assert (root ** a) == rhs


def _key(result):
    """(order, exponent) of a reduced witness, or None, and the column."""
    c, j = result
    return (None if c is None else (c.order, c.exponent), j)


@st.composite
def column_batches(draw):
    """Weights, an order, and several target rows of one column system;
    most random rows are unsolvable."""
    order = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    row = st.lists(st.integers(0, order - 1),
                   min_size=len(weights), max_size=len(weights))
    return weights, order, draw(st.lists(row, min_size=1, max_size=8))


@given(column_batches())
@example(([1, 1], 3, [[1, 2], [1, 1]]))
@example(([2, 4, 3], 8, [[1, 2, 0], [2, 4, 6], [0, 0, 0]]))
@settings(max_examples=500, deadline=None)
def test_merge_columns_matches_the_scalar_reference(batch):
    """One system on Python ints (solve_root_system) and all rows at once on
    int64 and object arrays give each row the reference's (witness, first
    failing column)."""
    weights, order, rows = batch
    n = len(weights)
    systems = [[(a, RootScalar(order, e)) for a, e in zip(weights, row)]
               for row in rows]
    expected = [_key(reference_solve_root_system(pairs)) for pairs in systems]
    assert [_key(solve_root_system(pairs)) for pairs in systems] == expected
    m = order * math.lcm(*weights)
    for dtype in (np.int64, object):
        targets = np.array(rows, dtype).T * (m // order)
        x, first = merge_columns(weights, m, list(targets))
        got = [_key((RootScalar(m, int(xr)) if j == n else None, j))
               for xr, j in zip(x.tolist(), first.tolist())]
        assert got == expected


@given(st.integers(1, 60), st.lists(st.integers(1, 8), min_size=1, max_size=4),
       st.data())
@settings(max_examples=500, deadline=None)
def test_merge_columns_solves_any_congruence_system(m, weights, data):
    """For any m, not only N * lcm(a_j), where a column alone can be
    unsolvable (gcd(a_j, m) not dividing t_j): pairs[:first] has a solution
    in range(m) and pairs[:first + 1] has none, and x solves them all when
    first is the column count; Python ints and arrays agree."""
    targets = [data.draw(st.integers(0, m - 1)) for _ in weights]
    x, first = merge_columns(weights, m, targets)

    def solved_prefix(y):
        count = 0
        for a, t in zip(weights, targets):
            if (a * y - t) % m:
                break
            count += 1
        return count

    assert first == max(solved_prefix(y) for y in range(m))
    if first == len(weights):
        assert 0 <= x < m and solved_prefix(x) == first
    xs, firsts = merge_columns(weights, m, [np.array([t]) for t in targets])
    assert firsts.tolist() == [first]
    if first == len(weights):
        assert xs.tolist() == [x]


@pytest.mark.parametrize("m, dtype", [
    (_kernels.MODULUS_BOUND - 1, np.int64),  # prime, just below the bound
    (2**32 + 15, object),  # coprime to 3 * 5 * 7, past the bound
])
def test_merge_columns_is_exact_on_both_sides_of_the_int64_bound(m, dtype):
    """With a_j prime to m each x0 = t_j / a_j mod m is a product of two
    residues near m.  Below the bound int64 holds it; past the bound object
    arrays agree with Python ints, where int64 would have wrapped."""
    weights = (3, 5, 7)
    xs = (m - 1, m // 2 + 1, m // 3 - 7, 123456789)
    rows = [[a * x % m for a in weights] for x in xs]  # solvable, x is the root
    rows += [[m - 1, m - 2, m - 3], [m // 2, m - 5, 1]]  # unsolvable
    exact = [merge_columns(weights, m, row) for row in rows]
    assert [x for x, j in exact[:len(xs)]] == list(xs)
    assert [j for _, j in exact] == [3] * len(xs) + [1, 1]
    x, first = merge_columns(weights, m, list(np.array(rows, dtype).T))
    assert list(zip(x.tolist(), first.tolist()))[:len(xs)] == exact[:len(xs)]
    assert first.tolist() == [j for _, j in exact]
    if dtype is object:
        wrapped, _ = merge_columns(weights, m, list(np.array(rows, np.int64).T))
        assert wrapped.tolist()[:len(xs)] != list(xs)


# -- Smith and Hermite forms ------------------------------------------------


def random_matrix(rng, n, m, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_smith_normal_form_mod_n_contract(rng):
    """One divisor of N per row, and the image size read off them matches
    enumeration.  The kernel is checked in
    test_kernel_and_image_against_enumeration."""
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        modulus = rng.randint(2, 6)
        mat = random_matrix(rng, n, m)
        diag = smith_normal_form(mat, modulus)
        assert len(diag) == n
        assert all(d >= 1 and modulus % d == 0 for d in diag)
        assert math.prod(modulus // d for d in diag) == len(image_brute(mat, modulus))


@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_smith_diagonal_is_the_cokernel_group(modulus, n, m, data):
    """The diagonal names the group (Z/N)^n / image, not only its order:
    for every divisor t of N, its t-torsion has prod_i gcd(t, d_i)
    elements, counted by brute force as the v with t v in the image."""
    mat = [[data.draw(st.integers(-modulus, 2 * modulus)) for _ in range(m)]
           for _ in range(n)]
    diag = smith_normal_form(mat, modulus)
    image = image_brute(mat, modulus)
    for t in range(1, modulus + 1):
        if modulus % t == 0:
            torsion = sum(tuple(t * x % modulus for x in v) in image
                          for v in product(range(modulus), repeat=n))
            assert torsion == math.prod(math.gcd(t, d) for d in diag) * len(image)


# The 19th 8x8 matrix with entries in [0, 5) drawn from random.Random(0).
# Elimination without reduction mod N let its entries grow without bound.
BLOW_UP_8X8_MOD_5 = [
    [1, 4, 1, 0, 3, 4, 0, 4], [3, 1, 4, 4, 0, 2, 2, 3],
    [0, 0, 3, 0, 2, 2, 1, 3], [1, 4, 2, 1, 3, 2, 2, 3],
    [3, 0, 2, 4, 2, 4, 3, 0], [4, 4, 4, 2, 0, 3, 3, 0],
    [3, 2, 3, 0, 0, 2, 0, 2], [4, 2, 1, 4, 4, 2, 3, 2],
]


@given(st.integers(1, 10**30), st.integers(1, 7), st.integers(0, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_image_size_is_the_index_of_the_first_hermite_form(modulus, n, m, data):
    """The first Hermite form of the columns (one zero row when there are
    none) has index N^n / |image|, so image_size times its pivots is N^n:
    the Smith form's later passes keep that index and only diagonalize."""
    entry = st.integers(-modulus, 2 * modulus)
    mat = [[data.draw(entry) for _ in range(m)] for _ in range(n)]
    form = hermite_normal_form(list(zip(*mat)) or [[0] * n], modulus)
    pivots = math.prod(form[i][i] for i in range(n))
    assert image_size(mat, modulus) * pivots == modulus**n


def test_smith_normal_form_finishes_on_former_blow_up():
    within(2, lambda: smith_normal_form(BLOW_UP_8X8_MOD_5, 5))
    # its image 5^7 times 8 rows lies under ENUMERATION_BOUND, so both
    # routes run and agree
    assert image_size(BLOW_UP_8X8_MOD_5, 5) == 5 ** 7


def test_image_size_of_a_random_antisymmetric_matrix_at_a_huge_order():
    """The Smith diagonal's forms run modulo N, so a random 13 x 13
    antisymmetric matrix at N = 10^1000 answers within a second; the
    kernel's pivots recount the image (|image| |kernel| = N^13)."""
    modulus = 10**1000
    seeded = random.Random(1000)
    mat = [[0] * 13 for _ in range(13)]
    for i in range(13):
        for j in range(i + 1, 13):
            mat[i][j] = seeded.randrange(modulus)
            mat[j][i] = -mat[i][j] % modulus
    size = within(1, lambda: image_size(mat, modulus))
    pivots = [row[j] for j, row in enumerate(kernel_lattice(mat, modulus))]
    assert size == math.prod(pivots)
    assert modulus**12 % size == 0


def span_mod_brute(rows, modulus, m):
    """span(rows) + N Z^m reduced into (Z/N)^m, by every coefficient vector."""
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % modulus
              for j in range(m))
        for coeffs in product(range(modulus), repeat=len(rows))}


def test_hermite_form_is_canonical(rng):
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        modulus = rng.randint(1, 6)
        rows = random_matrix(rng, n, m)
        h = hermite_normal_form(rows, modulus)
        # row c pivots on column c, its pivot divides N, and the entries
        # above each pivot are reduced into [0, pivot)
        assert len(h) == m
        for c, row in enumerate(h):
            assert not any(row[:c])
            assert 0 < row[c] and modulus % row[c] == 0
            assert all(0 <= h[k][c] < row[c] for k in range(c))
        # the lattice is span(rows) + N Z^m, read mod N
        members = {v for v in product(range(modulus), repeat=m)
                   if lattice_contains(h, v)}
        assert members == span_mod_brute(rows, modulus, m)
        # idempotent, and equal for another generating set of the lattice
        assert hermite_normal_form(h, modulus) == h
        mixed = rows[::-1] + [[sum(r[j] for r in rows) + modulus for j in range(m)]]
        assert hermite_normal_form(mixed, modulus) == h


def test_lattice_contains_brute_force(rng):
    for _ in range(40):
        m = rng.randint(1, 3)
        modulus = rng.randint(1, 6)
        basis = hermite_normal_form(random_matrix(rng, rng.randint(1, 3), m), modulus)
        span = span_mod_brute(basis, modulus, m)
        for v in product(range(-modulus, 2 * modulus), repeat=m):
            assert lattice_contains(basis, list(v)) == (
                tuple(x % modulus for x in v) in span)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_lattice_contains_matches_the_hermite_form(data):
    """v lies in the lattice L of an HNF basis exactly when adding v to the
    basis leaves its form unchanged: the form is canonical and L contains
    N Z^m.  Checked in Python ints from small entries to past int64."""
    m = data.draw(st.integers(1, 4))
    scale = data.draw(st.sampled_from((6, 10**9, 2**62, 10**30)))
    modulus = data.draw(st.integers(1, scale))
    entry = st.integers(-scale, scale)
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                              min_size=1, max_size=3))
    basis = hermite_normal_form(rows, modulus)
    vecs = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                              min_size=1, max_size=6))
    # members too: small combinations of the rows
    for coeffs in data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows),
                                              max_size=len(rows)), max_size=3)):
        vecs.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)])
    for v in vecs:
        assert lattice_contains(basis, v) == (
            hermite_normal_form(basis + [v], modulus) == basis)


def test_lattice_contains_names_a_length_mismatch():
    with pytest.raises(ValueError, match="length 1 against basis rows of length 2"):
        lattice_contains([[1, 0], [0, 1]], [1])


def test_lattice_contains_names_a_zero_basis_row():
    with pytest.raises(ValueError, match="basis has a zero row"):
        lattice_contains([[0, 0]], [0, 0])


# per public lattice function, calls with a float or string entry, vector
# component or modulus; int() would have truncated or parsed each
NOT_INTEGERS = {
    hermite_normal_form: [([[0.5, 1.7]], 5), ([[1, 2]], 5.5), ([["1", 2]], 5)],
    smith_normal_form: [([[1, 2.0]], 5), ([[1, 2]], "5")],
    kernel_lattice: [([[1, 0.5]], 5), ([[1, 2]], 5.0)],
    lattice_contains: [([[2, 0], [0, 2]], [2.9, 0]), ([[2, 0.0], [0, 2]], [2, 0]),
                       ([[1]], ["1"])],
    # past MODULUS_BOUND only the Smith form runs
    image_size: [([[0.5, 1.0], [1.9, 0.2]], 2**31 + 11),
                 ([[0.5, 1.0], [1.9, 0.2]], 7), ([[1, 2], [3, 4]], 7.0)],
}


@pytest.mark.parametrize("fn", NOT_INTEGERS, ids=lambda fn: fn.__name__)
def test_lattice_functions_refuse_values_that_are_not_integers(fn):
    for args in NOT_INTEGERS[fn]:
        with pytest.raises(ValueError, match="must be an integer"):
            fn(*args)


def test_lattice_functions_take_bools_and_numpy_integers():
    mat, ints = [[np.int64(2), True], [np.int32(0), False]], [[2, 1], [0, 0]]
    form = hermite_normal_form(mat, np.int64(6))
    assert form == hermite_normal_form(ints, 6)
    assert all(type(x) is int for row in form for x in row)
    assert smith_normal_form(mat, np.int64(6)) == smith_normal_form(ints, 6)
    assert kernel_lattice(mat, np.int64(6)) == kernel_lattice(ints, 6)
    assert image_size(mat, np.int64(6)) == image_size(ints, 6) == 6
    assert lattice_contains(form, [np.int64(2), True])


@pytest.mark.parametrize("fn", NOT_INTEGERS, ids=lambda fn: fn.__name__)
def test_lattice_functions_name_a_ragged_matrix(fn):
    with pytest.raises(ValueError, match="ragged matrix"):
        fn([[1, 2], [3]], [0, 0] if fn is lattice_contains else 5)


# -- kernels and image sizes ------------------------------------------------


def kernel_brute(mat, modulus):
    n = len(mat)
    m = len(mat[0]) if n else 0
    out = set()
    for vec in product(range(modulus), repeat=m):
        if all(sum(row[j] * vec[j] for j in range(m)) % modulus == 0
               for row in mat):
            out.add(vec)
    return out


@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3),
       st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_and_image_against_enumeration(modulus, n, m, data):
    mat = [[data.draw(st.integers(0, modulus - 1)) for _ in range(m)]
           for _ in range(n)]
    basis = kernel_lattice(mat, modulus)
    expected = kernel_brute(mat, modulus)
    # every enumerated kernel vector lies in the lattice, and conversely
    # every basis row reduced mod modulus is a kernel vector
    got = set()
    for coeffs in product(range(modulus), repeat=len(basis)):
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) % modulus
                  for j in range(m))
        got.add(v)
    assert got == expected
    assert image_size(mat, modulus) == len(image_brute(mat, modulus))
    # kernel/image duality over Z/modulus
    assert image_size(mat, modulus) * len(expected) == modulus ** m


def test_image_size_routes_agree(rng):
    for _ in range(40):
        modulus = rng.randint(2, 7)
        n = rng.randint(1, 3)
        mat = random_matrix(rng, n, n, 0, modulus - 1)
        a = image_size(mat, modulus, method="snf")
        b = image_size(mat, modulus, method="enumerate")
        assert a == b
        assert image_size(mat, modulus, method="auto") == a


def test_image_count_scales_with_image_and_divisors_not_multiples():
    # A closure looping over the 999983 multiples of one column, or
    # building the whole domain, runs past the limit.  Only the first lies
    # under ENUMERATION_BOUND (image times rows), so the other two call the
    # closure directly.
    identity = [[int(i == j) for j in range(19)] for i in range(19)]
    sizes = within(2, lambda: [image_size([[1]], 999983),
                               _kernels.image_count([[1, 0], [0, 1]], 1000),
                               _kernels.image_count(identity, 2)])
    assert sizes == [999983, 10 ** 6, 2 ** 19]


def test_closure_is_priced_by_the_image_not_the_domain(monkeypatch):
    # The class of search_q_params((1,1,1,6,9), 18) with the largest image:
    # 11664 * 5 lies under ENUMERATION_BOUND though the domain 18^5 does not.
    calls = []
    count = _kernels.image_count
    monkeypatch.setattr(_kernels, "image_count",
                        lambda mat, modulus: calls.append(modulus) or count(mat, modulus))
    specs = search_q_params((1, 1, 1, 6, 9), 18)
    sizes = [image_size([list(r) for r in s.exponents], 18, method="snf")
             for s in specs]
    largest = specs[sizes.index(max(sizes))]
    assert max(sizes) == 11664 and not calls
    assert image_size([list(r) for r in largest.exponents], 18) == 11664
    assert calls == [18]


def test_closure_runs_past_n_to_the_n_and_is_priced_by_the_wider_side(monkeypatch):
    # Packed rows need no code below 2^62: a 23 x 23 matrix mod 7 of image
    # 7^2, and a 4 x 4 one at N = 3 * 2^29 of image 12 (uint32 residues,
    # two words a row), both get the closure.  A 1 x 1001 matrix of image
    # 1000 has |image| * n under ENUMERATION_BOUND but |image| * m, the
    # closure's scan per column, above it: the Smith form answers alone.
    calls = []
    count = _kernels.image_count
    monkeypatch.setattr(_kernels, "image_count",
                        lambda mat, modulus: calls.append(modulus) or count(mat, modulus))
    square = [[0] * 23 for _ in range(23)]
    square[0][1], square[1][0] = 1, 6
    big = 3 * 2**29
    # columns of order 6, of order 2 in the second word only, their sum, 0
    first, second = [big // 6, 0, 0, 5 * big // 6], [0, 0, big // 2, 0]
    packed = [[a, b, a + b, 0] for a, b in zip(first, second)]
    assert 7**23 > 2**62 and big**4 > 2**62 and big < _kernels.MODULUS_BOUND
    assert image_size(square, 7) == 49
    assert image_size(packed, big) == 12
    assert calls == [7, big]
    wide = [[1] + [0] * 1000]
    assert 1000 * 1 <= ENUMERATION_BOUND < 1000 * 1001
    assert image_size(wide, 1000) == 1000 and calls == [7, big]
    with pytest.raises(ValueError, match="enumeration infeasible"):
        image_size(wide, 1000, method="enumerate")


def test_image_size_known_values():
    assert image_size([[0, 2, 1], [1, 0, 2], [2, 1, 0]], 3) == 9
    assert image_size([[0, 0], [0, 0]], 5) == 1
    assert image_size([[1, 0], [0, 1]], 6) == 36


def test_image_size_skips_the_closure_past_the_kernels_modulus_bound():
    # N = 3 * 10^9 is past _kernels.MODULUS_BOUND although the image, 1,
    # is far under ENUMERATION_BOUND: the Smith form answers alone.
    n = 3 * 10**9
    assert n >= _kernels.MODULUS_BOUND
    assert image_size([[0]], n) == 1
    with pytest.raises(ValueError, match="enumeration infeasible"):
        image_size([[0]], n, method="enumerate")


def test_image_size_with_a_forged_closure_is_a_defect(monkeypatch):
    """A coset closure one off from the Smith form's prod N / d_i = 9."""
    real = _kernels.image_count
    monkeypatch.setattr(_kernels, "image_count", lambda *a: real(*a) + 1)
    with pytest.raises(InternalDefect, match="coset closure 10, Smith form 9"):
        image_size([[0, 2, 1], [1, 0, 2], [2, 1, 0]], 3)


# -- cyclotomic field -------------------------------------------------------


def test_cycfield_inverse():
    field = CycField(5)
    z = field.from_cycint(CycInt.from_root(RootScalar(5, 1), 5))
    one = field.from_cycint(CycInt.from_int(5, 1))
    x = field.sub(z, field.from_cycint(CycInt.from_int(5, 3)))
    inv = field.inv(x)
    assert field.mul(x, inv) == one
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero())


def test_cycfield_matches_rational_arithmetic():
    field = CycField(1)
    a = field.from_cycint(CycInt.from_int(1, 7))
    b = field.from_cycint(CycInt.from_int(1, -3))
    assert field.mul(a, field.inv(b)) == (Fraction(-7, 3),)
