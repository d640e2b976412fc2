"""The numpy kernels against pure-Python oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy import _kernels


def rank_oracle(mat, p):
    """Fraction-free Gaussian elimination over GF(p), row by row."""
    rows = [[x % p for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv % p
                rows[r] = [(a - factor * b) % p
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def image_oracle(mat, modulus):
    from itertools import product
    m = len(mat[0]) if mat else 0
    return len({
        tuple(sum(row[j] * v[j] for j in range(m)) % modulus for row in mat)
        for v in product(range(modulus), repeat=m)})


def kernel_oracle(mat, modulus):
    """Number of e in (Z/N)^m with mat . e = 0 mod N."""
    from itertools import product
    m = len(mat[0])
    return sum(
        all(sum(row[j] * v[j] for j in range(m)) % modulus == 0 for row in mat)
        for v in product(range(modulus), repeat=m))


@given(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9, 12)), st.integers(1, 5),
       st.integers(1, 5), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_image_count_backends_agree(modulus, n, m, dependent, data):
    while modulus ** m > 1024:
        m -= 1
    entry = st.integers(0, modulus - 1)
    mat = [[data.draw(entry) for _ in range(m)] for _ in range(n)]
    if dependent and m > 1:
        # the last column a combination of the others adds nothing
        coeffs = [data.draw(entry) for _ in range(m - 1)]
        for row in mat:
            row[-1] = sum(c * x for c, x in zip(coeffs, row)) % modulus
    count = _kernels.image_count(mat, modulus)
    assert count == image_oracle(mat, modulus)
    assert count * kernel_oracle(mat, modulus) == modulus ** m


PRIMES = (2, 3, 7, 97, 65537, 2_147_483_629, 2 ** 31 - 1)


def assert_reduced(a, cols):
    """Rows 0..r-1 hold a 1 at their pivot and every other row a 0 there."""
    r = len(cols)
    assert len(set(int(c) for c in cols)) == r
    assert (a[:, cols] == np.eye(a.shape[0], r, dtype=np.int64)).all()
    assert not a[r:].any()


def assert_routes_agree(mat, p):
    """modp_rank, both of its routes called directly and the oracle agree."""
    expected = rank_oracle(mat, p)
    assert _kernels.modp_rank(mat, p) == expected
    reduced = np.array(mat, dtype=np.int64) % p
    assert _kernels._pivot_rank(reduced.copy(), p) == expected
    a = reduced.copy()
    cols = _kernels._rref(a, p)
    assert len(cols) == expected
    assert_reduced(a, cols)
    # the reduced rows span the rows of the matrix
    assert rank_oracle(reduced.tolist() + a[:expected].tolist(), p) == expected


@given(st.integers(1, 12), st.integers(1, 20), st.sampled_from(PRIMES),
       st.sampled_from((0.0, 0.5, 0.8)), st.data())
@settings(max_examples=300, deadline=None)
def test_rank_backends_agree(n, m, p, sparsity, data):
    # entries over all of (-p, 2p), so both 16-bit limbs are exercised;
    # `sparsity` zeros push some matrices onto the pivot loop
    entry = st.integers(-p + 1, 2 * p - 1)
    mat = [[0 if data.draw(st.floats(0, 1)) < sparsity else data.draw(entry)
            for _ in range(m)] for _ in range(n)]
    assert_routes_agree(mat, p)


def _dense(rng, n, m, p):
    return rng.integers(0, p, size=(n, m), dtype=np.int64)


def _fixed_cases():
    rng = np.random.default_rng(7)
    p = 2_147_483_629
    zero_top = np.vstack((np.zeros((4, 9), dtype=np.int64), _dense(rng, 5, 9, p)))
    base = _dense(rng, 4, 10, p)
    cases = [
        ("all-zero", np.zeros((6, 8), dtype=np.int64), p, 0),
        ("one-row", _dense(rng, 1, 12, p), p, 1),
        ("one-column", _dense(rng, 12, 1, p), p, 1),
        ("zero-top-half", zero_top, p, 5),
        ("duplicated-rows", np.vstack((base, base, base[::-1])), p, 4),
        ("all-p-minus-1", np.full((300, 300), 2 ** 31 - 2, dtype=np.int64),
         2 ** 31 - 1, 1),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("mat, p, rank", _fixed_cases())
def test_rank_fixed_cases(mat, p, rank):
    assert _kernels.modp_rank(mat, p) == rank
    assert _kernels._pivot_rank(mat % p, p) == rank
    a = mat % p
    cols = _kernels._rref(a, p)
    assert len(cols) == rank
    assert_reduced(a, cols)
    assert rank_oracle(mat.tolist(), p) == rank


def _known_rank(rng, shape, rank, p):
    """rank independent rows holding I_rank in some columns; the other rows
    combinations of those."""
    rows, cols = shape
    c = _dense(rng, rank, cols, p)
    c[:, rng.choice(cols, size=rank, replace=False)] = np.eye(rank, dtype=np.int64)
    mat = np.empty(shape, dtype=np.int64)
    pivots = rng.choice(rows, size=rank, replace=False)
    mat[pivots] = c
    others = np.setdiff1d(np.arange(rows), pivots)
    mat[others] = rng.integers(0, 100, size=(len(others), rank)) @ c % p
    return mat


def test_dense_rank_peak_memory():
    p = 2_147_483_629
    mat = _known_rank(np.random.default_rng(3), (320, 1600), 256, p)
    tracemalloc.start()
    try:
        rank = _kernels.modp_rank(mat, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 256
    assert peak <= 2.5 * mat.nbytes


def test_dense_route_refuses_past_its_exactness_bound(monkeypatch):
    monkeypatch.setattr(_kernels, "_INNER_BOUND", 4)
    dense = [[1, 2, 3, 4], [5, 6, 7, 8], [1, 1, 2, 3], [2, 1, 1, 1]]
    with pytest.raises(ValueError, match="min"):
        _kernels.modp_rank(dense, 97)
    # a sparser matrix (a fifth nonzero) keeps the pivot loop
    assert _kernels.modp_rank(np.eye(4, 5, dtype=np.int64), 97) == 4


def test_modp_rank_validates_modulus():
    with pytest.raises(ValueError):
        _kernels.modp_rank([[1]], 1)
    with pytest.raises(ValueError):
        _kernels.modp_rank([[1]], 2 ** 31)


def test_image_count_validates_modulus():
    with pytest.raises(ValueError):
        _kernels.image_count([[1]], 2 ** 31)


def test_image_count_empty_dimensions():
    assert _kernels.image_count([], 5) == 1
    assert _kernels.image_count([[]], 5) == 1
