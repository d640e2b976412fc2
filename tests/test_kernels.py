"""The numpy kernels against pure-Python oracles."""

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


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_backends_agree(n, m, data):
    p = data.draw(st.sampled_from((2, 3, 7, 97, 2 ** 31 - 1)))
    mat = [[data.draw(st.integers(0, min(p - 1, 50))) for _ in range(m)]
           for _ in range(n)]
    assert _kernels.modp_rank(mat, p) == rank_oracle(mat, p)


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
