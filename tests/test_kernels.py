"""The numpy kernels against pure-Python oracles."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcy import _kernels, hilbert
from qcy.qalgebra import fermat

from helpers import SPEC4, image_brute, spy_eliminate


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
    assert count == len(image_brute(mat, modulus))
    assert count * kernel_oracle(mat, modulus) == modulus ** m


PRIMES = (2, 3, 7, 97, 65537, 2_147_483_629, 2 ** 31 - 1)


def assert_reduced(a, cols):
    """Rows 0..r-1 hold a 1 at their pivot and every other row a 0 there."""
    r = len(cols)
    assert len(set(int(c) for c in cols)) == r
    assert (a[:, cols] == np.eye(a.shape[0], r, dtype=np.int64)).all()
    assert not a[r:].any()


def coordinate_rank(mat, p):
    """The coordinate rank, on the nonzero entries of the matrix reduced
    mod p."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = np.nonzero(a)
    return _kernels.coordinate_rank(rows, cols, a[rows, cols], a.shape, p)


def assert_routes_agree(mat, p):
    """modp_rank, the halving it runs called directly, the coordinate rank
    and the oracle agree."""
    expected = rank_oracle(mat, p)
    assert _kernels.modp_rank(mat, p) == expected
    reduced = np.array(mat, dtype=np.int64) % p
    assert coordinate_rank(reduced, p) == expected
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
    # `sparsity` zeros leave columns alone for the coordinate rank to peel
    entry = st.integers(-p + 1, 2 * p - 1)
    mat = [[0 if data.draw(st.floats(0, 1)) < sparsity else data.draw(entry)
            for _ in range(m)] for _ in range(n)]
    assert_routes_agree(mat, p)


def _dense(rng, n, m, p):
    return rng.integers(0, p, size=(n, m), dtype=np.int64)


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


def _full_range(rng, mat, p):
    """The same matrix mod p with entries spread over (-p, 2p)."""
    return mat + p * rng.integers(-1, 2, size=mat.shape)


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
    # Leaves of the halving hold at most 16 rows; 17 rows and more reach
    # the block products between them.  130 and 260 rows halve three and
    # four times, with r1 + r2 > h, the overlapping write-back, on two
    # levels and on four.
    for rows, cols, rank in ((15, 20, 15), (16, 20, 16), (17, 20, 17),
                             (17, 20, 9), (33, 40, 20), (100, 60, 60),
                             (100, 60, 45), (130, 40, 40), (260, 90, 70)):
        mat = _known_rank(rng, (rows, cols), rank, p)
        cases.append((f"{rows}-rows-rank-{rank}", _full_range(rng, mat, p), p, rank))
    # Dense matrices with zero columns: in the whole matrix, and only in its
    # top half, where the bottom's pivots may fall in columns the top's
    # blocks hold no nonzero in.
    zero_block = np.zeros((100, 60), dtype=np.int64)
    zero_block[:, np.r_[:20, 35:60]] = _known_rank(rng, (100, 45), 30, p)
    cases.append(("zero-column-block", _full_range(rng, zero_block, p), p, 30))
    zero_top_columns = _dense(rng, 100, 60, p)
    zero_top_columns[:50, 10:30] = 0
    cases.append(("zero-columns-in-top-half", zero_top_columns, p, 60))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("mat, p, rank", _fixed_cases())
def test_rank_fixed_cases(mat, p, rank, monkeypatch):
    updates = _spy_sub_product(monkeypatch)
    assert _kernels.modp_rank(mat, p) == rank
    assert_routes_agree(mat.tolist(), p)
    # every column an update computes can change: it has a nonzero in the
    # rows updated or in the rows subtracted
    assert not any(u.dead_columns for u in updates)


@given(st.integers(17, 64), st.integers(1, 32), st.sampled_from(PRIMES),
       st.integers(0, 32), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_routes_agree_past_one_leaf(n, m, p, rank, seed):
    # more rows than one 16-row leaf, of a known rank at most min(n, m)
    rng = np.random.default_rng(seed)
    mat = _known_rank(rng, (n, m), min(rank, n, m), p)
    assert_routes_agree(_full_range(rng, mat, p).tolist(), p)


class _Update(NamedTuple):
    madds: int  # x.shape[0] * x.shape[1] * coef.shape[1]
    pivot_columns: int  # columns of e that are a unit vector, 1 at one row
    dead_columns: int  # columns zero in both x and e


def _spy_sub_product(monkeypatch):
    """Record every block update of the dense route, before it runs."""
    updates = []
    sub_product = _kernels._sub_product

    def spy(x, coef, e, p):
        unit = (np.count_nonzero(e, axis=0) == 1) & (e.sum(axis=0) == 1)
        dead = ~(x.any(axis=0) | e.any(axis=0))
        updates.append(_Update(x.shape[0] * x.shape[1] * coef.shape[1],
                               int(unit.sum()), int(dead.sum())))
        sub_product(x, coef, e, p)

    monkeypatch.setattr(_kernels, "_sub_product", spy)
    return updates


def test_dense_rank_updates_skip_the_pivot_columns(monkeypatch):
    # The reduced rows an update subtracts hold the identity in their pivot
    # columns, so the result there is known and not computed.  Over all
    # columns, as before, the same 45 updates took 130,047,360 multiply-adds.
    updates = _spy_sub_product(monkeypatch)
    p = 2_147_483_629
    mat = _known_rank(np.random.default_rng(3), (320, 1600), 256, p)
    assert _kernels.modp_rank(mat, p) == 256
    assert len(updates) == 45
    assert not any(u.pivot_columns for u in updates)
    assert sum(u.madds for u in updates) == 32_825_097


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


# -- structural pivots --------------------------------------------------------


def _chain(rng, n, p):
    """n x (n + 1), row i nonzero in columns i and i + 1 only.  Its two end
    columns have one nonzero each, so it peels from both ends, two rows a
    round."""
    t = np.zeros((n, n + 1), dtype=np.int64)
    i = np.arange(n)
    t[i, i] = rng.integers(1, p, size=n)
    t[i, i + 1] = rng.integers(1, p, size=n)
    return t


def _doubled(rng, k, m, p):
    """k sparse rows (at most three nonzeros each) over m columns, then a
    nonzero multiple of each, so no column has exactly one nonzero."""
    base = np.zeros((k, m), dtype=np.int64)
    width = min(3, m)
    for row in base:
        row[rng.choice(m, size=width, replace=False)] = rng.integers(1, p, size=width)
    scales = rng.integers(1, p, size=(k, 1))
    return np.vstack((base, base * scales % p)), base


def _shuffled(rng, mat, p):
    """mat with rows and columns permuted and entries spread over (-p, 2p)."""
    mat = mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
    return _full_range(rng, mat, p)


def test_chain_peels_over_several_rounds(monkeypatch):
    shapes = spy_eliminate(monkeypatch)
    p = 2_147_483_629
    rng = np.random.default_rng(5)
    mat = _shuffled(rng, _chain(rng, 40, p), p)
    assert coordinate_rank(mat, p) == 40 == rank_oracle(mat.tolist(), p)
    # every row peeled, so the loop is never called
    assert shapes == []
    assert _kernels.modp_rank(mat, p) == 40


def test_rounds_that_remove_little_hand_over_to_kept_counts(monkeypatch):
    # The chain's first round drops its two end rows, 4 of its 80 entries,
    # so the counted peel takes the 76 left and drops the other 38 rows.
    calls = []
    peel = _kernels._peel_counted

    def spy(r, c, m, dropped):
        before = int(np.count_nonzero(dropped))
        peel(r, c, m, dropped)
        calls.append((r.size, before, int(np.count_nonzero(dropped))))

    monkeypatch.setattr(_kernels, "_peel_counted", spy)
    shapes = spy_eliminate(monkeypatch)
    p = 65537
    rng = np.random.default_rng(4)
    mat = _shuffled(rng, _chain(rng, 40, p), p)
    assert coordinate_rank(mat, p) == 40
    assert calls == [(76, 2, 40)]
    assert shapes == []


def test_doubled_rows_peel_nothing(monkeypatch):
    shapes = spy_eliminate(monkeypatch)
    p = 65537
    rng = np.random.default_rng(6)
    doubled, base = _doubled(rng, 20, 60, p)
    mat = _shuffled(rng, doubled, p)
    rank = rank_oracle(base.tolist(), p)
    assert coordinate_rank(mat, p) == rank == rank_oracle(mat.tolist(), p)
    # every row reaches the loop, on the columns that hold a nonzero
    assert shapes == [(mat.shape[0], np.count_nonzero(doubled.any(axis=0)))]
    assert _kernels.modp_rank(mat, p) == rank


def test_peeled_rows_leave_a_deficient_remainder(monkeypatch):
    shapes = spy_eliminate(monkeypatch)
    p = 2**31 - 1
    rng = np.random.default_rng(8)
    chain = _chain(rng, 30, p)
    doubled, base = _doubled(rng, 12, 40, p)
    mat = np.zeros((30 + 24, 31 + 40), dtype=np.int64)
    mat[:30, :31] = chain
    mat[30:, 31:] = doubled
    mat = _shuffled(rng, mat, p)
    rank = 30 + rank_oracle(base.tolist(), p)
    assert rank < mat.shape[0]
    assert coordinate_rank(mat, p) == rank == rank_oracle(mat.tolist(), p)
    # the chain peels; the doubled rows reach the loop, on their own columns
    assert shapes == [(24, np.count_nonzero(doubled.any(axis=0)))]
    assert _kernels.modp_rank(mat, p) == rank


@pytest.mark.parametrize("p", (7, 65537, 2**31 - 1))
def test_peeling_reads_entries_mod_p(p):
    # Column 0 holds p and -p, zero mod p.  Read unreduced, it would name
    # row 0 a structural pivot; reduced, row 0 equals row 1 and row 2 is 0.
    mat = np.zeros((3, 12), dtype=np.int64)
    mat[0, :2] = p, 1
    mat[1, 1] = 1
    mat[2, 0], mat[2, 3] = -p, 2 * p
    assert _kernels.modp_rank(mat, p) == 1 == rank_oracle(mat.tolist(), p)
    assert coordinate_rank(mat, p) == 1


@given(st.integers(0, 24), st.integers(0, 10), st.integers(1, 30),
       st.sampled_from(PRIMES[2:]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_structured_sparse_ranks(chain, k, m, p, seed):
    # a chain that peels beside doubled rows that do not, shuffled
    rng = np.random.default_rng(seed)
    doubled, _ = _doubled(rng, k, m, p)
    mat = np.zeros((chain + 2 * k, chain + 1 + m), dtype=np.int64)
    mat[:chain, : chain + 1] = _chain(rng, chain, p)
    mat[chain:, chain + 1 :] = doubled
    mat = _shuffled(rng, mat, p)
    expected = rank_oracle(mat.tolist(), p)
    assert _kernels.modp_rank(mat, p) == expected
    assert coordinate_rank(mat, p) == expected


def test_sparse_rank_peak_memory(monkeypatch):
    # the Hilbert oracle's largest span of the running example to degree 24
    spans = []
    coordinate_rank = _kernels.coordinate_rank

    def spy(rows, cols, values, shape, p):
        spans.append((rows, cols, values, shape, p))
        return coordinate_rank(rows, cols, values, shape, p)

    monkeypatch.setattr(_kernels, "coordinate_rank", spy)
    hilbert.brute_force_dims(SPEC4, fermat(SPEC4), 24)
    monkeypatch.undo()
    rows, cols, values, shape, p = spans[-1]
    assert shape == (385, 819)
    assert 4 * np.count_nonzero(values) < shape[0] * shape[1]
    tracemalloc.start()
    try:
        rank = _kernels.coordinate_rank(rows, cols, values, shape, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 385
    held = rows.nbytes + cols.nbytes + values.nbytes
    assert peak <= 1.5 * held
    # a fiftieth of the span as a dense int64 matrix
    assert 50 * peak < 8 * shape[0] * shape[1]


@given(st.integers(0, 24), st.integers(0, 8), st.integers(1, 20),
       st.integers(0, 6), st.integers(0, 12), st.sampled_from(PRIMES),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_coordinate_rank_equals_the_dense_rank(chain, k, m, empty, zeros, p,
                                               seed):
    # A chain that peels over several rounds beside doubled rows that do
    # not, and `empty` rows without a nonzero, shuffled; given as
    # coordinates in shuffled order, with `zeros` zero values among them.
    rng = np.random.default_rng(seed)
    doubled, _ = _doubled(rng, k, m, p)
    mat = np.zeros((chain + 2 * k + empty, chain + 1 + m), dtype=np.int64)
    mat[:chain, : chain + 1] = _chain(rng, chain, p)
    mat[chain : chain + 2 * k, chain + 1 :] = doubled
    mat = mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
    rows, cols = np.nonzero(mat)
    zero_rows, zero_cols = np.nonzero(mat == 0)
    pick = rng.choice(zero_rows.size, size=min(zeros, zero_rows.size),
                      replace=False)
    rows = np.concatenate((rows, zero_rows[pick]))
    cols = np.concatenate((cols, zero_cols[pick]))
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    values = mat[rows, cols]
    rank = _kernels.coordinate_rank(rows, cols, values, mat.shape, p)
    assert rank == _kernels.modp_rank(mat, p) == rank_oracle(mat.tolist(), p)


def test_dense_route_refuses_past_its_exactness_bound(monkeypatch):
    monkeypatch.setattr(_kernels, "_INNER_BOUND", 4)
    dense = [[1, 2, 3, 4], [5, 6, 7, 8], [1, 1, 2, 3], [2, 1, 1, 1]]
    with pytest.raises(ValueError, match="min"):
        _kernels.modp_rank(dense, 97)
    # a sparse one as well: the coordinate rank takes it, with no such bound
    eye = np.eye(4, 5, dtype=np.int64)
    with pytest.raises(ValueError, match="min"):
        _kernels.modp_rank(eye, 97)
    assert coordinate_rank(eye, 97) == 4


def test_coordinate_rank_refuses_rows_past_its_exactness_bound():
    # the column sums of row indices must stay exact float64 integers
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="fewer than 67108864 rows"):
        _kernels.coordinate_rank(empty, empty, empty, (2**26, 1), 97)


def test_modp_rank_validates_modulus():
    with pytest.raises(ValueError):
        _kernels.modp_rank([[1]], 1)
    with pytest.raises(ValueError):
        _kernels.modp_rank([[1]], 2 ** 31)
    with pytest.raises(ValueError, match="entries must fit in int64"):
        _kernels.modp_rank([[2 ** 64]], 7)


@pytest.mark.parametrize("kernel", [_kernels.modp_rank, _kernels.image_count])
def test_kernels_refuse_entries_that_are_not_int64(kernel):
    # floats were truncated (modp_rank([[0.5]], 7) read 0, image_count of
    # [[0.5, 1.5]] mod 4 counted [[0, 1]]) and unsigned values past 2^63
    # wrapped to negatives
    for mat in ([[0.5]], [[0.5, 1.5]], np.array([[1.0, 2.0]]), [[1j]]):
        with pytest.raises(ValueError, match="must be integers, not"):
            kernel(mat, 7)
    for mat in ([[2**63 + 5]], np.array([[3, 2**63]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="entries must fit in int64"):
            kernel(mat, 7)
    # a list numpy reads as floats, an entry past 2^63 beside a negative one
    with pytest.raises(ValueError, match="must be integers, not float64"):
        kernel([[2**63 + 5, -1]], 7)
    # an object array is read entry by entry: floats are refused, and
    # integers past int64 as well
    with pytest.raises(ValueError, match="must be integers, not float"):
        kernel(np.array([[1, 0.5]], dtype=object), 7)
    with pytest.raises(ValueError, match="entries must fit in int64"):
        kernel(np.array([[1, 2**70]], dtype=object), 7)
    # and strings are refused whole
    with pytest.raises(ValueError, match="must be integers, not <U1"):
        kernel(np.array([["1"]]), 7)
    # unsigned, boolean and object input below the bound is accepted
    assert kernel(np.array([[2**63 - 1, 1]], dtype=np.uint64), 7) == \
        kernel([[2**63 - 1, 1]], 7)
    assert kernel(np.array([[True, False]]), 7) == kernel([[1, 0]], 7)
    assert kernel(np.array([[3, 1]], dtype=object), 7) == kernel([[3, 1]], 7)


def test_image_count_validates_modulus():
    # checked before the matrix is reduced by it
    for mat, modulus in (([[1]], 2 ** 31), ([[1]], 0), ([[1]], -3),
                         ([[1]], 2 ** 70), ([], 0)):
        with pytest.raises(ValueError, match="modulus"):
            _kernels.image_count(mat, modulus)


def test_image_count_empty_dimensions():
    assert _kernels.image_count([], 5) == 1
    assert _kernels.image_count([[]], 5) == 1
