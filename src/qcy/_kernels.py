"""Numeric kernels, vectorized in numpy.

Two operations: counting the image of an exponent matrix acting on
(Z/N)^m, and row reduction of integer matrices modulo a word-sized prime.
The image is counted by closing the subgroup its columns generate, coset
by coset, so its cost scales with |image| * n rather than with the domain
N^m; it shares no code with the Smith form it cross-checks.  The test
suite checks both kernels against pure-Python oracles, the image against
an enumeration of the whole domain.

The rank takes one of two routes by the density of the matrix mod p.  A
matrix at least a quarter nonzero is reduced by recursive halving over its
longer side, with each block update x - coef @ e done as float64 matrix
products on 16-bit limbs and reduced mod p three times per block, after
Dumas, Giorgi and Pernet (FFLAS-FFPACK).  As there, an update computes
only the live columns (those with a nonzero entry in the block) outside
the pivots found so far: the reduced rows it subtracts hold the identity
in their pivot columns, so those columns of its result are known in
advance, 0 or unchanged.  Limb products are below 2**32,
so float64 sums over an inner size below 2**20 are exact integers; the
route refuses matrices whose shorter side reaches 2**20.  The halving
stops at blocks of 16 rows, which the elimination loop reduces in int64.
A sparser matrix, such as the spans of the brute-force Hilbert oracle,
would fill in under halving.  Its structural pivots, rows alone in some
column, are peeled in array rounds first, after Faugere and Lachartre
(PASCO 2010); the elimination loop, one rank-1 update per pivot on the
rows it hits, takes what is left.  The spans of one element peel whole
when its leading coefficient is nonzero mod p (the row with the greatest
leading monomial is alone in that column); the deficient spans of two
Fermat elements peel nothing.

All modular arithmetic assumes a modulus below 2**31 so that products fit
in int64; the image's mixed-radix codes need N^n <= 2**62.
"""

from __future__ import annotations

import numpy as np

# Every modulus and prime the kernels take lies below this bound, so that a
# product of two residues fits in int64.  The parameter search holds its
# lattice walk and its column merge (cyclo.merge_columns) in int64 arrays
# on the same condition for its modulus M = N lcm(a_j): the walk's boxes
# divide N <= M, so its products stay below 2^62 as well.
MODULUS_BOUND = 2**31


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "numpy"


def image_count(mat, modulus: int) -> int:
    """|{mat . e mod N : e in (Z/N)^m}|, by closing the column subgroup.

    The image is the subgroup S of (Z/N)^n generated by the columns.  Start
    from S = {0}; for each column g find t, its order modulo S (the least
    divisor of N with t.g in S, one sorted-code lookup per divisor), and
    replace S by the t disjoint cosets S + i.g.  Work and memory scale with
    |image| * n, never with the domain N^m, in at most m * d(N) numpy steps.
    Vectors are keyed by mixed-radix codes, so the caller keeps N^n within
    int64 (N^n <= 2**62).
    """
    if not 0 < modulus < MODULUS_BOUND:
        raise ValueError("modulus must fit comfortably in int64 arithmetic")
    h = _int64_matrix(mat) % modulus
    if h.size == 0:
        return 1
    if h.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n = h.shape[0]
    weights = modulus ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # The narrowest type holding a sum of two residues.
    residue = np.min_scalar_type(2 * modulus).type
    orders = _divisors(modulus)
    group = np.zeros((1, n), dtype=residue)
    codes = np.zeros(1, dtype=np.int64)
    for g in h.T:
        for t in orders:
            code = int((t * g) % modulus @ weights)
            at = int(np.searchsorted(codes, code))
            if at < codes.size and codes[at] == code:
                break
        if t == 1:
            continue
        shifts = (np.arange(t)[:, None] * g % modulus).astype(residue)
        group = (group[None, :, :] + shifts[:, None, :]).reshape(-1, n)
        group -= (group >= modulus) * residue(modulus)
        codes = np.sort(group @ weights)
    return int(codes.size)


def _int64_matrix(mat) -> np.ndarray:
    """`mat` as a new int64 array; ValueError when an entry does not fit."""
    try:
        return np.array(mat, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entries must fit in int64") from None


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# Inner sizes below this keep every float64 partial sum of `_sub_product`
# an exact integer (see there).
_INNER_BOUND = 2**20
# Rows of x per block product, so temporaries stay a few row blocks.
_CHUNK = 128
# Blocks of at most this many rows end the halving; their updates would be
# too small for block products to pay.
_LEAF = 16


def modp_rank(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p a prime below 2**31).

    Two routes, chosen by the density of the matrix reduced mod p.  With at
    least a quarter of the entries nonzero, `_rref` reduces it by recursive
    halving with exact float64 block products (see `_sub_product`) down to
    blocks of `_LEAF` rows, which `_eliminate` reduces: elimination fills a
    dense matrix in anyway, and one remainder pass per pivot over the whole
    matrix would be most of its time.  Sparser matrices, such as the spans
    of the brute-force Hilbert oracle, go to `_pivot_rank`, which peels the
    rows alone in some column in array rounds and passes the rest to
    `_eliminate`, touching only the rows a pivot hits, where halving would
    fill their echelon form in.  The halving route raises ValueError when
    min(n, m) >= 2**20, past which its float64 sums could be inexact.
    """
    if not 1 < p < MODULUS_BOUND:
        raise ValueError("prime must fit comfortably in int64 arithmetic")
    a = _int64_matrix(mat)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, m = a.shape
    if n == 0 or m == 0:
        return 0
    # Two comparisons cost less than one int64 remainder pass, and callers
    # such as the Hilbert oracle pass residues already.
    if a.min() < 0 or a.max() >= p:
        a %= p
    nz = a != 0
    if 4 * np.count_nonzero(nz) < a.size:
        return _pivot_rank(a, nz, p)
    del nz
    if min(n, m) >= _INNER_BOUND:
        raise ValueError(
            f"dense matrices need min(n, m) < {_INNER_BOUND} "
            "for exact float64 block products")
    if n < m:
        # Halving recurses over rows; more, shorter rows ran faster.
        a = np.ascontiguousarray(a.T)
    return len(_rref(a, p))


def _pivot_rank(a: np.ndarray, nz: np.ndarray, p: int) -> int:
    """Rank of `a` (entries in [0, p)) with nonzero pattern `nz`, both
    modified in place: structural pivots peeled in array rounds, then the
    elimination loop on what is left.

    Each round counts the nonzeros of every column over the remaining rows.
    A column with one names a row that is nonzero where no other remaining
    row is, so that row is independent of the others and rank(a) = 1 +
    rank(a without it); the distinct named rows are dropped at once.
    Peeling reads only the nonzero pattern, which dropping rows keeps, so
    the rounds run on `nz` and the remainder is gathered once, without the
    columns it has no nonzero in.  When nothing peels, `a` itself is
    eliminated.
    """
    counts = nz.sum(axis=0, dtype=np.int32)
    alive = np.ones(a.shape[0], dtype=bool)
    peeled = 0
    while (single := np.flatnonzero(counts == 1)).size:
        rows = np.unique(nz[:, single].argmax(axis=0))
        alive[rows] = False
        counts -= nz[rows].sum(axis=0, dtype=np.int32)
        nz[rows] = False
        peeled += rows.size
    del nz
    live = np.flatnonzero(counts)
    if peeled:
        a = a[np.ix_(alive, live)]
        live = np.arange(live.size)
    return peeled + len(_eliminate(a, p, live, above=False))


def _eliminate(a: np.ndarray, p: int, live, above: bool) -> list[int]:
    """Row echelon form of `a` (entries in [0, p)) in place; its pivot columns.

    Scans the columns `live`, which must hold every column of `a` with a
    nonzero entry (a zero column stays zero under row operations).  One
    rank-1 update per pivot, on the rows with a nonzero in the pivot
    column: those below it, and those above it as well when `above` is
    set, which leaves the first r rows reduced (see `_rref`).  Entries and
    multipliers are residues below 2**31, so products fit in int64.
    """
    n = a.shape[0]
    cols = []
    for col in live.tolist():
        row = len(cols)
        if row == n:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        pivot = a[row, col:]
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        if above:
            hit = np.nonzero(a[:, col])[0]
            hit = hit[hit != row]
        else:
            hit = np.nonzero(a[row + 1 :, col])[0]
            hit += row + 1
        if hit.size:
            a[hit, col:] = (a[hit, col:] - a[hit, col : col + 1] * pivot) % p
        cols.append(col)
    return cols


def _rref(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form of `a` over F_p in place, by halving rows.

    `a` holds entries in [0, p).  On return its first r rows are reduced:
    row i has a 1 in column cols[i] and every other row a 0 there; the
    remaining rows are zero.  Returns cols, whose length r is the rank.
    Rows are ordered as their pivots were found, not by column.  Blocks of
    at most `_LEAF` rows are reduced by the elimination loop in int64.

    Each block update computes, through `_sub_product`, only the live
    columns outside the pivots found so far.  The reduced rows it subtracts
    hold the identity in their own pivot columns, which the update sets to
    0, and 0 in the pivot columns of the rows updated (the bottom's reduced
    rows in the top's pivots), which it leaves as they are: the same result
    as the full product.
    """
    n = a.shape[0]
    live = a.any(axis=0)
    if not live.any():
        return np.empty(0, dtype=np.intp)
    if n <= _LEAF:
        cols = _eliminate(a, p, np.flatnonzero(live), above=True)
        return np.array(cols, dtype=np.intp)
    h = n // 2
    top, bottom = a[:h], a[h:]
    upper = _rref(top, p)
    r1 = upper.size
    if r1:
        # bottom -= bottom[:, upper] @ top[:r1]: top[:r1, upper] is the
        # identity, so the columns `upper` become 0.
        live[upper] = False
        rest = np.flatnonzero(live)
        coef = bottom[:, upper]
        bottom[:, upper] = 0
        x = bottom[:, rest]
        _sub_product(x, coef, top[:r1, rest], p)
        bottom[:, rest] = x
    lower = _rref(bottom, p)
    r2 = lower.size
    if r2:
        # top[:r1] -= top[:r1, lower] @ bottom[:r2]: bottom[:r2, lower] is
        # the identity and bottom[:r2, upper] is 0, so the columns `lower`
        # become 0 and the columns `upper` keep their identity.
        live[lower] = False
        rest = np.flatnonzero(live)
        coef = top[:r1, lower]
        top[:r1, lower] = 0
        x = top[:r1, rest]
        _sub_product(x, coef, bottom[:r2, rest], p)
        top[:r1, rest] = x
        # Rows r1..h-1 are zero.  The two slices overlap when r1 + r2 > h;
        # numpy copies overlapping operands before assigning.
        a[r1 : r1 + r2] = bottom[:r2]
        a[max(r1 + r2, h) : h + r2] = 0
    return np.concatenate((upper, lower))


def _sub_product(x: np.ndarray, coef: np.ndarray, e: np.ndarray, p: int) -> None:
    """x <- (x - coef @ e) mod p in place, exactly, with float64 products.

    Entries are below 2**31, so each splits into a low 16-bit limb and a
    high limb below 2**15.  A low * low product is below 2**32 and a cross
    product below 2**31, so for inner size k < 2**20 each float64 sum (k
    low products, or the 2k cross products) stays below k * 2**32 <= 2**52
    and is an exact integer.  The three sums (high * high, cross, low * low)
    combine by Horner's rule in 2**16 through int64, below 2**53 at every
    step, with one remainder each.  `_rref` passes only the columns whose
    result it does not know in advance: the live columns outside the pivots
    found so far (see there).
    """
    e_lo = (e & 0xFFFF).astype(np.float64)
    e_hi = (e >> 16).astype(np.float64)
    for i in range(0, x.shape[0], _CHUNK):
        c = coef[i : i + _CHUNK]
        c_lo = (c & 0xFFFF).astype(np.float64)
        c_hi = (c >> 16).astype(np.float64)
        acc = (c_hi @ e_hi).astype(np.int64)
        acc %= p
        acc <<= 16
        acc += (c_hi @ e_lo + c_lo @ e_hi).astype(np.int64)
        acc %= p
        acc <<= 16
        acc += (c_lo @ e_lo).astype(np.int64)
        block = x[i : i + _CHUNK]
        block -= acc
        block %= p
