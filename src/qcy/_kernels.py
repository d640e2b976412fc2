"""Numeric kernels, vectorized in numpy.

Two operations: counting the image of an exponent matrix acting on
(Z/N)^m, and row reduction of integer matrices modulo a word-sized prime.
The image is counted by closing the subgroup its columns generate, coset
by coset, so its cost scales with |image| * max(n, m) rather than with the
domain N^m; it shares no code with the Smith form it cross-checks.  Each
vector of the subgroup is a row of residues padded with zeros to whole
64-bit words, so the uint64 view of the rows is their key: membership is
one scan comparing words, with no code to compute and no sort, and the
cosets of the last column are counted, never built.  The test suite checks
both kernels against pure-Python oracles, the image against an
enumeration of the whole domain.

The rank takes one of two forms.  `modp_rank` takes a matrix and reduces
it by recursive halving over its longer side, with each block update
x - coef @ e done as float64 matrix products on 16-bit limbs and reduced
mod p three times per block, after Dumas, Giorgi and Pernet
(FFLAS-FFPACK).  As there, an update computes only the live columns
(those with a nonzero entry in the block) outside the pivots found so
far: the reduced rows it subtracts hold the identity in their pivot
columns, so those columns of its result are known in advance, 0 or
unchanged.  Limb products are below 2**32, so float64 sums over an inner
size below 2**20 are exact integers; `modp_rank` refuses matrices whose
shorter side reaches 2**20.  The halving stops at blocks of 16 rows,
which the elimination loop reduces in int64.  A sparse matrix would fill
in under halving.  `coordinate_rank` takes one as its nonzero entries
(row, column, value), the form in which the brute-force Hilbert oracle
builds its spans, so that no dense span is built.  Its structural
pivots, rows alone in some column, are peeled in array rounds, after
Faugere and Lachartre (PASCO 2010), and by kept column counts once the
rounds stop paying; only the rows and columns left over are gathered
into a dense matrix for the elimination loop, one rank-1 update per
pivot on the rows it hits.  The spans of one element peel whole at every
prime (the `hilbert` module docstring says why); the deficient spans of
two Fermat elements peel nothing.

All modular arithmetic assumes a modulus below 2**31 so that products fit
in int64, and a sum of two residues fits in the image's residue type.
"""

from __future__ import annotations

import numpy as np

# Every modulus and prime the kernels take lies below this bound, so that a
# product of two residues fits in int64.
MODULUS_BOUND = 2**31


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "numpy"


def image_count(mat, modulus: int) -> int:
    """|{mat . e mod N : e in (Z/N)^m}|, by closing the column subgroup.

    The image is the subgroup S of (Z/N)^n generated by the columns.  Start
    from S = {0}; for each column g find t, its order modulo S (the least
    divisor of N with t.g in S), and replace S by the t disjoint cosets
    S + i.g; |image| is the product of the t's, so the cosets of the last
    column are never built.  S is held as rows of the narrowest unsigned
    type that holds a sum of two residues, each padded with zeros to whole
    64-bit words, so the uint64 view of S gives each row's key at no cost.
    t.g lies in S when some row equals it in every word: one scan of S per
    divisor tried, in increasing order, and none for t = N, as N.g = 0 lies
    in S.  A sum of two residues stays in its lane, so cosets are built by
    adding words.  Work and memory scale with |image| * max(n, m), never
    with the domain N^m.
    """
    if not 0 < modulus < MODULUS_BOUND:
        raise ValueError("modulus must fit comfortably in int64 arithmetic")
    h = _int64_matrix(mat)
    # [] reads as an empty 1-d array: the matrix with no rows
    if h.ndim != 2 and h.shape != (0,):
        raise ValueError("expected a 2-d matrix")
    if h.size == 0:
        return 1
    n, m = h.shape
    residue = np.min_scalar_type(2 * modulus).type
    lanes = 8 // np.dtype(residue).itemsize
    columns = np.zeros((m, -(-n // lanes) * lanes), dtype=np.int64)
    columns[:, :n] = h.T % modulus
    orders = _divisors(modulus)[:-1]
    group = np.zeros((1, columns.shape[1]), dtype=residue)
    count = 1
    for j, g in enumerate(columns):
        keys = group.view(np.uint64)
        for t in orders:
            key = (t * g % modulus).astype(residue).view(np.uint64)
            if (keys == key).all(axis=1).any():
                break
        else:
            t = modulus
        count *= t
        if t == 1 or j == m - 1:
            continue
        shifts = np.arange(t)[:, None] * g
        shifts %= modulus
        shifts = shifts.astype(residue).view(np.uint64)
        group = (keys[None, :, :] + shifts[:, None, :]).reshape(-1, keys.shape[1])
        group = group.view(residue)
        # for x < 2N, x - N wraps above x exactly when x < N: the minimum
        # of the two is x mod N
        np.minimum(group, group - residue(modulus), out=group)
    return count


def _int64_matrix(mat) -> np.ndarray:
    """`mat` as a new int64 array; ValueError when an entry is not an
    integer or does not fit in int64.

    The dtype numpy infers decides: boolean, signed and unsigned arrays are
    taken, and only unsigned ones have their values scanned.  An object
    array (Python integers past int64, or mixed entries) is taken only if
    every entry is an integer.  Every other dtype is refused whole, so is a
    list numpy reads as floats (integers past 2**63 beside negative ones).
    """
    a = np.array(mat)
    kind = a.dtype.kind
    if a.size and kind == "O":
        bad = next((x for x in a.flat if not isinstance(x, (int, np.integer))),
                   None)
        if bad is not None:
            raise ValueError(
                f"matrix entries must be integers, not {type(bad).__name__}")
    elif a.size and kind not in "biu":
        raise ValueError(f"matrix entries must be integers, not {a.dtype}")
    if a.size and kind == "u" and a.max() >= 2**63:
        raise ValueError("matrix entries must fit in int64")
    try:
        return a.astype(np.int64, copy=False)
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

# Rows the coordinate rank takes: a column's sum of distinct row indices
# stays below n**2 / 2 <= 2**51, an exact float64 integer (_peel_counted).
_PEEL_ROW_BOUND = 2**26


def modp_rank(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p a prime below 2**31).

    `_rref` reduces it by recursive halving with exact float64 block
    products (see `_sub_product`) down to blocks of `_LEAF` rows, which
    `_eliminate` reduces.  ValueError when min(n, m) >= 2**20, past which
    the float64 sums could be inexact, and for entries that are not
    integers or lie outside int64.  A sparse matrix fills in under halving;
    `coordinate_rank` takes it as its nonzero entries instead.
    """
    if not 1 < p < MODULUS_BOUND:
        raise ValueError("prime must fit comfortably in int64 arithmetic")
    a = _int64_matrix(mat)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, m = a.shape
    if n == 0 or m == 0:
        return 0
    if min(n, m) >= _INNER_BOUND:
        raise ValueError(
            f"dense matrices need min(n, m) < {_INNER_BOUND} "
            "for exact float64 block products")
    # Two comparisons cost less than one int64 remainder pass.
    if a.min() < 0 or a.max() >= p:
        a %= p
    if n < m:
        # Halving recurses over rows; more, shorter rows ran faster.
        a = np.ascontiguousarray(a.T)
    return len(_rref(a, p))


def coordinate_rank(rows, cols, values, shape, p: int) -> int:
    """Rank over F_p (p a prime below 2**31) of the matrix of `shape` whose
    entry at (rows[k], cols[k]) is values[k] and which is zero elsewhere.

    The three are int64 arrays of one length, the positions distinct and
    the values residues in [0, p); entries not in row order are sorted
    into it, and zero values are dropped.  A column with one entry left
    names a row that is nonzero where no other remaining row is, so that
    row is independent of the others and rank = 1 + rank(the matrix
    without it); such structural pivots are peeled in rounds, the
    distinct named rows dropped at once.  A round counts the entries of
    every column over the entries left (`np.bincount`) and keeps the rest.
    That costs a pass over the entries left, so once a round removes fewer
    than half of them, `_peel_counted` finishes at a cost per round of the
    columns and the entries it drops.  Only the rows and columns left with
    an entry are gathered into a dense matrix, for the elimination loop;
    when every row peels, none is built.  ValueError when n >= 2**26 (see
    `_peel_counted`).
    """
    n, m = shape
    if n >= _PEEL_ROW_BOUND:
        raise ValueError(f"the coordinate rank needs fewer than "
                         f"{_PEEL_ROW_BOUND} rows for exact float64 row sums")
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
    keep = values != 0
    # rounds replace r and c, never write to them
    r, c = (rows, cols) if keep.all() else (rows[keep], cols[keep])
    dropped = np.zeros(n, dtype=bool)
    while r.size:
        alone = (np.bincount(c, minlength=m) == 1)[c]
        if not alone.any():
            break
        dropped[r[alone]] = True
        size, left = r.size, ~dropped[r]
        r, c = r[left], c[left]
        if 2 * r.size > size:
            _peel_counted(r, c, m, dropped)
            left = ~dropped[r]
            r, c = r[left], c[left]
            break
    peeled = int(np.count_nonzero(dropped))
    if not r.size:
        return peeled
    v = values[keep & ~dropped[rows]]
    live_rows, r = np.unique(r, return_inverse=True)
    live_cols, c = np.unique(c, return_inverse=True)
    a = np.zeros((live_rows.size, live_cols.size), dtype=np.int64)
    a[r, c] = v
    return peeled + len(_eliminate(a, p, np.arange(live_cols.size), above=False))


def _peel_counted(r, c, m: int, dropped) -> None:
    """Peel the structural pivots of the entries (r, c), in row order over
    m columns and none in a row set in `dropped`, marking the rows peeled
    in `dropped`.

    Each column's count of live entries and the sum of their rows are kept,
    so a column with one entry names its row by the sum.  The entries of
    the rows a round drops, one run of r each, are taken off both, so a
    round costs its columns and those entries, not a pass over every entry
    left.  Sums are float64 (`np.bincount`'s weights), exact below 2**53
    for n < _PEEL_ROW_BOUND.
    """
    counts = np.bincount(c, minlength=m)
    sums = np.bincount(c, weights=r, minlength=m)
    row_len = np.bincount(r, minlength=dropped.size)
    row_end = np.cumsum(row_len)
    while (single := np.flatnonzero(counts == 1)).size:
        new = np.unique(sums[single].astype(np.int64))
        dropped[new] = True
        # the positions of the new rows' entries, run after run
        lengths = row_len[new]
        stop = np.cumsum(lengths)
        at = np.repeat(row_end[new] - stop, lengths) + np.arange(stop[-1])
        counts -= np.bincount(c[at], minlength=m)
        sums -= np.bincount(c[at], weights=r[at], minlength=m)


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
