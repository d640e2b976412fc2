"""Numeric kernels, vectorized in numpy.

Two operations: counting the image of an exponent matrix acting on
(Z/N)^m, and row reduction of integer matrices modulo a word-sized prime.
The image is counted by closing the subgroup its columns generate, coset
by coset, so its cost scales with |image| * n rather than with the domain
N^m; it shares no code with the Smith form it cross-checks.  The test
suite checks both kernels against pure-Python oracles, the image against
an enumeration of the whole domain.

All modular arithmetic assumes a modulus below 2**31 so that products fit
in int64; the image's mixed-radix codes need N^n <= 2**62.
"""

from __future__ import annotations

import numpy as np


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
    h = np.asarray(mat, dtype=np.int64) % modulus
    if h.size == 0:
        return 1
    if h.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not 0 < modulus < 2**31:
        raise ValueError("modulus must fit comfortably in int64 arithmetic")
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


def modp_rank(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p a prime below 2**31)."""
    if not 1 < p < 2**31:
        raise ValueError("prime must fit comfortably in int64 arithmetic")
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, m = a.shape
    if n == 0 or m == 0:
        return 0
    row = 0
    for col in range(m):
        if row == n:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row, col:] = a[row, col:] * inv % p
        below = a[row + 1 :, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            a[row + 1 + hit, col:] = (
                a[row + 1 + hit, col:] - below[hit, None] * a[row, col:]
            ) % p
        row += 1
    return row
