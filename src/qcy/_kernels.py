"""Hot numeric kernels, vectorized in numpy.

Two operations dominate the runtime of the larger computations: counting
the image of an exponent matrix acting on (Z/N)^m, and row reduction of
integer matrices modulo a word-sized prime.  The test suite checks both
against pure-Python oracles.

All mod-p arithmetic assumes p < 2**31 so that products fit in int64.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark provenance."""
    return "numpy"


def image_count(mat, modulus: int) -> int:
    """|{mat . e mod N : e in (Z/N)^m}| by direct enumeration.

    The caller is responsible for keeping N^m (enumeration size) and N^n
    (image encoding) within range.
    """
    h = np.asarray(mat, dtype=np.int64) % modulus
    if h.size == 0:
        return 1
    if h.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, m = h.shape
    total = modulus**m
    idx = np.arange(total, dtype=np.int64)
    digits = np.empty((total, m), dtype=np.int64)
    scale = 1
    for j in range(m):
        digits[:, j] = (idx // scale) % modulus
        scale *= modulus
    images = (digits @ h.T) % modulus
    weights = modulus ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = images @ weights
    return int(np.unique(codes).size)


def modp_rank(mat, p: int) -> int:
    """Rank of an integer matrix over F_p (p an odd prime below 2**31)."""
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
