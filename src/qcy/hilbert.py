"""Hilbert series in factored rational form, and an exact brute-force oracle.

A series is numerator / prod (1 - t^a_i) in one variable t, with the
denominator kept as its list of factors.  Coefficients come from stride
convolution over those factors, never from expanding the rational
function, so every prefix is exact.  Quotienting by a regular element of
degree d multiplies the numerator by (1 - t^d).  The Segre product of two
graded algebras has degree-i piece A_i (x) B_i, so its coefficients are
the products of the two prefixes.  No prefix runs past DEGREE_BOUND.

brute_force_dims recomputes graded dimensions of a quotient from scratch
by linear algebra over Z[zeta_N]: the span of m * f_j is row reduced with
a full-rank certificate modulo a prime p = 1 (mod N), falling back to
exact elimination over Q(zeta_N) when the certificate is inconclusive.
The rows modulo p come from exponent arithmetic alone: the term c x^e of
f_j lands at m + e with the scalar c zeta^s, s the reorder exponent of m
past e, and zeta_N maps to an element of order N mod p.  Only the
fallback builds the rows as CycInt products (qalgebra.multiply); with a
single central element it never runs, since the ring is a domain and the
rows m * f are independent.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import _kernels
from .cyclo import CycField, CycInt
from .errors import InternalDefect
from .qalgebra import AlgebraSpec, SkewPoly, is_central, monomials_of_degree, multiply

# Highest degree a prefix may reach.  The coefficients grow like
# t^(n-1), so a prefix costs more than linear time and memory in the
# degree: `qcy hilbert` on five unit weights takes about 0.6 s and 66 MB
# at 10^5 (1.4 s and 119 MB with two such algebras), and 1.2 s and 133 MB
# at 3 * 10^5.
DEGREE_BOUND = 10**5


class HilbertSeries:
    """numerator / prod (1 - t^a) over the factors a of the denominator.

    `numerator` maps exponent tuples (e,) to nonzero integer coefficients;
    `denominator` is the sorted tuple of factors (a,), each a >= 1.
    """

    def __init__(self, numerator, denominator):
        num = {}
        for exps, c in dict(numerator).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != 1 or exps[0] < 0:
                raise ValueError(f"bad numerator exponent {exps}")
            if c:
                num[exps] = num.get(exps, 0) + int(c)
        den = []
        for exps in denominator:
            exps = tuple(int(e) for e in exps)
            if len(exps) != 1 or exps[0] < 1:
                raise ValueError(f"bad denominator factor {exps}")
            den.append(exps)
        self.numerator = num
        self.denominator = tuple(sorted(den))

    def prefix(self, upto: int) -> tuple[int, ...]:
        """Coefficients of t^0 .. t^upto; 0 <= upto <= DEGREE_BOUND."""
        if not 0 <= upto <= DEGREE_BOUND:
            raise ValueError(
                f"series prefix to degree {upto} is outside "
                f"[0, DEGREE_BOUND = {DEGREE_BOUND}]")
        arr = [0] * (upto + 1)
        for (e,), c in self.numerator.items():
            if e <= upto:
                arr[e] += c
        for (a,) in self.denominator:
            for i in range(a, upto + 1):
                arr[i] += arr[i - a]
        return tuple(arr)


def series_qpoly(weights) -> HilbertSeries:
    """Series of a quantum weighted polynomial ring: 1 / prod (1 - t^a_i).

    The parameters do not enter; only the weights do.
    """
    weights = tuple(int(a) for a in weights)
    if not weights or any(a < 1 for a in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    return HilbertSeries({(0,): 1}, tuple((a,) for a in weights))


def quotient_by_regular(series: HilbertSeries, degree: int) -> HilbertSeries:
    """Multiply the numerator by (1 - t^degree), degree a positive int."""
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"bad quotient degree {degree!r}")
    num = dict(series.numerator)
    for (e,), c in series.numerator.items():
        num[(e + degree,)] = num.get((e + degree,), 0) - c
    return HilbertSeries(num, series.denominator)


def pole_order_at_one(series: HilbertSeries) -> int:
    """Order of the pole of the series at t = 1, read from the factored form.

    Each denominator factor 1 - t^a has a simple zero at t = 1.  The
    numerator's zero there has multiplicity the least k with a nonzero
    Taylor coefficient sum_e c_e C(e, k) at t = 1, so the count needs no
    dense expansion of the numerator.
    """
    if not series.numerator:
        raise ValueError("the zero series has no pole order")
    k = 0
    while not sum(c * comb(e, k) for (e,), c in series.numerator.items()):
        k += 1
    return len(series.denominator) - k


def segre_coefficients(a, b) -> tuple[int, ...]:
    """Dimensions of the Segre product from two prefixes: dim A_i * dim B_i."""
    return tuple(x * y for x, y in zip(a, b))


def difference_degree(values) -> int:
    """Degree of the polynomial taking `values` at consecutive integers.

    The number of finite differences it takes to reach all zeros, minus 1
    (-1 for all zeros).  Exact when there are more values than the degree.
    """
    values = list(values)
    degree = -1
    while any(values):
        values = [y - x for x, y in zip(values, values[1:])]
        degree += 1
    return degree


# -- brute force oracle -----------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_one_mod(order: int, count: int) -> list[int]:
    """Largest `count` primes p = 1 (mod order) below 2**31."""
    top = 2**31 - 1
    p = top - (top - 1) % order
    out = []
    while len(out) < count:
        if _is_probable_prime(p):
            out.append(p)
        p -= order
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _root_of_unity_mod(order: int, p: int) -> int:
    if order == 1:
        return 1
    factors = _prime_factors(order)
    for base in range(2, 1000):
        g = pow(base, (p - 1) // order, p)
        if pow(g, order, p) == 1 and all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise InternalDefect(f"no order-{order} element found modulo {p}")


def _exact_rank(rows: list[dict[int, CycInt]], ncols: int, order: int) -> int:
    """Gaussian elimination over Q(zeta_N) with Fraction coefficients."""
    field = CycField(order)
    dense = []
    for row in rows:
        vec = [field.zero()] * ncols
        for j, c in row.items():
            vec[j] = field.from_cycint(c)
        dense.append(vec)
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(dense)):
            if not field.is_zero(dense[i][col]):
                piv = i
                break
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        inv = field.inv(dense[rank][col])
        pivot_row = dense[rank]
        for i in range(rank + 1, len(dense)):
            if field.is_zero(dense[i][col]):
                continue
            f = field.mul(dense[i][col], inv)
            dense[i] = [
                field.sub(x, field.mul(f, y)) for x, y in zip(dense[i], pivot_row)
            ]
        rank += 1
        if rank == len(dense):
            break
    return rank


def _row_block(spec: AlgebraSpec, monos: np.ndarray, exps: np.ndarray,
               index: dict) -> tuple[np.ndarray, np.ndarray]:
    """Reorder exponents and columns of the rows m * f, m over `monos`.

    x^m times a term c x^e of f is c zeta^s x^(m+e) with s = m . L . e,
    where L is the strict lower triangle of the exponent matrix
    (reorder_scalar, a bicharacter), so s is read off for all pairs at once.
    Entry [r, k] belongs to monomial r and term k; the columns of one row
    are distinct because the terms are.
    """
    lower = np.tril(np.array(spec.exponents, dtype=np.int64), -1)
    scalars = (monos @ lower % spec.order) @ exps.T % spec.order
    cols = np.empty(scalars.shape, dtype=np.int64)
    for k, e in enumerate(exps):
        cols[:, k] = [index[tuple(v)] for v in (monos + e).tolist()]
    return scalars, cols


def _matrix_mod(blocks, ncols: int, p: int, g: int) -> np.ndarray:
    """The span matrix modulo p, zeta_N sent to g; one block per element.

    Each block is (scalars, cols, coeffs) with coeffs the CycInt term
    coefficients of the element.  g^s is computed once per exponent that
    occurs.
    """
    nrows = sum(len(cols) for _, cols, _ in blocks)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    start = 0
    for scalars, cols, coeffs in blocks:
        exponents, where = np.unique(scalars, return_inverse=True)
        powers = np.array([pow(g, int(s), p) for s in exponents], dtype=np.int64)
        values = np.array([c.evaluate_mod(g, p) for c in coeffs], dtype=np.int64)
        rows = np.arange(start, start + len(cols))[:, None]
        mat[rows, cols] = powers[where.reshape(scalars.shape)] * values % p
        start += len(cols)
    return mat


def _certified_rank(blocks, ncols: int, moduli: list[tuple[int, int]]) -> int | None:
    """Full rank certified modulo a prime, or None when no prime certifies.

    `moduli` holds pairs (p, g): a prime p = 1 (mod N) and an element g of
    order N modulo p, the image of zeta_N.  The rank modulo any such prime
    is a lower bound for the true rank, so a full mod-p rank is a
    certificate.
    """
    full = min(sum(len(cols) for _, cols, _ in blocks), ncols)
    for p, g in moduli:
        if _kernels.modp_rank(_matrix_mod(blocks, ncols, p, g), p) == full:
            return full
    return None


def brute_force_dims(spec: AlgebraSpec, quotient, max_degree: int = 12) -> list[int]:
    """Graded dimensions of the quotient by central homogeneous elements.

    Returns [dim_0, ..., dim_max_degree].  Each quotient element must be
    homogeneous and central (centrality makes the degree-t relations
    exactly the span of m * f_j); anything else is rejected.  The rows
    m * f_j are built modulo p from reorder exponents (_row_block); only
    when no prime certifies full rank are they built again as CycInt rows
    by `multiply`, for exact elimination.
    """
    if isinstance(quotient, SkewPoly):
        quotient = [quotient]
    quotient = list(quotient)
    elems = []
    for f in quotient:
        deg = f.homogeneous_degree(spec.weights)
        if deg is None or f.is_zero():
            raise ValueError(
                "brute force needs nonzero homogeneous quotient elements")
        if not is_central(f, spec):
            raise ValueError(
                "brute force supports only central quotient elements; "
                "two-sided ideals of non-central elements are out of scope")
        elems.append((f, deg, np.array(list(f.terms), dtype=np.int64),
                      list(f.terms.values())))
    moduli = [(p, _root_of_unity_mod(spec.order, p))
              for p in _primes_one_mod(spec.order, 2)]
    # Monomials by degree, each list computed once and dropped once no
    # later degree takes rows from it.
    by_degree = {}
    reach = max((deg for _, deg, _, _ in elems), default=0)
    dims = []
    for t in range(max_degree + 1):
        by_degree.pop(t - reach - 1, None)
        cols = by_degree[t] = monomials_of_degree(spec.weights, t)
        index = {e: i for i, e in enumerate(cols)}
        blocks = []
        for f, deg, exps, coeffs in elems:
            if t >= deg and by_degree[t - deg]:
                monos = np.array(by_degree[t - deg], dtype=np.int64)
                blocks.append((*_row_block(spec, monos, exps, index), coeffs))
        rank = _certified_rank(blocks, len(cols), moduli) if blocks else 0
        if rank is None:
            rows = [
                {index[e]: c for e, c in multiply(
                    SkewPoly.monomial(spec.order, mono), f, spec).terms.items()}
                for f, deg, _, _ in elems if t >= deg
                for mono in by_degree[t - deg]]
            rank = _exact_rank(rows, len(cols), spec.order)
        dims.append(len(cols) - rank)
    return dims
