"""Hilbert series in factored rational form, and an exact brute-force oracle.

A series is numerator / prod (1 - t^a_i) in one variable t, with the
denominator kept as its list of factors.  Coefficients come from stride
convolution over those factors, never from expanding the rational
function, so every prefix is exact.  Quotienting by a regular element of
degree d multiplies the numerator by (1 - t^d).  The Segre product of two
graded algebras has degree-i piece A_i (x) B_i, so its coefficients are
the products of the two prefixes.  No prefix runs past DEGREE_BOUND.

brute_force_dims recomputes graded dimensions of a quotient from scratch
by linear algebra over Z[zeta_N], with one rank rule: the rank of the
span of m * f_j is the largest of its ranks modulo primes p = 1 (mod N),
zeta_N sent to an element g of order N.  Reducing at the prime ideal
P = (p, zeta - g) never raises the rank, and lowers it only if every
nonzero maximal minor D lies in P, so p divides the nonzero integer N(D).
Hadamard's inequality in each of the phi(N) embeddings, with
|sigma(c)| <= |c|_1, bounds |N(D)| by B = prod over rows of (sum of |c|_1^2
over the row's terms)^(phi(N)/2).  So the primes are tried until one gives
full rank or their product passes B; then one of them kept the rank.  The
rows modulo p come from exponent arithmetic alone: the term c x^e of f_j
lands at m + e with the scalar c zeta^s, s the reorder exponent of m past
e.  A span reaches the rank as coordinates, one entry (row, column, value)
per row and term, and is never built as a dense matrix: the rank peels
its rows alone in some column (_kernels.coordinate_rank) and builds a
dense matrix only of what is left.  The rows of a single element peel
whole at every prime.  Modulo P row m is nonzero exactly at m + e over the
terms e whose coefficient is nonzero mod P, as zeta^s is a unit; the
lexicographic order is preserved by addition, so among any rows left the
one with the greatest m is alone in column m + e*, e* the greatest such
term.  So the first prime gives full rank unless it sends every
coefficient to 0, and only a quotient of two or more elements can leave
rows for elimination (_price).

The monomials of all degrees up to the top one are built once per call as
one int64 array (monomials_up_to).  Each gets a mixed-radix code
that orders monomials lexicographically and adds under multiplication, so
the column of m + e is found for all rows and terms at once by a sorted
search of code(m) + code(e).  A call priced above ORACLE_CELL_BOUND is
refused before any monomial is built.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import _kernels
from .cyclo import _integer
from .errors import InternalDefect
from .qalgebra import AlgebraSpec, SkewPoly, is_central

# Highest degree a prefix may reach.  The coefficients grow like
# t^(n-1), so a prefix costs more than linear time and memory in the
# degree: `qcy hilbert` on five unit weights takes about 0.6 s and 66 MB
# at 10^5 (1.4 s and 119 MB with two such algebras), and 1.2 s and 133 MB
# at 3 * 10^5.
DEGREE_BOUND = 10**5

# Most int64 cells brute_force_dims may hold at once, priced from the
# monomial counts before any work (_price); 1.2 GB.  Peak RSS over the
# interpreter's near the bound, on a 2 vCPU Intel Xeon: the degree-8 span
# of four quadrics in eight variables, 6,864 x 6,435 (priced 133 million
# cells, 1,016 MiB, nearly all for the dense remainder peeling may leave),
# 356 MiB and 2.9-3.5 s per rank mod p (a deficient span takes one such
# rank per prime until the norm bound is passed).  Single elements, the
# largest degrees admitted: the quintic in five unit variables to 65
# (priced 1,141 MiB, nearly all the table), 1,064 MiB in 9-11 s; the
# slowest found, the element with all 861 monomials of degree 40 in three
# unit variables to 220 (priced 1,138 MiB), 1,067 MiB in 83-122 s, as its
# spans peel over about 120 rounds.  On a 2 vCPU AMD EPYC, tables with
# spans of one row, priced 134-149 million cells (1,027-1,137 MiB):
# 1,009-1,011 MiB in 0.5-0.8 s for weights (1, 1) to degree 5,751,
# (1, 100) to 57,380 and (100, 1) to 57,402; 1,105 MiB in 1.1 s for
# (1, 1, 1, 6, 9) to 139 and 1,017 MiB for (9, 6, 1, 1, 1) to 141; 1,030
# MiB for (1, 1, 2, 2) to 185; 1,010 MiB for eight unit weights to 23.
ORACLE_CELL_BOUND = 15 * 10**7


class HilbertSeries:
    """numerator / prod (1 - t^a) over the factors a of the denominator.

    `numerator` maps exponents e >= 0 to nonzero integer coefficients;
    `denominator` is the sorted tuple of factors a, each a >= 1.  Every
    exponent, coefficient and factor must be an integer (ValueError
    otherwise), so distinct keys are distinct exponents, and zero
    coefficients are dropped.
    """

    def __init__(self, numerator, denominator):
        num = {}
        for e, c in dict(numerator).items():
            e, c = _integer(e, "numerator exponent"), _integer(c, "numerator coefficient")
            if e < 0:
                raise ValueError(f"bad numerator exponent {e}")
            if c:
                num[e] = c
        den = tuple(sorted(_integer(a, "denominator factor") for a in denominator))
        if den and den[0] < 1:
            raise ValueError(f"bad denominator factor {den[0]}")
        self.numerator = num
        self.denominator = den

    def prefix(self, upto: int) -> tuple[int, ...]:
        """Coefficients of t^0 .. t^upto; 0 <= upto <= DEGREE_BOUND."""
        if not 0 <= upto <= DEGREE_BOUND:
            raise ValueError(
                f"series prefix to degree {upto} is outside "
                f"[0, DEGREE_BOUND = {DEGREE_BOUND}]")
        arr = [0] * (upto + 1)
        for e, c in self.numerator.items():
            if e <= upto:
                arr[e] += c
        for a in self.denominator:
            for i in range(a, upto + 1):
                arr[i] += arr[i - a]
        return tuple(arr)


def series_qpoly(weights) -> HilbertSeries:
    """Series of a quantum weighted polynomial ring: 1 / prod (1 - t^a_i).

    The parameters do not enter; only the weights do.
    """
    weights = tuple(_integer(a, "weight") for a in weights)
    if not weights or any(a < 1 for a in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    return HilbertSeries({0: 1}, weights)


def quotient_by_regular(series: HilbertSeries, degree: int) -> HilbertSeries:
    """Multiply the numerator by (1 - t^degree), degree a positive int."""
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"bad quotient degree {degree!r}")
    num = dict(series.numerator)
    for e, c in series.numerator.items():
        num[e + degree] = num.get(e + degree, 0) - c
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
    while not sum(c * comb(e, k) for e, c in series.numerator.items()):
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


def _moduli(order: int):
    """Pairs (p, g), descending: each prime p = 1 (mod order) below 2**31
    with g an element of order `order` modulo p, the image of zeta_N."""
    top = _kernels.MODULUS_BOUND - 1
    for p in range(top - (top - 1) % order, 1, -order):
        if _is_probable_prime(p):
            yield p, _root_of_unity_mod(order, p)


def _root_of_unity_mod(order: int, p: int) -> int:
    if order == 1:
        return 1
    proper = _kernels._divisors(order)[:-1]
    for base in range(2, 1000):
        g = pow(base, (p - 1) // order, p)
        if pow(g, order, p) == 1 and all(pow(g, d, p) != 1 for d in proper):
            return g
    raise InternalDefect(f"no order-{order} element found modulo {p}")


def monomials_up_to(weights, max_degree: int) -> tuple[np.ndarray, list[int]]:
    """Exponent vectors of weighted degree 0 .. max_degree >= 0, as int64 rows.

    Rows run by degree, then lexicographically; those of degree t are
    exps[starts[t]:starts[t + 1]], starts a list of max_degree + 2 ints.
    From one empty row with max_degree left to spend, one coordinate at a
    time: a row with r left is repeated once per exponent 0 .. r // a of
    the next coordinate, in order.  Every row built is a monomial (the
    coordinates still to come may be 0), so none is dropped and no level
    has more rows than the result.  The rows come out lexicographic over
    all degrees; a stable sort of the last level by degree orders them,
    and the columns, kept apart until then, are gathered once into the
    table.  With N monomials, M of them in the first n - 1 coordinates,
    at most n M + (n + 6) N int64 cells are held at once.
    """
    columns, left = [], np.array([max_degree], dtype=np.int64)
    for i, a in enumerate(weights):
        counts = left // a + 1
        parent = np.repeat(np.arange(len(left)), counts)
        digit = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        left = left[parent] - a * digit
        if i < len(weights) - 1:
            for j in range(len(columns)):
                columns[j] = columns[j][parent]
            columns.append(digit)
    # by degree, max_degree - left; stable, so lexicographic within one
    order = np.argsort(-left, kind="stable")
    parent = parent[order]
    exps = np.empty((len(order), len(weights)), dtype=np.int64)
    for j, column in enumerate(columns):
        exps[:, j] = column[parent]
    exps[:, -1] = digit[order]
    degrees = max_degree - left[order]
    return exps, np.searchsorted(degrees, np.arange(max_degree + 2)).tolist()


def _setup(spec: AlgebraSpec, quotient, degrees, max_degree: int):
    """What brute_force_dims computes once per call: the monomial table
    and the data of each element's rows.

    Returns (exps, codes, starts, elems): the exponent vectors of degree 0
    .. max_degree and their mixed-radix codes (_places), those of degree t
    at starts[t]:starts[t + 1]; and for each element f of degree deg <=
    max_degree, (deg, reorder, term_codes, coeffs, residues): the columns
    L e over its terms x^e, L the strict lower triangle of the exponent
    matrix (reorder_scalar, a bicharacter), the codes of the e, the CycInt
    coefficients, and a dict p -> their values mod p that _matrix_mod
    fills on first use.  ValueError, before any monomial is built, when
    the codes would not fit in int64.
    """
    places = _places(spec.weights, max_degree)
    exps, starts = monomials_up_to(spec.weights, max_degree)
    codes = exps @ places
    lower = np.tril(np.array(spec.exponents, dtype=np.int64), -1)
    elems = []
    for deg, f in zip(degrees, quotient):
        if deg <= max_degree:
            terms = np.array(list(f.terms), dtype=np.int64)
            elems.append((deg, lower @ terms.T % spec.order, terms @ places,
                          list(f.terms.values()), {}))
    return exps, codes, starts, elems


def _blocks(t: int, exps: np.ndarray, codes: np.ndarray, starts, elems,
            order: int) -> list:
    """The rows m * f of degree t: one block (scalars, cols, coeffs,
    residues) per element with a monomial m of degree t - deg, entry [r, k]
    of scalars and cols for monomial r and term k.

    x^m times a term c x^e of f is c zeta^s x^(m+e) with s = m . L . e.
    The codes are additive, so m + e sits where code(m) + code(e) falls
    among the sorted codes of degree t.  The columns of one row are
    distinct because the terms are.
    """
    col_codes = codes[starts[t]:starts[t + 1]]
    blocks = []
    for deg, reorder, term_codes, coeffs, residues in elems:
        if t < deg or starts[t - deg] == starts[t - deg + 1]:
            continue
        rows = slice(starts[t - deg], starts[t - deg + 1])
        scalars = exps[rows] @ reorder % order
        cols = np.searchsorted(col_codes, codes[rows, None] + term_codes)
        blocks.append((scalars, cols, coeffs, residues))
    return blocks


def _matrix_mod(blocks, p: int, g: int):
    """The span matrix modulo p, zeta_N sent to g, as coordinates: int64
    arrays (rows, cols, values) with one entry per row and term, the rows
    numbered through the blocks in order.

    Each block is (scalars, cols, coeffs, residues): coeffs the CycInt term
    coefficients of the element, residues its dict from p to their values
    modulo p, filled on first use and shared by all degrees of a call.
    g^s is computed once per exponent that occurs.
    """
    rows, cols, values = [], [], []
    start = 0
    for scalars, block_cols, coeffs, residues in blocks:
        coeff_values = residues.get(p)
        if coeff_values is None:
            coeff_values = residues[p] = np.array(
                [c.evaluate_mod(g, p) for c in coeffs], dtype=np.int64)
        exponents, where = np.unique(scalars, return_inverse=True)
        powers = np.array([pow(g, int(s), p) for s in exponents], dtype=np.int64)
        entries = powers[where.reshape(scalars.shape)] * coeff_values % p
        values.append(entries.ravel())
        cols.append(block_cols.ravel())
        rows.append(np.repeat(np.arange(start, start + len(block_cols)),
                              len(coeffs)))
        start += len(block_cols)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _rank(blocks, ncols: int, moduli) -> int:
    """Largest rank modulo the pairs (p, g) from `moduli`, once proven.

    Stops at a full rank, or once the distinct primes tried multiply past
    the norm bound B (module docstring), which is computed only after the
    first prime falls short.  ValueError when `moduli` runs out first.
    """
    nrows = sum(len(cols) for _, cols, _, _ in blocks)
    full = min(nrows, ncols)
    best, product, bound = 0, 1, None
    for p, g in moduli:
        rows, cols, values = _matrix_mod(blocks, p, g)
        rank = _kernels.coordinate_rank(rows, cols, values, (nrows, ncols), p)
        if rank == full:
            return full
        best, product = max(best, rank), product * p
        if bound is None:
            bound = _norm_bound_squared(blocks)
        if product**2 > bound:
            return best
    raise ValueError(
        "too few primes p = 1 (mod N) below 2**31 to prove a rank: their "
        f"product {product} does not pass the norm bound")


def _norm_bound_squared(blocks) -> int:
    """B^2, exactly.  The rows of one block carry one element's coefficients
    times roots of unity, so they share one sum of |c|_1^2."""
    bound = 1
    for _, cols, coeffs, _ in blocks:
        row = sum(sum(map(abs, c.coeffs)) ** 2 for c in coeffs)
        bound *= row ** (len(coeffs[0].coeffs) * len(cols))
    return bound


def _places(weights, max_degree: int) -> np.ndarray:
    """Place values of the mixed-radix code sum e_i * place_i, radix
    max_degree // a_i + 1 at coordinate i, the first most significant.

    Every exponent of degree at most max_degree is a digit, so the code
    orders monomials lexicographically and code(m + e) = code(m) + code(e)
    while m + e stays in range.  ValueError when a code may pass 2**62.
    """
    places = [1]
    for a in reversed(weights[1:]):
        places.append(places[-1] * (max_degree // a + 1))
    if places[-1] * (max_degree // weights[0] + 1) > 2**62:
        raise ValueError(
            f"monomial codes to degree {max_degree} in weights {weights} "
            "do not fit in int64")
    return np.array(places[::-1], dtype=np.int64)


def _price(weights, degrees, terms, max_degree: int) -> int:
    """int64 cells brute_force_dims holds at once, read from the monomial
    counts; `terms` gives each element's number of terms.

    Building the table of N monomials in n variables, M of them in the
    first n - 1, holds n M + (n + 6) N cells (monomials_up_to), and one
    more per monomial is kept for small temporaries.  The table then
    stays held, n + 1 cells per monomial (exponents and codes), while the
    spans are built.  Each list or array indexed by degree costs 8 cells
    per degree.  A span whose blocks have R_j rows of T_j terms holds 10
    cells per block entry R_j T_j: the blocks' scalars and columns, the
    coordinates, and the peeling's copies of them (tracemalloc reads 8.4
    where the spans outweigh the table, 9.4 where the rank copies the
    coordinates to drop zero values).  The rows of one element always
    peel whole (module docstring), so only a quotient of two or more
    elements may leave a dense remainder; then the span's R rows by C
    columns are priced at 3 cells per entry, the remainder and the
    elimination loop's temporaries.
    """
    counts = series_qpoly(weights).prefix(max_degree)
    n, table, remainder = len(weights), sum(counts), len(degrees) > 1
    head = sum(series_qpoly(weights[:-1]).prefix(max_degree)) if n > 1 else 1
    spans = max(sum(counts[t - d] * (10 * k + 3 * remainder * counts[t])
                    for d, k in zip(degrees, terms) if d <= t)
                for t in range(max_degree + 1))
    build = n * head + (n + 7) * table
    return max(build, (n + 1) * table + spans) + 8 * (max_degree + 2)


def brute_force_dims(spec: AlgebraSpec, quotient, max_degree: int = 12) -> list[int]:
    """Graded dimensions of the quotient by central homogeneous elements.

    Returns [dim_0, ..., dim_max_degree].  Each quotient element must be
    homogeneous and central (centrality makes the degree-t relations
    exactly the span of m * f_j); anything else is rejected.  So are a
    negative max_degree, monomial codes past 2**62 (_places) and a call
    priced above ORACLE_CELL_BOUND cells (_price), all before any monomial
    is built.  The monomials of every degree and each element's term data
    are built once per call (_setup).  The rows m * f_j are built modulo p
    as coordinates from reorder exponents, their columns found by
    mixed-radix codes (_blocks, _matrix_mod), and each element's
    coefficients are evaluated once per prime.  Each rank is the largest
    of the ranks modulo primes p = 1 (mod N), proven by a full rank or by
    primes multiplying past a norm bound (_rank).  The pairs (p, g) are
    found once per call and shared by all degrees; ValueError when the
    primes below 2**31 run out first.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if isinstance(quotient, SkewPoly):
        quotient = [quotient]
    quotient = list(quotient)
    degrees = []
    for f in quotient:
        deg = f.homogeneous_degree(spec.weights)
        if deg is None or f.is_zero():
            raise ValueError(
                "brute force needs nonzero homogeneous quotient elements")
        if not is_central(f, spec):
            raise ValueError(
                "brute force supports only central quotient elements; "
                "two-sided ideals of non-central elements are out of scope")
        degrees.append(deg)
    price = _price(spec.weights, degrees, [len(f.terms) for f in quotient],
                   max_degree)
    if price > ORACLE_CELL_BOUND:
        raise ValueError(
            f"brute force to degree {max_degree} holds {price} cells, "
            f"above ORACLE_CELL_BOUND = {ORACLE_CELL_BOUND}")
    exps, codes, starts, elems = _setup(spec, quotient, degrees, max_degree)
    found, walk = [], _moduli(spec.order)

    def moduli():
        yield from found
        for pair in walk:
            found.append(pair)
            yield pair

    dims = []
    for t in range(max_degree + 1):
        blocks = _blocks(t, exps, codes, starts, elems, spec.order)
        ncols = starts[t + 1] - starts[t]
        rank = _rank(blocks, ncols, moduli()) if blocks else 0
        dims.append(ncols - rank)
    return dims
