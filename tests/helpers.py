"""Shared fixtures: the running example, small spec builders, a time guard,
and the multiply-built span rows and their exact rank over Q(zeta_N), which
the Hilbert oracle's rows and ranks are tested against."""

import signal

from qcy.cyclo import CycField
from qcy.qalgebra import AlgebraSpec, SkewPoly, monomials_of_degree, multiply

# The running example: weight (1,1,2,2) at cube roots of unity, with
# q_03 = q_12 = zeta^2 and the transposed entries zeta.
E4 = ((0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 0, 0), (1, 0, 0, 0))
SPEC4 = AlgebraSpec(weights=(1, 1, 2, 2), order=3, exponents=E4)

# Its localized chart in the first weight-one variable.
CHART3 = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
SPEC3 = AlgebraSpec.unweighted(3, CHART3)


def antisymmetric(order, entries):
    """Build an exponent matrix from upper-triangle entries."""
    n = 0
    while n * (n - 1) // 2 < len(entries):
        n += 1
    assert n * (n - 1) // 2 == len(entries)
    mat = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            e = next(it) % order
            mat[i][j] = e
            mat[j][i] = (-e) % order
    return tuple(tuple(r) for r in mat)


def within(seconds, fn):
    """fn(), or TimeoutError once `seconds` of wall-clock time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def multiply_rows(spec, quotient, degree):
    """Rows {column: CycInt} of the m * f of one degree, each built as a
    SkewPoly product by `multiply`: the reference for the exponent
    arithmetic of hilbert.brute_force_dims.  Rows go element by element,
    monomials in lexicographic order; columns are the monomials of `degree`.
    """
    index = {e: i for i, e in enumerate(monomials_of_degree(spec.weights, degree))}
    rows = []
    for f in quotient:
        shift = degree - f.homogeneous_degree(spec.weights)
        for mono in monomials_of_degree(spec.weights, shift):
            prod = multiply(SkewPoly.monomial(spec.order, mono), f, spec)
            rows.append({index[e]: c for e, c in prod.terms.items()})
    return rows


def multiply_rows_mod(spec, quotient, degree, p, g):
    """The rows of `multiply_rows` modulo p, zeta_N sent to g, as lists."""
    ncols = len(monomials_of_degree(spec.weights, degree))
    rows = []
    for row in multiply_rows(spec, quotient, degree):
        dense = [0] * ncols
        for j, c in row.items():
            dense[j] = c.evaluate_mod(g, p)
        rows.append(dense)
    return rows


def exact_rank(rows, ncols, order):
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
        piv = next((i for i in range(rank, len(dense))
                    if not field.is_zero(dense[i][col])), None)
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


def exact_dims(spec, quotient, max_degree):
    """brute_force_dims by multiply-built rows and exact elimination."""
    dims = []
    for t in range(max_degree + 1):
        ncols = len(monomials_of_degree(spec.weights, t))
        rank = exact_rank(multiply_rows(spec, quotient, t), ncols, spec.order)
        dims.append(ncols - rank)
    return dims
