"""Shared fixtures: the running example, small spec builders, a time guard,
and the multiply-built span rows that the Hilbert oracle's rows are tested
against."""

import signal

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


def multiply_rows_mod(spec, quotient, degree, p, g):
    """Rows of the m * f of one degree modulo p, zeta_N sent to g.

    Each row is built as a SkewPoly product by `multiply` and its CycInt
    coefficients are evaluated at g: the reference for the exponent
    arithmetic of hilbert.brute_force_dims.  Rows go element by element,
    monomials in lexicographic order; columns are the monomials of `degree`.
    """
    cols = monomials_of_degree(spec.weights, degree)
    index = {e: i for i, e in enumerate(cols)}
    rows = []
    for f in quotient:
        shift = degree - f.homogeneous_degree(spec.weights)
        for mono in monomials_of_degree(spec.weights, shift):
            row = [0] * len(cols)
            prod = multiply(SkewPoly.monomial(spec.order, mono), f, spec)
            for e, c in prod.terms.items():
                row[index[e]] = c.evaluate_mod(g, p)
            rows.append(row)
    return rows
