"""Shared fixtures: the running example, small spec builders, a time guard,
the recursive monomial walk that the array enumerator is tested against,
the multiply-built span rows and their exact rank over Q(zeta_N), which the
Hilbert oracle's rows and ranks are tested against, and the scalar lattice
walk and chart-by-chart census that the search and the census are tested
against."""

import signal
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import mul

from qcy.cyclo import CycField
from qcy.points import INFINITE, CensusChart, CensusReport, ChartItem, two_var_fermat_count
from qcy.qalgebra import AlgebraSpec, SkewPoly, chart_parameters, multiply
from qcy.search import _cy_lattice

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


def monomials_of_degree(weights, degree):
    """Exponent vectors of one weighted degree in lexicographic order, by
    recursion over the coordinates: the reference for
    qalgebra.monomials_up_to."""
    weights = tuple(weights)
    out = []

    def rec(i, remaining, prefix):
        if i == len(weights) - 1:
            q, r = divmod(remaining, weights[i])
            if r == 0:
                out.append(prefix + (q,))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            rec(i + 1, remaining - e * w, prefix + (e,))

    if degree < 0:
        return []
    rec(0, degree, ())
    return out


def monomials_of_degree_at_most(weights, bound):
    """The reference walk's monomials of degree 0 .. bound, degree by degree."""
    for t in range(bound + 1):
        yield from monomials_of_degree(weights, t)


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


def reference_lattice_points(boxes, basis, place):
    """Every point of the lattice modulo the box, in increasing order.

    A point k is encoded as the mixed-radix number sum_p k_p * place_p
    (digit k_p < box_p, first pair most significant), so the order is the
    lexicographic order of the exponent matrices.  Row p of the triangular
    basis has pivot diag_p | box_p: once k_0 .. k_{p-1} are fixed, k_p runs
    over one residue class mod diag_p, and adding the multiple of row p
    that reaches it leaves the earlier digits alone.  Where diag_p = box_p
    that multiple is 0, so only the other rows branch.
    """
    free = [p for p, box in enumerate(boxes) if basis[p][p] < box]
    out = []

    def walk(t, acc):
        if t == len(free):
            out.append(sum(map(mul, acc, place)))
            return
        p = free[t]
        diag, row = basis[p][p], basis[p]
        for v in range(acc[p] % diag, boxes[p], diag):
            c = (v - acc[p]) // diag
            walk(t + 1, [(a + c * r) % b for a, r, b in zip(acc, row, boxes)])

    walk(0, [0] * len(boxes))
    return out


def reference_search(weights, order):
    """search_q_params's exponent matrices by the scalar walk: one Python
    recursion over the lattice, and each orbit marked image by image with a
    bisection into the sorted point codes.  No certificates."""
    weights = tuple(sorted(weights))
    n = len(weights)
    pairs, strides, boxes, basis = _cy_lattice(weights, order)
    place = [1] * len(boxes)
    for p in range(len(boxes) - 2, -1, -1):
        place[p] = place[p + 1] * boxes[p + 1]
    points = reference_lattice_points(boxes, basis, place)
    where = {pair: q for q, pair in enumerate(pairs)}
    actions = [
        [(where[g[i], g[j]], 1) if g[i] < g[j] else (where[g[j], g[i]], -1)
         for i, j in pairs]
        for g in permutations(range(n))
        if all(weights[g[i]] == weights[i] for i in range(n))
    ]
    seen = bytearray(len(points))
    out = []
    for pos, index in enumerate(points):
        if seen[pos]:
            continue
        k = [index // w % b for w, b in zip(place, boxes)]
        for act in actions:
            image = sum((sign * k[src]) % b * w
                        for (src, sign), b, w in zip(act, boxes, place))
            at = bisect_left(points, image)
            assert at < len(points) and points[at] == image
            seen[at] = 1
        exps = [[0] * n for _ in range(n)]
        for (i, j), s, kp in zip(pairs, strides, k):
            exps[i][j] = s * kp
            exps[j][i] = -s * kp % order
        out.append(tuple(tuple(r) for r in exps))
    return out


@dataclass(frozen=True)
class ChartCount:
    count: object  # int | INFINITE
    items: tuple
    trivial_pairs: tuple


def chart_simple_count(chart_spec, exponents):
    """One-dimensional simple modules of a chart with equation 1 + sum y_i^{m_i}.

    A pair scalar q'_ij = 1 admits supports of size two, a positive
    dimensional solution set: infinitely many.  Otherwise all simples have
    singleton support and y_i^{m_i} = -1 contributes m_i points.
    """
    m = chart_spec.nvars
    exponents = tuple(int(x) for x in exponents)
    if len(exponents) != m or any(x < 1 for x in exponents):
        raise ValueError("need one positive exponent per chart generator")
    e = chart_spec.exponents
    trivial = tuple(
        (i, j)
        for i, j in combinations(range(m), 2)
        if e[i][j] % chart_spec.order == 0
    )
    items = [ChartItem((i,), exponents[i]) for i in range(m)]
    if trivial:
        items += [ChartItem(p, INFINITE) for p in trivial]
        return ChartCount(INFINITE, tuple(items), trivial)
    return ChartCount(sum(exponents), tuple(items), ())


def reference_census(spec):
    """census_weighted_surface chart by chart: chart_parameters on the
    subalgebra of each chart, the chart count, then its items relabelled to
    the surface's generators.  Assumes a valid (1, 1, a, b) spec."""
    h = spec.fermat_exponents()
    charts = []
    for k, description in ((0, "x0 inverted"), (1, "x0 = 0, x1 inverted")):
        cp = chart_parameters(spec if k == 0 else spec.subspec(range(k, 4)), 0)
        kept = tuple(k + i for i in cp.kept)
        c = chart_simple_count(cp.spec, tuple(h[j] for j in kept))
        charts.append(CensusChart(
            k, description, c.count,
            tuple(ChartItem(tuple(kept[i] for i in item.support), item.count)
                  for item in c.items),
            tuple((kept[i], kept[j]) for i, j in c.trivial_pairs),
            cp.spec,
        ))
    tv = two_var_fermat_count(spec.weights[2], spec.weights[3], spec.total_degree)
    charts.append(CensusChart(
        2, "x0 = x1 = 0", tv.count, (ChartItem((2, 3), tv.count),), (), None))
    if any(c.count is INFINITE for c in charts):
        total = INFINITE
    else:
        total = sum(c.count for c in charts)
    return CensusReport(spec.weights, spec.order, tuple(charts), total)
