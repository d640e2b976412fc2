"""Shared fixtures: the running example, small spec builders (with the
restriction to a subset of generators), a time guard,
the recursive monomial walk that the array enumerator is tested against,
the multiply-built span rows and their exact rank over Q(zeta_N), which the
Hilbert oracle's rows and ranks are tested against, the unreduced CY
lattice, its scalar walk and the chart-by-chart census (with its second
chart's scalar) that the search and the census are tested against, the
least-of-orbit classes by brute force, the chart scalars by their
definition and the image of a matrix by enumeration, a counter of spec
constructions, a spy on the rank's elimination loop, a one-algebra manifest
writer, and the scalar CRT merge that the column merge is tested against."""

import signal
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul

from qcy import _kernels
from qcy.cyclo import CycField, RootScalar, kernel_lattice
from qcy.points import INFINITE, CensusChart, CensusReport, ChartItem, two_var_fermat_count
from qcy.qalgebra import AlgebraSpec, SkewPoly, chart_parameters, multiply

# The running example: weight (1,1,2,2) at cube roots of unity, with
# q_03 = q_12 = zeta^2 and the transposed entries zeta.
E4 = ((0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 0, 0), (1, 0, 0, 0))
SPEC4 = AlgebraSpec(weights=(1, 1, 2, 2), order=3, exponents=E4)

# Its localized chart in the first weight-one variable.
CHART3 = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
SPEC3 = AlgebraSpec.unweighted(3, CHART3)

# The five surface weight systems (1, 1, a, b) of criterion 2.
CRITERION_2_SYSTEMS = [(1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 6)]


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


def subspec(spec, indices):
    """Restriction of spec to a subset of generators, in the given index order."""
    idx = tuple(indices)
    return AlgebraSpec(
        tuple(spec.weights[i] for i in idx),
        spec.order,
        tuple(tuple(spec.exponents[i][j] for j in idx) for i in idx),
    )


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
    hilbert.monomials_up_to."""
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


def reference_lattice(weights, order):
    """The CY exponent matrices as a lattice modulo a box, at the given
    order N and modulo M = N lcm(a_j), with no reduction of N or the weights.

    Entry e_p of pair p = (i, j), i < j, is stride_p * k_p with k_p mod
    box_p = N / stride_p.  With c = zeta_M^x the CY condition reads
    (M/N) * sum_p B_jp stride_p k_p - a_j x = 0 (mod M), B the signed
    incidence matrix; the kernel's basis rows but the last (the x pivot),
    less x, are the triangular basis of the k.  Returns (pairs, strides,
    boxes, basis).
    """
    n = len(weights)
    d = sum(weights)
    h = [d // a for a in weights]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strides = [lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
               for i, j in pairs]
    boxes = [order // s for s in strides]
    m = order * lcm(*weights)
    mat = [[(m // order) * s * ((j == col) - (i == col))
            for (i, j), s in zip(pairs, strides)] + [-a]
           for col, a in enumerate(weights)]
    basis = [r[:-1] for r in kernel_lattice(mat, m)[:-1]]
    return pairs, strides, boxes, basis


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
    pairs, strides, boxes, basis = reference_lattice(weights, order)
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


def least_of_orbits(weights, order):
    """_search_classes's exponent matrices by brute force: every CY matrix
    (the lattice points, decoded), relabelled by every weight-preserving
    permutation from itertools.permutations, and kept when it is the least
    of its orbit.  Each relabelling must itself be a CY matrix."""
    weights = tuple(sorted(weights))
    n = len(weights)
    pairs, strides, boxes, basis = reference_lattice(weights, order)
    place = [1] * len(boxes)
    for p in range(len(boxes) - 2, -1, -1):
        place[p] = place[p + 1] * boxes[p + 1]
    matrices = set()
    for index in reference_lattice_points(boxes, basis, place):
        exps = [[0] * n for _ in range(n)]
        for (i, j), s, w, b in zip(pairs, strides, place, boxes):
            exps[i][j] = s * (index // w % b)
            exps[j][i] = -exps[i][j] % order
        matrices.add(tuple(map(tuple, exps)))
    perms = [g for g in permutations(range(n))
             if all(weights[g[i]] == weights[i] for i in range(n))]
    least = []
    for exps in matrices:
        orbit = [tuple(tuple(exps[g[i]][g[j]] for j in range(n)) for i in range(n))
                 for g in perms]
        assert matrices.issuperset(orbit)
        if exps == min(orbit):
            least.append([list(row) for row in exps])
    return sorted(least)


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
        cp = chart_parameters(spec if k == 0 else subspec(spec, range(k, 4)), 0)
        kept = tuple(k + i for i in cp.kept)
        c = chart_simple_count(cp.spec, tuple(h[j] for j in kept))
        charts.append(CensusChart(
            k, description, c.count,
            tuple(ChartItem(tuple(kept[i] for i in item.support), item.count)
                  for item in c.items),
            tuple((kept[i], kept[j]) for i, j in c.trivial_pairs),
        ))
    tv = two_var_fermat_count(spec.weights[2], spec.weights[3], spec.total_degree)
    charts.append(CensusChart(
        2, "x0 = x1 = 0", tv.count, (ChartItem((2, 3), tv.count),), ()))
    if any(c.count is INFINITE for c in charts):
        total = INFINITE
    else:
        total = sum(c.count for c in charts)
    return CensusReport(spec.weights, spec.order, tuple(charts), total)


def reference_chart(spec, t):
    """The chart scalars at x_t by their definition, q'_jk = q_tj^{a_k} q_jk
    q_kt^{a_j} for j, k != t, each multiplied out as RootScalars, so apart
    from qalgebra's formula."""
    a, q = spec.weights, spec.q
    kept = [j for j in range(spec.nvars) if j != t]
    return [[q(t, j) ** a[k] * q(j, k) * q(k, t) ** a[j] for k in kept] for j in kept]


def image_brute(mat, modulus):
    """The image {mat . v mod N : v in (Z/N)^m}, by enumerating every v."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    out = set()
    for vec in product(range(modulus), repeat=m):
        out.add(tuple(sum(row[j] * vec[j] for j in range(m)) % modulus
                      for row in mat))
    return out


def reference_second_chart_scalar(spec):
    """q'_32 of the census chart x0 = 0, x1 inverted, as a reduced pair:
    chart_parameters at x1 of the subalgebra on x1, x2, x3."""
    return chart_parameters(subspec(spec, range(1, 4)), 0).spec.q(1, 0).pair()


def record_spec_constructions(monkeypatch):
    """Patch AlgebraSpec so that each construction from here on appends the
    new spec to the list returned."""
    built = []
    post_init = AlgebraSpec.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(AlgebraSpec, "__post_init__", counting)
    return built


def spy_eliminate(monkeypatch):
    """Record the shape of every matrix the rank's elimination loop receives."""
    shapes = []
    eliminate = _kernels._eliminate

    def spy(a, p, live, above):
        shapes.append(a.shape)
        return eliminate(a, p, live, above)

    monkeypatch.setattr(_kernels, "_eliminate", spy)
    return shapes


def manifest_text(spec):
    """A manifest holding spec as its one algebra."""
    lines = ["schema 1", "algebra A", f"order {spec.order}",
             "weights " + " ".join(map(str, spec.weights))]
    lines += ["row " + " ".join(map(str, row)) for row in spec.exponents]
    return "\n".join(lines) + "\n"


def reference_solve_root_system(pairs):
    """solve_root_system one column at a time on Python ints, returning at
    the first conflict: (reduced witness c, len(pairs)) or (None, j) with
    pairs[:j] solvable and pairs[:j+1] not."""
    pairs = list(pairs)
    if any(a < 1 for a, _ in pairs):
        raise ValueError("exponents a_j must be positive")
    m = lcm(*[p.order for _, p in pairs]) * lcm(*[a for a, _ in pairs])
    residue, period = 0, 1
    for j, (a, p) in enumerate(pairs):
        t = p.exponent_over(m)
        g = gcd(a, m)
        if t % g:
            return None, j
        mj = m // g
        x0 = (t // g) * pow(a // g, -1, mj) % mj if mj > 1 else 0
        # merge x = residue (mod period) with x = x0 (mod mj)
        d = gcd(period, mj)
        if (x0 - residue) % d:
            return None, j
        step = mj // d
        k = ((x0 - residue) // d) * pow(period // d, -1, step) % step if step > 1 else 0
        residue += period * k
        period = lcm(period, mj)
        residue %= period
    return RootScalar(m, residue), len(pairs)


def reference_tokenize(line):
    """manifest._tokenize by a character loop: (token, 1-based column)
    pairs split at str.isspace, with '#' starting a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    out = []
    token_start = None
    for idx, ch in enumerate(line):
        if ch.isspace():
            if token_start is not None:
                out.append((line[token_start:idx], token_start + 1))
                token_start = None
        elif token_start is None:
            token_start = idx
    if token_start is not None:
        out.append((line[token_start:], token_start + 1))
    return out
