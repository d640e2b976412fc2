"""Enumeration of admissible weight systems and parameter sweeps.

Weight systems are sorted tuples with gcd 1 whose entries all divide the
total degree.  For a fixed system and root order, search_q_params lists
one Calabi-Yau exponent matrix per class under weight-preserving generator
permutations.  The CY condition is linear in the exponents, so the CY
matrices are the points of a lattice (one Hermite form modulo M,
Cohen GTM 138 Algorithm 2.4.8), enumerated directly and in increasing order
as the columns of one array; their count is known before the walk, and a
search of more than SEARCH_BOUND of them is refused up front.  The group
needs no table: a transposition and a cycle per class of equal weights
generate it (Seress, Permutation Group Algorithms, 2003).  A point's row
index is its free lattice digits read as a mixed-radix number, so each
generator moves all points at once to the indices of their images, and
each image is checked to be the point found there.  Min-propagation with
pointer jumping over those moves labels every point with the least index
in its orbit; the points that are their own label are the class
representatives, each the least of its orbit (isomorph-free generation,
McKay 1998).  The group's order is priced against ACTION_BOUND first.  The
representatives are then certified together as a second route, from
their columns and not from the lattice: one array of their exponent
matrices is checked for certify_weighted's hypotheses, one CRT merge over
all rows (cyclo.merge_columns) solves their column systems, and each
witness equals certify_weighted's.  The classes leave the search as plain
matrices and witness pairs; the census sweep takes them without
rechecking the hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from math import comb, factorial, gcd, lcm, log, prod

import numpy as np

from . import _kernels
from .cyclo import _integer, hermite_normal_form, merge_columns
from .errors import InternalDefect
from .points import CensusReport, _census, _is_surface
from .qalgebra import AlgebraSpec

# Most Calabi-Yau exponent matrices one search may enumerate.  With few
# weight-preserving permutations nearly every matrix is its own class: one
# point of the walk and of each generator's moves, one row of the batch
# certification's arrays, and its matrix and witness as lists.  Over the
# 17,100 classes of (1,3,5,5,6,10) at order 30 on a 2 vCPU Xeon that is
# 0.005-0.007 ms per class, and 0.8 KB kept per class (1.9 KB at the peak,
# the walk's, the moves' and the certification's arrays included, by
# tracemalloc); search_q_params's spec per class adds about 0.01 ms.  So
# the largest accepted search takes about a second and under 200 MB.
SEARCH_BOUND = 10**5

# Most entries, |G| n (n - 1) / 2, of a table of the weight-preserving
# permutations' actions on the pairs, priced from the multiplicities of the
# weights.  The search builds no such table: it moves the points by at most
# two generators per class of equal weights, so its cost does not grow with
# |G|.  The bound fixes which inputs are accepted: nine equal weights
# (9! * 36 entries) are answered, and ten, or nine and one more (9! * 45),
# are refused.
ACTION_BOUND = 15 * 10**6

# Most work one enumerate_cy_weights call may do, counted in weights.  The
# sieve's size depends only on the input, so it is priced before anything
# is allocated: D = n (bound - 1) + 1 degree lists holding about
# D (1 + ln bound) divisors, at 8 weights per unit (an entry takes about
# 0.35 us, so an admitted sieve takes at most about 0.2 s).  The walk
# then counts its own work as it goes: 4 weights per stack push (one push
# takes about as long as emitting and rechecking four weights, about 1 and
# 0.25 us on a 2 vCPU Xeon) and n per emitted system, before its tuple is
# built, and stops as soon as the count passes the bound.  The largest
# accepted inputs take about a second: (2, 22668) 0.35 s, (5, 4269)
# 0.85 s, (8, 209) 0.9 s, (11, 53) 1.2 s.
WEIGHT_ENUMERATION_BOUND = 4 * 10**6

# Known four-variable weight systems of Fermat hypersurface surfaces, kept
# here as the comparison yardstick for the enumeration.  Two entries fail
# the divisibility requirement and are reported as discrepancies, not
# silently dropped.
REFERENCE_SURFACE_WEIGHTS: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1),
    (1, 1, 1, 3),
    (1, 1, 2, 2),
    (1, 1, 2, 4),
    (1, 1, 2, 5),
    (1, 1, 4, 6),
    (1, 2, 3, 6),
    (1, 3, 3, 4),
    (2, 3, 3, 4),
    (1, 2, 6, 9),
    (2, 3, 10, 15),
    (1, 6, 14, 21),
)


@dataclass(frozen=True)
class WeightSystem:
    weights: tuple[int, ...]
    total_degree: int
    divides: tuple[bool, ...]


def weight_system(weights) -> WeightSystem:
    weights = tuple(sorted(_integer(a, "weight") for a in weights))
    if not weights or any(a < 1 for a in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    d = sum(weights)
    return WeightSystem(weights, d, tuple(d % a == 0 for a in weights))


@dataclass(frozen=True)
class ReferenceEntry:
    weights: tuple[int, ...]
    found: bool
    divides: tuple[bool, ...]
    discrepancy: bool


@dataclass(frozen=True)
class EnumerationResult:
    n_vars: int
    bound: int
    systems: tuple[WeightSystem, ...]
    reference: tuple[ReferenceEntry, ...]
    extras: tuple[tuple[int, ...], ...]


def enumerate_cy_weights(n_vars: int, bound: int) -> EnumerationResult:
    """All admissible weight systems with entries up to `bound`.

    Emits sorted tuples with gcd 1 and every weight dividing the total
    degree.  The walk (_divisor_multiplicity_walk) builds only such tuples:
    per total degree d, one multiplicity for each divisor of d up to
    `bound`, so it never visits the C(bound + n - 1, n) sorted tuples.  Its
    sieve is priced before it is built and the walk counts its own work;
    either passing WEIGHT_ENUMERATION_BOUND is a ValueError.  Each emitted
    tuple is rechecked as the walk built it (its sum, each weight dividing
    it, gcd 1); an inadmissible one is an InternalDefect.  For four variables the result is compared entry by
    entry against the reference surface list: reference entries failing
    the divisibility requirement are flagged as discrepancies, and emitted
    systems outside the reference list are returned as extras.
    """
    if n_vars < 2 or bound < 1:
        raise ValueError("need at least two variables and a positive bound")
    found = []
    for weights in _divisor_multiplicity_walk(n_vars, bound):
        d = sum(weights)
        divides = tuple([d % a == 0 for a in weights])
        if not all(divides) or gcd(*weights) != 1:
            raise InternalDefect(f"weight walk emitted inadmissible {weights}")
        found.append(WeightSystem(weights, d, divides))
    reference = []
    extras = []
    if n_vars == 4:
        emitted = {ws.weights for ws in found}
        for ref in REFERENCE_SURFACE_WEIGHTS:
            ws = weight_system(ref)
            reference.append(ReferenceEntry(
                weights=ws.weights,
                found=ws.weights in emitted,
                divides=ws.divides,
                discrepancy=not all(ws.divides),
            ))
        refset = {tuple(r) for r in REFERENCE_SURFACE_WEIGHTS}
        extras = [w for w in sorted(emitted) if w not in refset]
    return EnumerationResult(
        n_vars=n_vars,
        bound=bound,
        systems=tuple(found),
        reference=tuple(reference),
        extras=tuple(extras),
    )


def _divisor_multiplicity_walk(n_vars: int, bound: int) -> list[tuple[int, ...]]:
    """Sorted n_vars-tuples up to `bound` with gcd 1 and entries dividing the sum.

    Per total degree d in [n, n * bound] the divisors of d up to `bound`
    come from one sieve; the walk chooses a multiplicity m_a per divisor,
    largest first, with sum m_a = n and sum a * m_a = d.  After m copies of
    a, the r weights left must sum to s within [r, r * next divisor], which
    fixes the range of m exactly; the last divisor is 1 and its
    multiplicity is forced.  An explicit stack keeps the depth, the number
    of divisors, off the interpreter's call stack.  One sort at the end
    puts the tuples in increasing order.  The sieve's price and the walk's
    count of its pushes and weights are each held to
    WEIGHT_ENUMERATION_BOUND.
    """
    degrees = n_vars * (bound - 1) + 1
    # D past the bound is refused before it could overflow a float
    if (degrees > WEIGHT_ENUMERATION_BOUND
            or 8 * degrees * (1 + log(bound)) > WEIGHT_ENUMERATION_BOUND):
        raise _over_bound(n_vars, bound, "the sieve is priced at")
    sieve: list[list[int]] = [[] for _ in range(degrees)]
    for a in range(bound, 0, -1):
        for d in range(-(-n_vars // a) * a, n_vars * bound + 1, a):
            sieve[d - n_vars].append(a)
    found = []
    work = 0
    for d, divisors in enumerate(sieve, n_vars):
        if d > n_vars * divisors[0]:
            continue
        last = len(divisors) - 1
        stack = [(0, n_vars, d, 0, ())]
        while stack:
            i, r, s, g, parts = stack.pop()
            if i == last:  # the r weights left are all 1
                if r or g == 1:
                    work += n_vars
                    if work > WEIGHT_ENUMERATION_BOUND:
                        raise _over_bound(n_vars, bound, "the walk takes")
                    weights = [1] * r
                    for a, m in reversed(parts):
                        weights += [a] * m
                    found.append(tuple(weights))
                continue
            a, nxt = divisors[i], divisors[i + 1]
            # r - m <= s - a m <= (r - m) nxt, solved for m
            m_lo = max(0, -((r * nxt - s) // (a - nxt)))
            m_hi = min(r, (s - r) // (a - 1))
            work += 4 * (m_hi - m_lo + 1)
            if work > WEIGHT_ENUMERATION_BOUND:
                raise _over_bound(n_vars, bound, "the walk takes")
            for m in range(m_lo, m_hi + 1):
                stack.append((i + 1, r - m, s - a * m,
                              gcd(g, a) if m else g,
                              parts + ((a, m),) if m else parts))
    found.sort()
    return found


def _over_bound(n_vars: int, bound: int, step: str) -> ValueError:
    return ValueError(f"{n_vars} weights up to {bound}: {step} more than "
                      f"WEIGHT_ENUMERATION_BOUND = {WEIGHT_ENUMERATION_BOUND} weights")


def _generators(weights) -> list[list[int]]:
    """Generators of the weight-preserving permutations, one row each, as
    signed permutations of the pair digits k: indices into (k, -k mod box).

    Per class of equal weights, the transposition of its first two members
    and, for a class of three or more, the cycle through all of them: the
    two generate the class's symmetric group (Seress, Permutation Group
    Algorithms, 2003), so the rows generate the whole group.  A
    weight-preserving g sends e_(i,j) to e_(g i, g j), which is +-e of one
    pair q of the same stride, so the relabelled matrix has k'_p = k_q
    (index q) if g i < g j, else -k_q (index len(pairs) + q).
    """
    n = len(weights)
    perms = []
    for a in sorted(set(weights)):
        cls = [i for i in range(n) if weights[i] == a]
        if len(cls) < 2:
            continue
        for cycle in ([cls[:2], cls] if len(cls) > 2 else [cls]):
            g = list(range(n))
            for s, t in zip(cycle, cycle[1:] + cycle[:1]):
                g[s] = t
            perms.append(g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    where = {}
    for q, (i, j) in enumerate(pairs):
        where[i, j], where[j, i] = q, q + len(pairs)
    return [[where[g[i], g[j]] for i, j in pairs] for g in perms]


def _cy_lattice(weights, order):
    """The Calabi-Yau exponent matrices as a lattice modulo a box.

    Entry e_p of pair p = (i, j), i < j, is stride_p * k_p with k_p mod
    box_p = N / stride_p.  With c = zeta_M^x, M = N * lcm(a_j), the CY
    condition reads (M/N) * sum_p B_jp stride_p k_p - a_j x = 0 (mod M),
    B the signed incidence matrix (column j gains e_ij for i < j and loses
    e_ji for i > j).  One Hermite form modulo M of the rows
    ((M/N) stride_p B_.p | e_p), (-a | 0) for x and (0 | box_p e_p): its
    rows that pivot on the right-hand block are the upper-triangular basis
    of the k with some x meeting the condition, plus the box lattice
    (+) box_p Z.  Returns (pairs, strides, boxes, basis).
    """
    n = len(weights)
    d = sum(weights)
    h = [d // a for a in weights]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strides = [lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
               for i, j in pairs]
    boxes = [order // s for s in strides]
    m = order * lcm(*weights)
    unit = [[int(p == q) for q in range(len(pairs))] for p in range(len(pairs))]
    rows = [[(m // order) * s * ((j == col) - (i == col)) for col in range(n)] + e
            for (i, j), s, e in zip(pairs, strides, unit)]
    rows.append([-a for a in weights] + [0] * len(pairs))
    rows += [[0] * n + [b * x for x in e] for b, e in zip(boxes, unit)]
    basis = [r[n:] for r in hermite_normal_form(rows, m)[n:]]
    return pairs, strides, boxes, basis


def _lattice_points(boxes, basis, dtype) -> tuple[np.ndarray, list[int]]:
    """Every point of the lattice modulo the box, in increasing order, as one
    column per pair (point r is column entry r of each), and the place value
    of each digit of a point's row index.

    Row p of the triangular basis has pivot diag_p | box_p: once k_0 ..
    k_{p-1} are fixed, k_p runs over v = (acc_p mod diag_p) + diag_p t for
    t < box_p / diag_p, and adding the multiple of row p that reaches v
    leaves the earlier entries alone.  Each free position (diag_p < box_p)
    multiplies the points by box_p / diag_p, t increasing, so they come
    out in the lexicographic order of the exponent matrices; where
    diag_p = box_p that multiple is 0.  The row index of a point is then
    its digits t_p = k_p // diag_p read as a mixed-radix number (first pair
    most significant), which stays below the point count; a fixed
    position's digit is 0.  Each step adds c * row_p with |c| and the
    entries below the box, so the points are exact in `dtype`: int64 when
    every box is below _kernels.MODULUS_BOUND, as the product then stays
    below 2^62, and object (Python ints) otherwise.
    """
    box = np.array(boxes, dtype)[:, None, None]
    columns = np.zeros((len(boxes), 1), dtype)
    for p, row in enumerate(basis):
        diag = row[p]
        if diag == boxes[p]:
            continue
        c = np.arange(boxes[p] // diag).astype(dtype) - (columns[p] // diag)[:, None]
        step = np.array(row, dtype)[:, None, None] * c
        step += columns[:, :, None]
        step %= box
        columns = step.reshape(len(boxes), -1)
    radix = [b // row[p] for p, (b, row) in enumerate(zip(boxes, basis))]
    return columns, [prod(radix[p + 1:]) for p in range(len(boxes))]


def _moves(columns, diag, boxes, places, actions) -> np.ndarray | None:
    """Row index of each point's image under each action (a row of
    _generators), one row of the result per action, or None when some image
    is not the point at its computed index.

    An image's row index is its digits k_p // diag_p read with the place
    values; a fixed position (diag_p = box_p) has digit 0 and is left out,
    and one with diag_p = 1 needs no division.  Two checks come first: each
    point's own digits read as its row index, and each action takes every
    pair's digit from a pair of the same box, so an image's digits lie
    below their radices.  The point at an image's computed index then has
    the image's digits, and so its entries wherever diag_p = 1 (a box of 1
    holds only 0); only the positions with diag_p > 1 are compared.  Every
    step is one column of all the points.
    """
    width, count = columns.shape
    free = [p for p in range(width) if diag[p] < boxes[p]]
    compared = [p for p in range(width) if diag[p] > 1]
    negated = {}

    def signed(a):
        if a < width:
            return columns[a]
        if a not in negated:
            negated[a] = -columns[a - width] % boxes[a - width]
        return negated[a]

    def row_index(entries):
        at = np.zeros(count, columns.dtype)
        for p in free:
            at += (entries[p] if diag[p] == 1 else entries[p] // diag[p]) * places[p]
        return at.astype(np.intp)

    if (not (row_index(columns) == np.arange(count)).all()
            or any(boxes[a % width] != boxes[p]
                   for action in actions for p, a in enumerate(action))):
        return None
    out = np.empty((len(actions), count), np.intp)
    for g, action in enumerate(actions):
        images = [signed(a) for a in action]
        at = out[g] = row_index(images)
        if not all((np.take(columns[p], at) == images[p]).all() for p in compared):
            return None
    return out


def _least_in_orbit(moves) -> np.ndarray:
    """The least row index in each point's orbit under the group the moves
    generate, by min-propagation with pointer jumping.

    Each round lowers every point's label to its image's label under each
    move in turn, then to its label's label.  A label is always an index in
    the point's orbit and never above it.  Each move permutes the points in
    cycles, so after a round that changes nothing, when no label is above
    its image's, the labels are constant along every move's cycles and so
    on each orbit, at its least member.
    """
    label = np.arange(moves.shape[1])
    while True:
        before = label
        for perm in moves:
            label = np.minimum(label, np.take(label, perm))
        label = np.take(label, label)
        if (label == before).all():
            return label


def _search_classes(weights, order: int) -> tuple[list, list]:
    """(matrices, witnesses): one CY exponent matrix per class of the
    sorted weights, in increasing order, and its witness (_certify_classes).

    Enumerates the CY matrices directly as lattice points, in increasing
    order (see _cy_lattice and _lattice_points).  Each generator of the
    weight-preserving permutations (_generators) moves every point to its
    image's row index (_moves), and each point is labelled with the least
    index in its orbit (_least_in_orbit); the points that are their own
    label are the class representatives, certified together
    (_certify_classes).  An image that is not the point at its computed
    index, or a representative that does not certify CY, raises
    InternalDefect.  A search over SEARCH_BOUND CY matrices or
    ACTION_BOUND action entries is refused before enumeration.  The arrays
    hold int64 while the search modulus M = N lcm(a_j) is below
    _kernels.MODULUS_BOUND (see there), and Python ints from it on.
    """
    ws = weight_system(weights)
    weights = ws.weights
    if not all(ws.divides):
        raise ValueError(
            f"every weight must divide the total degree, got {weights}")
    n = len(weights)
    if n < 2:
        # k[x]/(x^h) has empty Proj: certify_weighted refuses every spec.
        return [], []
    actions = prod(map(factorial, Counter(weights).values())) * comb(n, 2)
    if actions > ACTION_BOUND:
        raise ValueError(
            f"the weight-preserving permutations of {weights} act on the "
            f"pairs by {actions} entries, above ACTION_BOUND = {ACTION_BOUND}")
    pairs, strides, boxes, basis = _cy_lattice(weights, order)
    size = prod(box // basis[p][p] for p, box in enumerate(boxes))
    if size > SEARCH_BOUND:
        raise ValueError(
            f"search of weights {weights} at order {order} has {size} "
            f"Calabi-Yau exponent matrices, above SEARCH_BOUND = {SEARCH_BOUND}")
    m = order * lcm(*weights)
    dtype = np.int64 if m < _kernels.MODULUS_BOUND else object
    columns, places = _lattice_points(boxes, basis, dtype)
    diag = [row[p] for p, row in enumerate(basis)]
    moves = _moves(columns, diag, boxes, places, _generators(weights))
    if moves is None:
        raise InternalDefect(
            f"CY matrices of {weights} at order {order} are not "
            "closed under weight-preserving permutations")
    label = _least_in_orbit(moves)
    reps = np.flatnonzero(label == np.arange(len(label)))
    return _certify_classes(weights, order, m, pairs, strides, columns[:, reps].T)


def _exponent_matrices(n, order, pairs, strides, ks) -> np.ndarray:
    """The exponent matrices of rows of lattice digits as one (R, n, n)
    array of ks's dtype: e_ij = stride_p k_p and e_ji = -e_ij mod N for
    pair p = (i, j), i < j, and a zero diagonal."""
    i, j = np.array(pairs).T
    upper = ks * np.array(strides, ks.dtype)
    exps = np.zeros((len(ks), n, n), ks.dtype)
    exps[:, i, j] = upper
    exps[:, j, i] = -upper % order
    return exps


def _violated_hypothesis(exps, order, weights):
    """(kind, row): the first of certify_weighted's hypotheses that some
    matrix of exps fails, and the first such matrix; None when all hold.

    The hypothesis q_ij^{h_i} = q_ij^{h_j} = 1 is read from h = d / a as
    validate_spec reads it, not from the strides that built exps.  Its
    values stay below n M, M = N lcm(a_j), so exps's dtype holds them.
    """
    n = exps.shape[1]
    h = np.array([sum(weights) // a for a in weights], exps.dtype)
    idx = np.arange(n)
    for kind, residues in (
            ("diagonal", exps[:, idx, idx] % order),
            ("antisymmetry", (exps + exps.transpose(0, 2, 1)) % order),
            ("entry-order", exps * h[:, None] % order),
            ("entry-order", exps * h % order)):
        rows = np.nonzero(residues)[0]
        if rows.size:
            return kind, rows[0]
    return None


def _certify_classes(weights, order, m, pairs, strides, ks) -> tuple[list, list]:
    """The exponent matrix and certify_weighted's witness for each row of
    lattice digits, all rows in one array pass.

    The exponent matrices (_exponent_matrices) are checked against
    certify_weighted's hypotheses: unit diagonal, antisymmetry, and
    q_ij^{h_i} = q_ij^{h_j} = 1 (_violated_hypothesis).  Their column
    systems c^{a_j} = prod_i q_ij are solved by one merge over all rows
    (merge_columns): the search modulus m = N lcm(a_j)
    and everything but the residues depend on the weights alone.  The
    arrays keep ks's dtype, which must be int64 only while
    m < _kernels.MODULUS_BOUND (object past it; see _search_classes).
    Returns (matrices, witnesses) as nested lists of Python ints; witness
    [m / g, x / g], g = gcd(x, m), is the reduced pair of c = zeta_m^x that
    certify_weighted stores.  A row failing a hypothesis or its column
    system raises InternalDefect: the lattice is the CY set, and this
    derives CY from the columns alone.
    """
    n = len(weights)
    exps = _exponent_matrices(n, order, pairs, strides, ks)
    violated = _violated_hypothesis(exps, order, weights)
    if violated is not None:
        kind, r = violated
        raise InternalDefect(
            f"search class {r} of {weights} at order {order} violates {kind}")
    columns = exps.sum(axis=1) % order * (m // order)
    x, first = merge_columns(weights, m, list(columns.T))
    bad = np.flatnonzero(first < n)
    if bad.size:
        r = bad[0]
        raise InternalDefect(
            f"search class {r} of {weights} at order {order} certifies "
            f"not_CY: columns 0..{first[r]} are jointly unsolvable")
    g = np.gcd(x, m)
    return exps.tolist(), np.column_stack((m // g, x // g)).tolist()


def search_q_params(weights, order: int) -> list[AlgebraSpec]:
    """Calabi-Yau exponent matrices for the given weights at root order N.

    Candidates are antisymmetric with unit diagonal; entry (i, j) must
    satisfy q_ij^{h_i} = q_ij^{h_j} = 1, which confines the exponent to
    multiples of a stride computed per pair.  One representative per class
    under weight-preserving permutations (the least in lexicographic order)
    is returned, in increasing order.
    """
    weights = tuple(sorted(weights))
    return [AlgebraSpec(weights, order, mat)
            for mat in _search_classes(weights, order)[0]]


@dataclass(frozen=True)
class SweepRow:
    weights: tuple[int, ...]
    order: int
    exponents: tuple[tuple[int, ...], ...]
    census: CensusReport

    @property
    def spec(self) -> AlgebraSpec:
        return AlgebraSpec(self.weights, self.order, self.exponents)


def sweep_census(weight_systems) -> list[SweepRow]:
    """Census of every canonical CY spec over the given weight systems.

    Only surface-shaped systems (four weights starting 1, 1) are swept;
    others are skipped.  Each system uses its natural root order N = d.
    Every class the search returns is certified CY, so one census call per
    system takes all its classes without rechecking their hypotheses
    (points._census).  The census reads the pair scalars of each class's
    two affine charts from its exponents, so the sweep builds no spec: a
    row holds the class's order and exponents, and builds its spec when
    `row.spec` is read.
    """
    rows = []
    for entry in weight_systems:
        ws = entry if isinstance(entry, WeightSystem) else weight_system(entry)
        w, order = ws.weights, ws.total_degree
        if not _is_surface(w):
            continue
        matrices, _ = _search_classes(w, order)
        for mat, report in zip(matrices, _census(w, order, matrices)):
            rows.append(SweepRow(w, order, tuple(map(tuple, mat)), report))
    return rows
