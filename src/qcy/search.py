"""Enumeration of admissible weight systems and parameter sweeps.

Weight systems are sorted tuples with gcd 1 whose entries all divide the
total degree.  For a fixed system and root order, search_q_params lists
one Calabi-Yau exponent matrix per class under weight-preserving generator
permutations.

The search first passes to its effective order.  With h_i = d / a_i, each
q_ij satisfies q_ij^{h_i} = q_ij^{h_j} = 1, so it lies in mu_B for
B = B_ij = gcd(N, h_i, h_j); the CY set depends on N only through
N'' = lcm over pairs i < j of B_ij, a divisor of N.  At N'' every pair has
the same box B_ij and the same lattice points, and a matrix at N is N / N''
times one at N''.  Dividing the weights by g = gcd(a) keeps every h_i, and
for a' = a / g, with gcd(a') = 1, sum_j u_j a'_j = 1 makes
c' = prod_j col_j^{u_j} the only root with c'^{a'_j} = col_j (col_j the
product of column j's q_ij), one in mu_{N''}.  So the lattice, the walk,
the moves and the certification below all run on a' at order N'' and
modulo N'' itself, and a search is refused if N'' > SEARCH_BOUND before a
row of it is built, as it holds at least N'' matrices (below).  The
classes then leave at N: each matrix times N / N'', and each witness the
least-angle g-th root of c' = zeta_m^x, which is zeta_{g m}^x, as
certify_weighted picks it.

Why |CY| >= N''.  Take the CY group, the lattice digits k (k_p mod B_p) of
the CY matrices at N''.  Suppose it does not map onto mu_{B_p} for some
pair p = (i, j).  By duality some w in Z^n has sum_l a'_l w_l = 0
(mod N''), w_l = w_m (mod B_lm) for every pair other than p, and
w_i != w_j (mod B_p).  Take a prime q with v_q(w_i - w_j) < f = v_q(B_p).
A third index l with v_q(h_l) >= f would put q^f in B_il and B_lj, so
w_i = w_l = w_j (mod q^f); hence every other h_l has v_q(h_l) < f, and
v_q(N'') = f.  Expand the sum
around w_j: d' w_j (d' = sum a') and each a'_l (w_l - w_j), l != i, j,
vanish mod q^f, as v_q(a'_l) + v_q(h_l) = v_q(d') >= f and
v_q(w_l - w_j) >= v_q(B_lj) = v_q(h_l).  What is left is
a'_i (w_i - w_j) = 0, so q | a'_i; likewise q | a'_j.  Every other a'_l
has v_q(a'_l) > v_q(d') - f >= v_q(a'_i) >= 1, so q divides every
weight, against gcd(a') = 1.  Hence the CY group has an element of order
B_p at each pair, and so exponent N'' and at least N'' elements.

The CY condition is linear in the exponents, so the CY matrices are the
points of a lattice (one Hermite form modulo N'', Cohen GTM 138 Algorithm
2.4.8, priced against HERMITE_BOUND before a row of it is built),
enumerated directly and in increasing order as the columns of one int64
array; their count is known before the walk, and a search of more than
SEARCH_BOUND of them is refused up front.  The group needs no table: a
transposition and a cycle per class of equal weights generate it (Seress,
Permutation Group Algorithms, 2003).  A point's row index is its free
lattice digits read as a mixed-radix number, so each generator moves all
points at once to the indices of their images, and each image is checked
to be the point found there.  Min-propagation with pointer jumping over
those moves labels every point with the least index in its orbit; the
points that are their own label are the class representatives, each the
least of its orbit (isomorph-free generation, McKay 1998).  The
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
from math import comb, gcd, lcm, log, prod

import numpy as np

from .cyclo import _integer, kernel_lattice, merge_columns
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
# the largest accepted search takes about a second and under 200 MB.  The
# effective order N'' is at most the count, so every array entry, a
# residue modulo N'' or a product of two, fits in int64.
SEARCH_BOUND = 10**5

# Most row-entry steps, P^2 (n + P) for P = n (n - 1) / 2 pairs, of the
# Hermite form behind _cy_lattice (P + 1 rows of width n + P + 1, most live
# through most columns and meet each pivot in one step along their width):
# the search's one cost before SEARCH_BOUND, priced from n before a row is
# built.  Doubling weights (1, 1, 2, 4, ...) at order 2 take 0.14, 0.39,
# 0.74 and 1.35 s at n = 20, 24, 27 and 30 on a 2 vCPU Xeon, unit weights
# about half: n = 27 is the largest accepted.
HERMITE_BOUND = 5 * 10**7

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
    """The Calabi-Yau exponent matrices of weights with gcd 1 at order N, as
    a lattice modulo a box.

    Entry e_p of pair p = (i, j), i < j, is stride_p * k_p with k_p mod
    box_p = N / stride_p.  With c = zeta_N^x (gcd(a) = 1 puts c in mu_N;
    see the module docstring), the CY condition reads
    sum_p B_jp stride_p k_p - a_j x = 0 (mod N), B the signed incidence
    matrix (column j gains e_ij for i < j and loses e_ji for i > j).  Its
    solutions (k, x) are the kernel modulo N of (stride_p B_.p | -a), whose
    basis rows but the last (the x pivot), less x, are the triangular basis
    of the k.  It holds each box_p e_p, as box_p stride_p = N.  Returns
    (pairs, strides, boxes, basis).
    """
    n = len(weights)
    d = sum(weights)
    h = [d // a for a in weights]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strides = [lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
               for i, j in pairs]
    boxes = [order // s for s in strides]
    mat = [[s * ((j == col) - (i == col))
            for (i, j), s in zip(pairs, strides)] + [-a]
           for col, a in enumerate(weights)]
    basis = [r[:-1] for r in kernel_lattice(mat, order)[:-1]]
    return pairs, strides, boxes, basis


def _lattice_points(boxes, basis) -> tuple[np.ndarray, list[int]]:
    """Every point of the lattice modulo the box, in increasing order, as one
    int64 column per pair (point r is column entry r of each), and the place
    value of each digit of a point's row index.

    Row p of the triangular basis has pivot diag_p | box_p: once k_0 ..
    k_{p-1} are fixed, k_p runs over v = (acc_p mod diag_p) + diag_p t for
    t < box_p / diag_p, and adding the multiple of row p that reaches v
    leaves the earlier entries alone.  Each free position (diag_p < box_p)
    multiplies the points by box_p / diag_p, t increasing, so they come
    out in the lexicographic order of the exponent matrices; where
    diag_p = box_p that multiple is 0.  Each point is repeated once per t,
    and only the columns where row p is nonzero (never before p) are
    stepped and reduced, in place.  The row index of a point is then its
    digits t_p = k_p // diag_p read as a mixed-radix number (first pair
    most significant), which stays below the point count; a fixed
    position's digit is 0.  Each step adds c * row_p with |c| and the
    entries below the box, which divides the effective order.
    """
    columns = np.zeros((len(boxes), 1), np.int64)
    for p, row in enumerate(basis):
        diag = row[p]
        if diag == boxes[p]:
            continue
        c = np.arange(boxes[p] // diag, dtype=np.int64) - (columns[p] // diag)[:, None]
        columns = np.repeat(columns, c.shape[1], axis=1)
        points = columns.reshape(len(boxes), *c.shape)
        for q in range(p, len(boxes)):
            if row[q]:
                points[q] += row[q] * c
                points[q] %= boxes[q]
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
    sorted weights, in increasing order, and its witness, by the steps the
    module docstring names, at the effective order N'' on the weights over
    their gcd.  An image that is not the point at its computed index, or a
    representative that does not certify CY, raises InternalDefect; a
    Hermite form priced over HERMITE_BOUND, an effective order above
    SEARCH_BOUND, or more than SEARCH_BOUND CY matrices, is refused before
    the lattice or its points are built.
    """
    ws = weight_system(weights)
    weights = ws.weights
    if not all(ws.divides):
        raise ValueError(
            f"every weight must divide the total degree, got {weights}")
    order = _integer(order, "order")
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    n = len(weights)
    if n < 2:
        # k[x]/(x^h) has empty Proj: certify_weighted refuses every spec.
        return [], []
    p = comb(n, 2)
    if (cost := p * p * (n + p)) > HERMITE_BOUND:
        raise ValueError(
            f"the Calabi-Yau lattice of weights {weights} needs a Hermite form "
            f"of {cost} row-entry steps, above HERMITE_BOUND = {HERMITE_BOUND}")
    # B_ij = gcd(N, h_i, h_j) from each gcd(N, h_i)
    part = [gcd(order, ws.total_degree // a) for a in weights]
    reduced = lcm(*(gcd(part[i], part[j]) for i in range(n) for j in range(i + 1, n)))
    if reduced > SEARCH_BOUND:
        raise ValueError(
            f"search of weights {weights} has effective order {reduced}, so at "
            f"least as many Calabi-Yau exponent matrices, above "
            f"SEARCH_BOUND = {SEARCH_BOUND}")
    g = gcd(*weights)
    weights = tuple(a // g for a in weights)
    pairs, strides, boxes, basis = _cy_lattice(weights, reduced)
    size = prod(box // basis[p][p] for p, box in enumerate(boxes))
    if size > SEARCH_BOUND:
        raise ValueError(
            f"search of weights {ws.weights} at effective order {reduced} has "
            f"{size} Calabi-Yau exponent matrices, above SEARCH_BOUND = {SEARCH_BOUND}")
    columns, places = _lattice_points(boxes, basis)
    diag = [row[p] for p, row in enumerate(basis)]
    moves = _moves(columns, diag, boxes, places, _generators(weights))
    if moves is None:
        raise InternalDefect(
            f"CY matrices of {weights} at order {reduced} are not "
            "closed under weight-preserving permutations")
    label = _least_in_orbit(moves)
    reps = np.flatnonzero(label == np.arange(len(label)))
    matrices, witnesses = _certify_classes(
        weights, reduced, pairs, strides, columns[:, reps].T)
    if (scale := order // reduced) > 1:
        matrices = [[[e * scale for e in row] for row in mat] for mat in matrices]
    if g > 1:
        # zeta_m^x, reduced, has least-angle g-th root zeta_(g m)^x
        witnesses = [[g * m // (c := gcd(g, x)), x // c] for m, x in witnesses]
    return matrices, witnesses


def _exponent_matrices(n, order, pairs, strides, ks) -> np.ndarray:
    """The exponent matrices of rows of lattice digits as one int64
    (R, n, n) array: e_ij = stride_p k_p and e_ji = -e_ij mod N for
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
    validate_spec reads it, not from the strides that built exps, and
    modulo N, so each product stays below N^2.
    """
    n = exps.shape[1]
    h = np.array([sum(weights) // a % order for a in weights], exps.dtype)
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


def _certify_classes(weights, order, pairs, strides, ks) -> tuple[list, list]:
    """The exponent matrix and certify_weighted's witness for each row of
    lattice digits, all rows in one array pass, for weights with gcd 1.

    The exponent matrices (_exponent_matrices) are checked against
    certify_weighted's hypotheses: unit diagonal, antisymmetry, and
    q_ij^{h_i} = q_ij^{h_j} = 1 (_violated_hypothesis).  Their column
    systems c^{a_j} = prod_i q_ij are solved by one merge over all rows
    (merge_columns) modulo N itself, as gcd(a) = 1 puts c in mu_N; only
    the residues depend on the rows.  Returns (matrices, witnesses) as
    nested lists of Python ints; witness [N / g, x / g], g = gcd(x, N), is
    the reduced pair of c = zeta_N^x that certify_weighted stores.  A row
    failing a hypothesis or its column system raises InternalDefect: the
    lattice is the CY set, and this derives CY from the columns alone.
    """
    n = len(weights)
    exps = _exponent_matrices(n, order, pairs, strides, ks)
    violated = _violated_hypothesis(exps, order, weights)
    if violated is not None:
        kind, r = violated
        raise InternalDefect(
            f"search class {r} of {weights} at order {order} violates {kind}")
    x, first = merge_columns(weights, order, list(exps.sum(axis=1).T % order))
    bad = np.flatnonzero(first < n)
    if bad.size:
        r = bad[0]
        raise InternalDefect(
            f"search class {r} of {weights} at order {order} certifies "
            f"not_CY: columns 0..{first[r]} are jointly unsolvable")
    g = np.gcd(x, order)
    return exps.tolist(), np.column_stack((order // g, x // g)).tolist()


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
