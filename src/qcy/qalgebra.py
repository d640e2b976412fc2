"""Quantum weighted polynomial rings with root-of-unity parameters.

An AlgebraSpec fixes generators x_0..x_n with positive integer weights and
a parameter matrix q over a common root order N, subject to the relations
x_j x_i = q_ji x_i x_j.  Elements are kept in normal order (exponent
vectors), coefficients in Z[zeta_N], so every product is a reorder scalar
times a monomial and all identities here are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from .cyclo import CycInt, RootScalar, kernel_lattice, lattice_contains
from .errors import HypothesisViolation, InternalDefect

# Most steps center_lattice's cross-check may take, priced before it starts:
# C(m + 6, 6) monomials of degree at most 6, each compared with the m
# generators by two reorder exponents of O(m) steps.  A step takes about
# 0.9 us when every monomial is central (the worst case) on a 2 vCPU Xeon,
# so the largest accepted chart, m = 10 (800,800 steps), takes 0.65-0.8 s,
# and m = 11 (1,497,496) is refused.
CENTER_CHECK_BOUND = 10**6


@dataclass(frozen=True, slots=True)
class AlgebraSpec:
    """Weights, root order and the exponent matrix of the q parameters.

    q_ij = zeta_order ** exponents[i][j].  Construction checks shape only;
    the algebraic hypotheses (unit diagonal, antisymmetry, Fermat orders)
    are examined by validate_spec so that violating inputs can still be
    represented and reported.
    """

    weights: tuple[int, ...]
    order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        order = self.order
        if order < 1:
            raise ValueError("root order must be positive")
        weights = tuple(map(int, self.weights))
        exps = tuple([tuple([int(e) % order for e in row]) for row in self.exponents])
        n = len(weights)
        if not n:
            raise ValueError("need at least one generator")
        if min(weights) < 1:
            raise ValueError(f"weights must be positive, got {weights}")
        if list(map(len, exps)) != [n] * n:
            raise ValueError("exponent matrix shape must match the weight count")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def unweighted(cls, order: int, exponents) -> "AlgebraSpec":
        """A spec with unit weights, for bare scalar matrices (charts)."""
        return cls((1,) * len(exponents), order, exponents)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def total_degree(self) -> int:
        return sum(self.weights)

    def q(self, i: int, j: int) -> RootScalar:
        return RootScalar(self.order, self.exponents[i][j])

    def fermat_exponents(self) -> tuple[int, ...]:
        """h_i = d / a_i; raises when some weight does not divide d."""
        d = self.total_degree
        for i, a in enumerate(self.weights):
            if d % a:
                raise HypothesisViolation(
                    f"weight {a} at index {i} does not divide the total degree {d}")
        return tuple(d // a for a in self.weights)

    def subspec(self, indices) -> "AlgebraSpec":
        """Restriction to a subset of generators, in the given index order."""
        idx = tuple(indices)
        return AlgebraSpec(
            tuple(self.weights[i] for i in idx),
            self.order,
            tuple(tuple(self.exponents[i][j] for j in idx) for i in idx),
        )


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple[int, ...]
    detail: str


def alternating_violations(spec: AlgebraSpec) -> tuple[Violation, ...]:
    """Every failure of unit diagonal (q_ii = 1) and antisymmetry (q_ij q_ji = 1)."""
    n = spec.order
    bad: list[Violation] = []
    for i in range(spec.nvars):
        if spec.exponents[i][i] % n:
            bad.append(Violation("diagonal", (i,), f"q_{i}{i} is not 1"))
    for i in range(spec.nvars):
        for j in range(i + 1, spec.nvars):
            if (spec.exponents[i][j] + spec.exponents[j][i]) % n:
                bad.append(Violation(
                    "antisymmetry", (i, j), f"q_{i}{j} * q_{j}{i} is not 1"))
    return tuple(bad)


def validate_spec(spec: AlgebraSpec) -> tuple[Violation, ...]:
    """Every violated hypothesis: unit diagonal, antisymmetry, Fermat orders.

    The Fermat hypotheses: weights divide the total degree and each q_ij
    satisfies q_ij^{h_i} = q_ij^{h_j} = 1.  All findings are collected,
    none raised; an empty tuple means the spec satisfies them all.
    """
    n = spec.order
    bad = list(alternating_violations(spec))
    d = spec.total_degree
    divisible = True
    for i, a in enumerate(spec.weights):
        if d % a:
            divisible = False
            bad.append(Violation(
                "weight-divisibility", (i,),
                f"weight {a} does not divide the total degree {d}"))
    if divisible:
        h = [d // a for a in spec.weights]
        for i in range(spec.nvars):
            for j in range(spec.nvars):
                if i == j:
                    continue
                e = spec.exponents[i][j]
                if (e * h[i]) % n or (e * h[j]) % n:
                    bad.append(Violation(
                        "entry-order", (i, j),
                        f"q_{i}{j} fails q^h_i = q^h_j = 1 for h = ({h[i]}, {h[j]})"))
    return tuple(bad)


@dataclass(frozen=True, slots=True)
class SkewPoly:
    """Normal-ordered element: exponent vectors with CycInt coefficients."""

    order: int
    nvars: int
    terms: dict[tuple[int, ...], CycInt]

    def __post_init__(self):
        clean = {}
        for exps, coeff in dict(self.terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if isinstance(coeff, int):
                coeff = CycInt.from_int(self.order, coeff)
            elif isinstance(coeff, RootScalar):
                coeff = CycInt.from_root(coeff, self.order)
            if coeff.order != self.order:
                raise ValueError("coefficient order does not match the spec order")
            if not coeff.is_zero():
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, order: int, nvars: int) -> "SkewPoly":
        return cls(order, nvars, {})

    @classmethod
    def monomial(cls, order: int, exps, coeff=1) -> "SkewPoly":
        return cls(order, len(tuple(exps)), {tuple(exps): coeff})

    @classmethod
    def gen(cls, order: int, nvars: int, i: int) -> "SkewPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(order, nvars, {tuple(exps): 1})

    def _check(self, other: "SkewPoly"):
        if self.order != other.order or self.nvars != other.nvars:
            raise ValueError("mixed polynomial contexts")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return SkewPoly(self.order, self.nvars, acc)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.order, self.nvars,
                        {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self, weights) -> int | None:
        """The common weighted degree of all terms, or None if mixed/zero."""
        degs = {sum(w * e for w, e in zip(weights, exps)) for exps in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __hash__(self):
        return hash((self.order, self.nvars, frozenset(self.terms.items())))


def reorder_scalar(left, right, spec: AlgebraSpec) -> RootScalar:
    """Scalar sigma with x^left x^right = sigma x^(left+right).

    Moving x^right's variables leftward past x^left's higher-index ones
    picks up sigma = prod_{i<j} q_ji^{right_i * left_j}; a bicharacter in
    each argument.
    """
    return RootScalar(spec.order, _reorder_exponent(left, right, spec))


def _reorder_exponent(left, right, spec: AlgebraSpec) -> int:
    """reorder_scalar's exponent of zeta_N, as an unreduced integer."""
    e = 0
    n = spec.nvars
    for i in range(n):
        r = right[i]
        if r:
            for j in range(i + 1, n):
                if left[j]:
                    e += spec.exponents[j][i] * r * left[j]
    return e


def multiply(p: SkewPoly, r: SkewPoly, spec: AlgebraSpec) -> SkewPoly:
    """Product in the quantum ring, coefficients in Z[zeta_N]."""
    acc: dict[tuple[int, ...], CycInt] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in r.terms.items():
            sigma = reorder_scalar(e1, e2, spec)
            coeff = c1 * c2 * CycInt.from_root(sigma, spec.order)
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc[key] + coeff if key in acc else coeff
    return SkewPoly(p.order, p.nvars, acc)


def fermat(spec: AlgebraSpec) -> SkewPoly:
    """sum_i x_i^{d/a_i}; raises when some weight does not divide d."""
    h = spec.fermat_exponents()
    acc = {}
    for i, hi in enumerate(h):
        exps = [0] * spec.nvars
        exps[i] = hi
        acc[tuple(exps)] = 1
    return SkewPoly(spec.order, spec.nvars, acc)


def _monomial_is_central(exps, spec: AlgebraSpec) -> bool:
    """x_k x^e = x^e x_k for every generator k: equal reorder exponents mod N."""
    n, m = spec.order, spec.nvars
    for k in range(m):
        unit = tuple(int(i == k) for i in range(m))
        if (_reorder_exponent(unit, exps, spec) - _reorder_exponent(exps, unit, spec)) % n:
            return False
    return True


def is_central(p: SkewPoly, spec: AlgebraSpec) -> bool:
    """Monomial by monomial: x_k p and p x_k have terms at the same e + 1_k, and
    Z[zeta_N] has no zero divisors, so no cyclotomic integer is multiplied."""
    return all(_monomial_is_central(e, spec) for e in p.terms)


@dataclass(frozen=True)
class ChartParams:
    """Parameter matrix of the localized degree-0 chart at one generator.

    `spec` carries the chart scalars q'_jk (weights are all 1; the chart
    generators x_j / x_i^{a_j} sit in degree 0); `kept` maps chart indices
    back to the original generator indices.
    """

    spec: AlgebraSpec
    kept: tuple[int, ...]


def chart_parameters(spec: AlgebraSpec, inverted: int) -> ChartParams:
    """Chart scalars q'_jk = q_ij^{a_k} q_jk q_ki^{a_j} after inverting x_i.

    Requires a generator index in range and weight 1 there (so degree-0
    chart generators exist); everything else is exponent arithmetic on the
    bicharacter.
    """
    if not 0 <= inverted < spec.nvars:
        raise ValueError(
            f"chart index {inverted} out of range for {spec.nvars} generators")
    if spec.weights[inverted] != 1:
        raise ValueError(
            f"chart requires weight 1 at index {inverted}, "
            f"got {spec.weights[inverted]}")
    kept = tuple(j for j in range(spec.nvars) if j != inverted)
    chart = AlgebraSpec.unweighted(spec.order, _chart_exponents(spec, inverted, kept))
    return ChartParams(spec=chart, kept=kept)


def _chart_exponents(spec: AlgebraSpec, t: int, kept) -> tuple[tuple[int, ...], ...]:
    """Exponents of q'_jk = q_tj^{a_k} q_jk q_kt^{a_j} for j, k in `kept`.

    Only x_t and the kept generators enter, so with kept = (t+1, ..,) this
    is the chart at x_t of the subalgebra on x_t, x_{t+1}, ...
    """
    e = spec.exponents
    a = spec.weights
    n = spec.order
    return tuple(
        tuple([(a[k] * e[t][j] + e[j][k] + a[j] * e[k][t]) % n for k in kept])
        for j in kept)


@dataclass(frozen=True)
class CenterLattice:
    """Exponent lattice of central monomials of a scalar matrix.

    basis rows are in Hermite normal form.  pure_powers[i] is the least
    k with x_i^k central; when the lattice is strictly larger than the
    sublattice those pure powers generate, mixed_generator holds a witness
    vector, flagging that the central monomials are not just products of
    pure powers.
    """

    order: int
    basis: tuple[tuple[int, ...], ...]
    pure_powers: tuple[int, ...]
    mixed_generator: tuple[int, ...] | None

    @property
    def has_mixed(self) -> bool:
        return self.mixed_generator is not None

    def contains(self, vec) -> bool:
        return lattice_contains([list(r) for r in self.basis], vec)


def center_lattice(spec: AlgebraSpec) -> CenterLattice:
    """Central-monomial lattice {e : E . e = 0 mod N} of the matrix of spec.

    Assumes unit diagonal and antisymmetry (a validated spec or a chart
    matrix).  The kernel route is cross-checked by the reorder exponents of
    every monomial of total degree at most 6: exponent arithmetic, O(1) in N.
    A cross-check priced above CENTER_CHECK_BOUND steps is refused before
    any work.
    """
    n = spec.order
    e = spec.exponents
    m = spec.nvars
    cost = comb(m + 6, 6) * m * m
    if cost > CENTER_CHECK_BOUND:
        raise ValueError(
            f"centrality cross-check of {m} generators takes {cost} steps, "
            f"above CENTER_CHECK_BOUND = {CENTER_CHECK_BOUND}")
    basis = kernel_lattice([list(r) for r in e], n)
    pure = []
    for i in range(m):
        col_gcd = gcd(n, *(e[r][i] for r in range(m)))
        pure.append(n // col_gcd)
    mixed = None
    for row in basis:
        if any(row[i] % pure[i] for i in range(m)):
            mixed = tuple(row)
            break
    for exps in map(tuple, monomials_up_to((1,) * m, 6)[0].tolist()):
        if _monomial_is_central(exps, spec) != lattice_contains(basis, exps):
            raise InternalDefect(
                f"lattice and direct centrality disagree at {exps}")
    return CenterLattice(
        order=n,
        basis=tuple(tuple(r) for r in basis),
        pure_powers=tuple(pure),
        mixed_generator=mixed,
    )


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
