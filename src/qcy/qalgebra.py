"""Quantum weighted polynomial rings with root-of-unity parameters.

An AlgebraSpec fixes generators x_0..x_n with positive integer weights and
a parameter matrix q over a common root order N, subject to the relations
x_j x_i = q_ji x_i x_j.  Elements are kept in normal order (exponent
vectors), coefficients in Z[zeta_N], so every product is a reorder scalar
times a monomial and all identities here are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .cyclo import CycInt, RootScalar, _integer, image_size, kernel_lattice, lattice_contains
from .errors import HypothesisViolation, InternalDefect

# Most generators of a chart center_lattice takes.  Its Hermite and Smith
# forms mod N grow with N's digits: on a 2 vCPU Xeon, random exponents at
# order 10^1000 took 0.35-0.48 s with 16 generators and 0.8 s with 20.
CENTER_GENERATOR_BOUND = 16


@dataclass(frozen=True, slots=True)
class AlgebraSpec:
    """Weights, root order and the exponent matrix of the q parameters.

    q_ij = zeta_order ** exponents[i][j].  Construction checks shape and
    integer entries only; the algebraic hypotheses (unit diagonal,
    antisymmetry, Fermat orders) are examined by validate_spec so that
    violating inputs can still be represented and reported.
    """

    weights: tuple[int, ...]
    order: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        order = _integer(self.order, "root order")
        if order < 1:
            raise ValueError("root order must be positive")
        weights = tuple([_integer(a, "weight") for a in self.weights])
        exps = tuple([tuple([_integer(e, "exponent") % order for e in row])
                      for row in self.exponents])
        n = len(weights)
        if not n:
            raise ValueError("need at least one generator")
        if min(weights) < 1:
            raise ValueError(f"weights must be positive, got {weights}")
        if list(map(len, exps)) != [n] * n:
            raise ValueError("exponent matrix shape must match the weight count")
        object.__setattr__(self, "order", order)
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
            exps = tuple([_integer(e, "monomial exponent") for e in exps])
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
    def monomial(cls, order: int, exps, coeff=1) -> "SkewPoly":
        return cls(order, len(tuple(exps)), {tuple(exps): coeff})

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
        if len(weights) != self.nvars:
            raise ValueError(
                f"polynomial in {self.nvars} variables against {len(weights)} weights")
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
    e = 0
    n = spec.nvars
    for i in range(n):
        r = right[i]
        if r:
            for j in range(i + 1, n):
                if left[j]:
                    e += spec.exponents[j][i] * r * left[j]
    return RootScalar(spec.order, e)


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


def _central_mask(exps, spec: AlgebraSpec) -> list[bool]:
    """Which rows e of `exps` give a central monomial x^e.

    x_k x^e and x^e x_k have reorder exponents sum_{i<k} E_ki e_i and
    sum_{j>k} E_jk e_j, whose difference is (M e)_k with M = L - L^T and
    L = tril(E, -1); so x^e is central when M e = 0 (mod N), one integer
    product for every generator and every row, exact in Python ints.
    """
    n, m, e = spec.order, spec.nvars, spec.exponents
    skew = [[e[k][i] if i < k else -e[i][k] if i > k else 0 for i in range(m)]
            for k in range(m)]
    return [all(sum(s * x for s, x in zip(row, v)) % n == 0 for row in skew)
            for v in exps]


def is_central(p: SkewPoly, spec: AlgebraSpec) -> bool:
    """Monomial by monomial: x_k p and p x_k have terms at the same e + 1_k, and
    Z[zeta_N] has no zero divisors, so no cyclotomic integer is multiplied."""
    if p.nvars != spec.nvars:
        raise ValueError(
            f"polynomial in {p.nvars} variables against {spec.nvars} generators")
    return all(_central_mask(p.terms, spec))


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
    """Chart scalars q'_jk after inverting x_i, one _chart_exponent per pair.

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
    args = spec.exponents, spec.weights, spec.order, inverted
    chart = AlgebraSpec.unweighted(spec.order, [
        [_chart_exponent(*args, j, k) for k in kept] for j in kept])
    return ChartParams(spec=chart, kept=kept)


def _chart_exponent(exponents, weights, order: int, t: int, j: int, k: int) -> int:
    """Exponent of the pair scalar q'_jk = q_tj^{a_k} q_jk q_kt^{a_j} of the
    chart at x_t, where q_ij = zeta_order^exponents[i][j] and a = weights.

    Only x_t, x_j and x_k enter, so for j, k > t it is also a pair scalar
    of the chart at x_t of the subalgebra on x_t, x_{t+1}, ...
    """
    e, a = exponents, weights
    return (a[k] * e[t][j] + e[j][k] + a[j] * e[k][t]) % order


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
        return lattice_contains(self.basis, vec)


def center_lattice(spec: AlgebraSpec) -> CenterLattice:
    """Central-monomial lattice K = {e : E . e = 0 mod N} of the matrix of spec.

    Assumes unit diagonal and antisymmetry (a validated spec or a chart
    matrix).  The kernel's basis is proved to span K: (1) it is a square
    Hermite form (upper triangular, positive pivots), so its lattice L has
    index the pivots' product; (2) its rows are central by the direct route
    (_central_mask), so L lies in K; (3) that index equals image_size(E, N),
    which is [Z^m : K], as e -> E e mod N maps Z^m / K onto the image.  A
    failed item is an InternalDefect.  Exact at any order; charts of more
    than CENTER_GENERATOR_BOUND generators are refused before any work.
    """
    n, e, m = spec.order, spec.exponents, spec.nvars
    if m > CENTER_GENERATOR_BOUND:
        raise ValueError(f"center of a chart of {m} generators is above "
                         f"CENTER_GENERATOR_BOUND = {CENTER_GENERATOR_BOUND}")
    mat = [list(r) for r in e]
    basis = kernel_lattice(mat, n)
    if len(basis) != m or any(r[i] < 1 or any(r[:i]) for i, r in enumerate(basis)):
        raise InternalDefect(
            f"kernel basis of {len(basis)} rows is not a {m} x {m} Hermite form")
    central = _central_mask(basis, spec)
    if not all(central):
        row = tuple(basis[central.index(False)])
        raise InternalDefect(f"kernel basis row {row} is not central")
    index, size = prod(r[i] for i, r in enumerate(basis)), image_size(mat, n)
    if index != size:
        raise InternalDefect(f"kernel basis has index {index}, but E has an image of {size}")
    pure = [n // gcd(n, *(row[i] for row in e)) for i in range(m)]
    mixed = next((tuple(row) for row in basis
                  if any(row[i] % pure[i] for i in range(m))), None)
    return CenterLattice(
        order=n,
        basis=tuple(tuple(r) for r in basis),
        pure_powers=tuple(pure),
        mixed_generator=mixed,
    )
