"""Point schemes, simple-module counts and PI degrees of quantum rings.

The torus strata of the point scheme of a quantum polynomial ring are
indexed by supports whose parameter triples multiply to 1; on a product
of two rings, by pairs of such supports.  One cut rule serves both: each
equation restricted to a stratum empties it when one term survives and
cuts one dimension when two or more do.  On affine charts the count of
one-dimensional simple modules is governed by the pair scalars alone,
which is what the closed-point census of a weighted surface adds up
chart by chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, isqrt, prod

from .cyclo import image_size
from .errors import HypothesisViolation, InternalDefect
from .qalgebra import AlgebraSpec, _chart_exponents, validate_spec


class _InfiniteType:
    """Marker for an infinite closed-point count."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __bool__(self):
        return True


INFINITE = _InfiniteType()

# Most steps a walk over torus strata may take, priced before it starts:
# the 2^m supports of m generators and their C(m, 3) 2^(m-3) triples, or
# each product of supports times the equations' terms.  At 0.1-0.2 us a
# step on a 2 vCPU Xeon, 16 generators and two sides of 9 (4.7 * 10^6
# steps each) take under a second; 17 generators (1.1 * 10^7) are refused.
STRATUM_BOUND = 5 * 10**6


def _is_surface(weights) -> bool:
    """Weights of the shape (1, 1, a, b), which the census covers."""
    return len(weights) == 4 and weights[0] == weights[1] == 1


# -- torus strata -----------------------------------------------------------


def _good_triples(spec: AlgebraSpec) -> dict[tuple[int, int, int], bool]:
    """Whether q_ij q_jk q_ki is 1, for each triple i < j < k."""
    e = spec.exponents
    n = spec.order
    return {(i, j, k): (e[i][j] + e[j][k] + e[k][i]) % n == 0
            for i, j, k in combinations(range(spec.nvars), 3)}


def is_special(spec: AlgebraSpec) -> bool:
    """Every parameter triple q_ij q_jk q_ki is 1 (antisymmetry assumed)."""
    return all(_good_triples(spec).values())


def admissible_supports(spec: AlgebraSpec) -> list[tuple[int, ...]]:
    """Nonempty supports all of whose triples have trivial parameter product.

    Singletons and pairs are always admissible; a larger support is
    admissible iff each of its 3-subsets is.  Sorted by size, then
    lexicographically.  Refused above STRATUM_BOUND steps, before the walk.
    """
    m = spec.nvars
    steps = (comb(m, 3) << max(m - 3, 0)) + 2**m
    if steps > STRATUM_BOUND:
        raise ValueError(f"the supports of {m} generators take {steps} steps, "
                         f"above STRATUM_BOUND = {STRATUM_BOUND}")
    good_triple = _good_triples(spec)
    out = []
    for size in range(1, m + 1):
        for sub in combinations(range(m), size):
            if all(good_triple[t] for t in combinations(sub, 3)):
                out.append(sub)
    return out


def _support_masks(supports, shift: int = 0) -> list[int]:
    """Supports as bit masks, generator i on bit shift + i."""
    return [sum(1 << (shift + i) for i in s) for s in supports]


def _cut_dimension(sides, equations) -> int | None:
    """Largest dimension of a product of admissible strata, one per side.

    `sides` holds each side's support masks (the sides on disjoint bits);
    `equations` holds each equation's terms as masks of the generators the
    monomial involves.  A product of supports S has dimension sum(|S| - 1);
    an equation keeping a single term on it empties it, one keeping two or
    more cuts one dimension.  None when every stratum dies.  Refused above
    STRATUM_BOUND steps, before the walk.
    """
    steps = prod(map(len, sides)) * sum(map(len, equations))
    if steps > STRATUM_BOUND:
        raise ValueError(f"the strata of {len(sides)} side(s) take {steps} steps, "
                         f"above STRATUM_BOUND = {STRATUM_BOUND}")
    best = None
    for supports in product(*sides):
        union = 0
        for s in supports:
            union |= s
        dim = sum(s.bit_count() - 1 for s in supports)
        for terms in equations:
            alive = sum(1 for t in terms if t & union == t)
            if alive == 1:
                break
            if alive >= 2:
                dim -= 1
        else:
            if best is None or dim > best:
                best = dim
    return best


def max_stratum_dimension(spec: AlgebraSpec, supports=None) -> int | None:
    """Largest torus stratum dimension with the Fermat equation imposed.

    The Fermat equation keeps every term x_i^{h_i} of a support, since
    h_i = d / a_i >= 1: a singleton stratum dies, a larger one loses one
    dimension.  Raises HypothesisViolation when some weight does not
    divide the total degree, as the Fermat element is then undefined.
    A caller holding the spec's admissible_supports passes them, and
    they are not walked again.
    """
    spec.fermat_exponents()
    if supports is None:
        supports = admissible_supports(spec)
    fermat = [1 << i for i in range(spec.nvars)]
    return _cut_dimension([_support_masks(supports)], [fermat])


def point_scheme_dim_product(
    spec_a: AlgebraSpec, spec_b: AlgebraSpec, g_shape: str = "fermat"
) -> int | None:
    """Dimension of the point scheme of a two-sided Fermat intersection.

    Strata are products of admissible torus strata, cut by the same rule
    as max_stratum_dimension.  f is the Fermat element of side A; g is
    "fermat" (side B pure powers) or "mixed" (terms x_l y_l pairing the
    first min(#A, #B) indices).  Returns the maximum dimension, or None
    when every stratum dies.
    """
    na = spec_a.nvars  # side B sits on bits na, na + 1, ...
    f = [1 << i for i in range(na)]
    if g_shape == "fermat":
        g = [1 << (na + j) for j in range(spec_b.nvars)]
    elif g_shape == "mixed":
        g = [1 << l | 1 << (na + l) for l in range(min(na, spec_b.nvars))]
    else:
        raise ValueError(f"unknown g shape {g_shape!r}")
    sides = [_support_masks(admissible_supports(spec_a)),
             _support_masks(admissible_supports(spec_b), na)]
    return _cut_dimension(sides, [f, g])


# -- PI degree --------------------------------------------------------------


def pi_degree(spec: AlgebraSpec) -> int:
    """Square root of the image size of the exponent matrix on (Z/N)^m.

    The image size of an antisymmetric exponent matrix is a perfect
    square; a non-square is an internal defect, not an answer.
    """
    size = image_size([list(r) for r in spec.exponents], spec.order)
    root = isqrt(size)
    if root * root != size:
        raise InternalDefect(
            f"exponent-matrix image has non-square size {size}")
    return root


# -- chart counts and the census --------------------------------------------


@dataclass(frozen=True)
class ChartItem:
    """One locus of simple modules: the support and its count."""

    support: tuple[int, ...]
    count: object  # int | INFINITE


@dataclass(frozen=True)
class TwoVarCount:
    factors: int
    shifts: int

    @property
    def count(self) -> int:
        return self.factors * self.shifts


def two_var_fermat_count(a: int, b: int, d: int) -> TwoVarCount:
    """Point count of Proj of weighted k[x,y] / (x^{d/a} + y^{d/b}).

    x^{d/a} + y^{d/b} splits into t = d gcd(a,b) / (a b) binomial factors
    x^{b/g} - zeta y^{a/g}, each contributing gcd(a, b) shift classes of
    graded simples.  Twisting by a pair scalar does not change the count.
    """
    g = gcd(a, b)
    if a < 1 or b < 1 or d < 1:
        raise ValueError("weights and degree must be positive")
    if d % (a * b // g):
        raise ValueError(
            f"lcm({a}, {b}) must divide {d} for the Fermat quotient to split")
    return TwoVarCount(factors=d * g // (a * b), shifts=g)


@dataclass(frozen=True)
class CensusChart:
    """One chart of the census; `spec` holds its chart scalars q'_jk, None
    for the closed stratum, which has no chart."""

    chart: int
    description: str
    count: object  # int | INFINITE
    items: tuple[ChartItem, ...]
    trivial_pairs: tuple[tuple[int, int], ...]
    spec: AlgebraSpec | None


@dataclass(frozen=True)
class CensusReport:
    weights: tuple[int, ...]
    order: int
    charts: tuple[CensusChart, ...]
    total: object  # int | INFINITE


@dataclass(frozen=True)
class _ChartPlan:
    """What one census chart takes from the weights alone: x_chart inverted
    and the generators before it zero, its kept generators, the singleton
    items y_j^{h_j} = -1 with their h_j points, and their sum."""

    chart: int
    description: str
    kept: tuple[int, ...]
    singles: tuple[ChartItem, ...]
    finite: int


@lru_cache(maxsize=16)
def _census_plan(weights: tuple[int, ...]) -> tuple[tuple[_ChartPlan, ...], CensusChart]:
    """The two chart plans and the closed-stratum chart of a weight system."""
    d = sum(weights)
    h = [d // a for a in weights]
    plans = []
    for k, description in ((0, "x0 inverted"), (1, "x0 = 0, x1 inverted")):
        kept = tuple(range(k + 1, 4))
        plans.append(_ChartPlan(k, description, kept,
                                tuple(ChartItem((j,), h[j]) for j in kept),
                                sum(h[j] for j in kept)))
    tv = two_var_fermat_count(weights[2], weights[3], d)
    closed = CensusChart(
        2, "x0 = x1 = 0", tv.count, (ChartItem((2, 3), tv.count),), (), None)
    return tuple(plans), closed


def census_weighted_surface(spec: AlgebraSpec) -> CensusReport:
    """Closed-point census of Proj for weights (1, 1, a, b) with all a_i | d.

    Decomposes into the chart inverting x_0, the chart x_0 = 0 inverting
    x_1, and the closed stratum x_0 = x_1 = 0 handled by the two-variable
    count.  On a chart with equation 1 + sum y_j^{h_j}, a pair scalar
    q'_jk = 1 admits supports of size two, a positive dimensional solution
    set: infinitely many simples.  Otherwise all simples have singleton
    support and y_j^{h_j} = -1 contributes h_j points.  The total is
    Infinite as soon as one chart is.  Everything but the chart scalars
    depends on the weights alone and is planned once per weight system.
    """
    bad = validate_spec(spec)
    if bad:
        raise HypothesisViolation(
            "census needs a spec satisfying the Fermat hypotheses: "
            + "; ".join(v.detail for v in bad))
    if not _is_surface(spec.weights):
        raise ValueError(
            f"census covers weights (1, 1, a, b), got {spec.weights}")
    return _census(spec)


def _census(spec: AlgebraSpec) -> CensusReport:
    """census_weighted_surface past its checks.  Callers pass a spec of
    weights (1, 1, a, b) that holds a CY certificate, whose hypotheses
    include validate_spec's list."""
    plans, closed = _census_plan(spec.weights)
    charts = []
    for plan in plans:
        chart = AlgebraSpec.unweighted(
            spec.order, _chart_exponents(spec, plan.chart, plan.kept))
        e = chart.exponents
        kept = plan.kept
        trivial = tuple((kept[i], kept[j])
                        for i, j in combinations(range(len(kept)), 2) if not e[i][j])
        if trivial:
            charts.append(CensusChart(
                plan.chart, plan.description, INFINITE,
                plan.singles + tuple(ChartItem(p, INFINITE) for p in trivial),
                trivial, chart))
        else:
            charts.append(CensusChart(
                plan.chart, plan.description, plan.finite, plan.singles, (), chart))
    charts.append(closed)
    if any(c.count is INFINITE for c in charts):
        total = INFINITE
    else:
        total = sum(c.count for c in charts)
    return CensusReport(spec.weights, spec.order, tuple(charts), total)
