"""Point schemes, simple-module counts and PI degrees of quantum rings.

The torus strata of the point scheme of a quantum polynomial ring are
indexed by supports whose parameter triples multiply to 1; restricted
Fermat equations then cut each stratum by at most one.  On affine charts
the count of one-dimensional simple modules is governed by the pair
scalars alone, which is what the closed-point census of a weighted
surface adds up chart by chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt

from .cyclo import image_size
from .errors import HypothesisViolation, InternalDefect
from .qalgebra import AlgebraSpec, chart_parameters, validate_spec


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


# -- torus strata -----------------------------------------------------------


def is_special(spec: AlgebraSpec) -> bool:
    """Every parameter triple q_ij q_jk q_ki is 1 (antisymmetry assumed)."""
    e = spec.exponents
    n = spec.order
    return all(
        (e[i][j] + e[j][k] + e[k][i]) % n == 0
        for i, j, k in combinations(range(spec.nvars), 3)
    )


def admissible_supports(spec: AlgebraSpec) -> list[tuple[int, ...]]:
    """Nonempty supports all of whose triples have trivial parameter product.

    Singletons and pairs are always admissible; a larger support is
    admissible iff each of its 3-subsets is.  Sorted by size, then
    lexicographically.
    """
    e = spec.exponents
    n = spec.order
    m = spec.nvars
    good_triple = {
        t: (e[t[0]][t[1]] + e[t[1]][t[2]] + e[t[2]][t[0]]) % n == 0
        for t in combinations(range(m), 3)
    }
    out = []
    for size in range(1, m + 1):
        for sub in combinations(range(m), size):
            if all(good_triple[t] for t in combinations(sub, 3)):
                out.append(sub)
    return out


def stratum_dimension(support, exponents) -> int | None:
    """Projective dimension of the torus stratum on `support`, cut by Fermat.

    The torus on the support has dimension |S| - 1.  The restricted
    Fermat equation keeps the terms of the support: a single surviving
    term empties the stratum (None); two or more cut the dimension by
    exactly one.
    """
    support = tuple(support)
    if not support:
        raise ValueError("support must be nonempty")
    dim = len(support) - 1
    terms = sum(1 for i in support if exponents[i] >= 1)
    if terms == 1:
        return None
    if terms >= 2:
        dim -= 1
    return dim


def max_stratum_dimension(spec: AlgebraSpec) -> int | None:
    """Largest stratum dimension with the Fermat equation imposed."""
    h = spec.fermat_exponents()
    best = None
    for s in admissible_supports(spec):
        dim = stratum_dimension(s, h)
        if dim is not None and (best is None or dim > best):
            best = dim
    return best


def point_scheme_dim_product(
    spec_a: AlgebraSpec, spec_b: AlgebraSpec, g_shape: str = "fermat"
) -> int | None:
    """Dimension of the point scheme of a two-sided Fermat intersection.

    Strata are products of admissible torus strata; each equation whose
    restriction keeps one term empties the stratum, with two or more it
    cuts one dimension.  f is the Fermat element of side A; g is "fermat"
    (side B pure powers) or "mixed" (terms x_l y_l pairing the first
    min(#A, #B) indices).  Returns the maximum dimension, or None when
    every stratum dies.
    """
    equations = [[({i}, frozenset()) for i in range(spec_a.nvars)]]
    if g_shape == "fermat":
        equations.append([(frozenset(), {j}) for j in range(spec_b.nvars)])
    elif g_shape == "mixed":
        shared = min(spec_a.nvars, spec_b.nvars)
        equations.append([({l}, {l}) for l in range(shared)])
    else:
        raise ValueError(f"unknown g shape {g_shape!r}")
    best = None
    supports_b = admissible_supports(spec_b)
    for s in admissible_supports(spec_a):
        s_set = set(s)
        for t in supports_b:
            t_set = set(t)
            dim = len(s) - 1 + len(t) - 1
            dead = False
            for eq in equations:
                alive = sum(
                    1 for (ea, eb) in eq if set(ea) <= s_set and set(eb) <= t_set)
                if alive == 1:
                    dead = True
                    break
                if alive >= 2:
                    dim -= 1
            if not dead and (best is None or dim > best):
                best = dim
    return best


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
class ChartCount:
    count: object  # int | INFINITE
    items: tuple[ChartItem, ...]
    trivial_pairs: tuple[tuple[int, int], ...]


def chart_simple_count(chart_spec: AlgebraSpec, exponents) -> ChartCount:
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
    chart: int
    description: str
    count: object  # int | INFINITE
    items: tuple[ChartItem, ...]
    trivial_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CensusReport:
    weights: tuple[int, ...]
    order: int
    charts: tuple[CensusChart, ...]
    total: object  # int | INFINITE


def census_weighted_surface(spec: AlgebraSpec) -> CensusReport:
    """Closed-point census of Proj for weights (1, 1, a, b) with all a_i | d.

    Decomposes into the chart inverting x_0, the chart x_0 = 0 inverting
    x_1, and the closed stratum x_0 = x_1 = 0 handled by the two-variable
    count.  The total is Infinite as soon as one chart is.
    """
    bad = validate_spec(spec)
    if bad:
        raise HypothesisViolation(
            "census needs a spec satisfying the Fermat hypotheses: "
            + "; ".join(v.detail for v in bad))
    if spec.nvars != 4 or spec.weights[0] != 1 or spec.weights[1] != 1:
        raise ValueError(
            f"census covers weights (1, 1, a, b), got {spec.weights}")
    h = spec.fermat_exponents()
    charts = []

    cp0 = chart_parameters(spec, 0)
    c0 = chart_simple_count(cp0.spec, tuple(h[j] for j in cp0.kept))
    charts.append(CensusChart(
        0, "x0 inverted",
        c0.count,
        tuple(ChartItem(tuple(cp0.kept[i] for i in item.support), item.count)
              for item in c0.items),
        tuple((cp0.kept[i], cp0.kept[j]) for i, j in c0.trivial_pairs),
    ))

    sub = spec.subspec((1, 2, 3))
    cp1 = chart_parameters(sub, 0)
    kept1 = tuple((1, 2, 3)[i] for i in cp1.kept)
    c1 = chart_simple_count(cp1.spec, tuple(h[j] for j in kept1))
    charts.append(CensusChart(
        1, "x0 = 0, x1 inverted",
        c1.count,
        tuple(ChartItem(tuple(kept1[i] for i in item.support), item.count)
              for item in c1.items),
        tuple((kept1[i], kept1[j]) for i, j in c1.trivial_pairs),
    ))

    tv = two_var_fermat_count(spec.weights[2], spec.weights[3], spec.total_degree)
    charts.append(CensusChart(
        2, "x0 = x1 = 0",
        tv.count,
        (ChartItem((2, 3), tv.count),),
        (),
    ))

    if any(c.count is INFINITE for c in charts):
        total = INFINITE
    else:
        total = sum(c.count for c in charts)
    return CensusReport(spec.weights, spec.order, tuple(charts), total)
