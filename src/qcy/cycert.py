"""Calabi-Yau certification of Fermat-type quantum complete intersections.

Three situations, one exact decision each:

* segre: a Segre product of two weight-1 quantum polynomial rings, cut by
  the two Fermat elements.  Calabi-Yau iff the column products of each
  parameter matrix are constant along columns.
* mixed: commutative times quantum, cut by a Fermat element and a mixed
  bidegree element.  Calabi-Yau iff the quantum side's column products are
  constant.
* weighted: a single quantum weighted polynomial ring cut by its Fermat
  element.  Calabi-Yau iff some root of unity c satisfies c^{a_j} =
  prod_i q_ij for every column j.

Verdicts are three-valued; violated hypotheses are reported, never fixed
up silently.  Each criterion states its hypotheses in one list (a Fermat
side needs at least two generators, since k[x]/(x^h) has empty Proj), and
verify_certificate recomputes that same list.  Every positive certificate
carries a witness that verify_certificate recomputes from scratch.  A
weighted refusal costs one pass of the column solver, whose detail names
the shortest unsolvable prefix of columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import gcd, lcm

from .cyclo import RootScalar, solve_root_system
from .hilbert import (
    difference_degree,
    pole_order_at_one,
    quotient_by_regular,
    segre_coefficients,
    series_qpoly,
)
from .qalgebra import AlgebraSpec, Violation, validate_spec


class Verdict(Enum):
    CY = "CY"
    NOT_CY = "not_CY"
    HYPOTHESES_VIOLATED = "hypotheses_violated"


@dataclass(frozen=True)
class Certificate:
    """Outcome of one certification run.

    witness: the constant column products (one per side; the solved c for
    the weighted case) when the verdict is CY, else None.
    expected_dimension: the Calabi-Yau dimension the criterion assigns to
    this shape, present only on a CY verdict.
    """

    kind: str
    verdict: Verdict
    specs: tuple[AlgebraSpec, ...]
    witness: tuple[RootScalar, ...] | None
    expected_dimension: int | None
    violations: tuple[Violation, ...]
    detail: str


def _column_products(spec: AlgebraSpec) -> list[RootScalar]:
    n = spec.nvars
    return [
        RootScalar(spec.order, sum(spec.exponents[i][j] for i in range(n)))
        for j in range(n)
    ]


def _column_pairs(spec: AlgebraSpec) -> list[tuple[int, RootScalar]]:
    """(a_j, prod_i q_ij) per column: the system c^{a_j} = prod_i q_ij."""
    return list(zip(spec.weights, _column_products(spec)))


def _weight_one_violations(spec: AlgebraSpec, side: str) -> list[Violation]:
    return [
        Violation("unit-weights", (i,), f"side {side} weight {a} at index {i} is not 1")
        for i, a in enumerate(spec.weights)
        if a != 1
    ]


def _tag_side(spec: AlgebraSpec, side: str) -> list[Violation]:
    return [
        Violation(v.kind, v.where, f"side {side}: {v.detail}")
        for v in validate_spec(spec)
    ]


def _generator_count_violations(spec: AlgebraSpec, side: str | None = None) -> list[Violation]:
    """A one-generator Fermat quotient k[x]/(x^h) has empty Proj."""
    if spec.nvars >= 2:
        return []
    owner = "the algebra" if side is None else f"side {side}"
    return [Violation(
        "generator-count", (spec.nvars,),
        f"{owner} has {spec.nvars} generator; a Fermat quotient needs at least 2")]


def _segre_violations(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> tuple[Violation, ...]:
    bad = _weight_one_violations(spec_a, "A") + _weight_one_violations(spec_b, "B")
    bad += _tag_side(spec_a, "A") + _tag_side(spec_b, "B")
    bad += _generator_count_violations(spec_a, "A") + _generator_count_violations(spec_b, "B")
    return tuple(bad)


def _mixed_violations(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> tuple[Violation, ...]:
    bad = _weight_one_violations(spec_a, "A") + _weight_one_violations(spec_b, "B")
    for i in range(spec_a.nvars):
        for j in range(spec_a.nvars):
            if spec_a.exponents[i][j]:
                bad.append(Violation(
                    "commutative-side", (i, j),
                    f"side A must be commutative but q_{i}{j} is not 1"))
    bad += _tag_side(spec_b, "B")
    if spec_a.nvars not in (spec_b.nvars, spec_b.nvars + 1):
        bad.append(Violation(
            "shape", (spec_a.nvars, spec_b.nvars),
            f"side A has {spec_a.nvars} generators, side B has {spec_b.nvars}; "
            "need #A = #B or #A = #B + 1"))
    bad += _generator_count_violations(spec_b, "B")
    return tuple(bad)


def _weighted_violations(spec: AlgebraSpec) -> tuple[Violation, ...]:
    bad = validate_spec(spec)
    return bad + tuple(_generator_count_violations(spec))


def _segre_dimension(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> int:
    """Degree of the Hilbert polynomial of the two Fermat quotients' Segre
    product, by finite differences.

    With unit weights, a series N(t) / (1 - t)^n has a Hilbert function
    equal to a polynomial of degree below n from degree deg N - n + 1 on.
    So from the later of the two sides' starts, #A + #B values of the
    product cover its polynomial, of degree at most #A + #B - 2.
    """
    quotients = [quotient_by_regular(series_qpoly(s.weights), s.total_degree)
                 for s in (spec_a, spec_b)]
    start = max(0, *(max(e for (e,) in q.numerator) - len(q.denominator) + 1
                     for q in quotients))
    upto = start + spec_a.nvars + spec_b.nvars
    values = segre_coefficients(*(q.prefix(upto) for q in quotients))
    return difference_degree(values[start:])


def _mixed_dimension(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> int:
    if spec_a.nvars == spec_b.nvars + 1:
        return 2 * spec_b.nvars - 3
    return 2 * spec_b.nvars - 4


def _weighted_dimension(spec: AlgebraSpec) -> int:
    """Pole order at t = 1 of the Fermat quotient's series, minus 1."""
    series = quotient_by_regular(series_qpoly(spec.weights), sum(spec.weights))
    return pole_order_at_one(series) - 1


_VIOLATIONS = {
    "segre": _segre_violations,
    "mixed": _mixed_violations,
    "weighted": _weighted_violations,
}

# The dimension verify_certificate demands of a CY certificate: the Hilbert
# series for weighted and segre, the criterion's own formula for mixed.
_DIMENSIONS = {
    "segre": _segre_dimension,
    "mixed": _mixed_dimension,
    "weighted": _weighted_dimension,
}


def certify_segre(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> Certificate:
    """Segre product of two weight-1 quantum rings modulo both Fermat elements.

    Hypotheses per side: at least two generators, unit weights, unit
    diagonal, antisymmetry, and q_ij^{n+1} = 1 where n+1 is that side's
    generator count.  CY iff both sides have constant column products; the
    dimension is then (#A - 1) + (#B - 1) - 2.
    """
    bad = _segre_violations(spec_a, spec_b)
    specs = (spec_a, spec_b)
    if bad:
        return Certificate("segre", Verdict.HYPOTHESES_VIOLATED, specs, None,
                           None, bad, "hypotheses violated")
    witnesses = []
    for side, spec in (("A", spec_a), ("B", spec_b)):
        products = _column_products(spec)
        for j, p in enumerate(products):
            if p != products[0]:
                return Certificate(
                    "segre", Verdict.NOT_CY, specs, None, None, (),
                    f"side {side} column {j} product differs from column 0")
        witnesses.append(products[0].reduced())
    return Certificate("segre", Verdict.CY, specs, tuple(witnesses),
                       spec_a.nvars + spec_b.nvars - 4, (),
                       "column products constant on both sides")


def certify_mixed(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> Certificate:
    """Commutative side A times quantum side B, modulo a Fermat element on A
    and a mixed element of bidegree (1, #B).

    A must be commutative with unit weights; B as in the Segre case; the
    generator counts must satisfy #A = #B + 1 (the taller Fermat shape) or
    #A = #B.  CY iff B's column products are constant; the dimension is
    2 #B - 3 for the taller shape and 2 #B - 4 for the square one.
    """
    bad = _mixed_violations(spec_a, spec_b)
    specs = (spec_a, spec_b)
    if bad:
        return Certificate("mixed", Verdict.HYPOTHESES_VIOLATED, specs, None,
                           None, bad, "hypotheses violated")
    products = _column_products(spec_b)
    for j, p in enumerate(products):
        if p != products[0]:
            return Certificate(
                "mixed", Verdict.NOT_CY, specs, None, None, (),
                f"side B column {j} product differs from column 0")
    return Certificate("mixed", Verdict.CY, specs, (products[0].reduced(),),
                       _mixed_dimension(spec_a, spec_b), (),
                       "column products constant on the quantum side")


def certify_weighted(spec: AlgebraSpec) -> Certificate:
    """One quantum weighted ring modulo its Fermat element.

    Hypotheses: at least two generators, unit diagonal, antisymmetry,
    a_i | d, and q_ij^{h_i} = q_ij^{h_j} = 1.  CY iff the column-product
    system c^{a_j} = prod_i q_ij has a root-of-unity solution; the witness
    is the reduced c and the dimension is #generators - 2.
    """
    bad = _weighted_violations(spec)
    if bad:
        return Certificate("weighted", Verdict.HYPOTHESES_VIOLATED, (spec,),
                           None, None, bad, "hypotheses violated")
    c, j = solve_root_system(_column_pairs(spec))
    if c is None:
        return Certificate("weighted", Verdict.NOT_CY, (spec,), None, None, (),
                           f"no root of unity c exists; columns 0..{j} are "
                           "jointly unsolvable")
    return Certificate("weighted", Verdict.CY, (spec,), (c,),
                       spec.nvars - 2, (),
                       "c^{a_j} matches every column product")


def verify_certificate(cert: Certificate) -> bool:
    """Recheck a certificate against its specs from scratch.

    The criterion's hypothesis list is recomputed and must equal the stored
    violations, nonempty exactly for hypotheses_violated.  CY: the stored
    witness must satisfy the defining property.  not_CY: the refutation is
    recomputed (for the weighted case by a pairwise check of the column
    congruences, independent of the solver that certified it).  The
    expected dimension must be None unless the verdict is CY.  On a
    weighted CY verdict it must equal the pole order at t = 1 of the
    Fermat quotient's Hilbert series minus 1, and on segre the degree of
    the Hilbert polynomial of the Segre product of the two Fermat
    quotients: routes independent of the generator counts certify uses.
    On mixed it must equal the criterion's formula, the same route as
    certify, not a second one.
    """
    found = _VIOLATIONS[cert.kind](*cert.specs)
    violated = cert.verdict is Verdict.HYPOTHESES_VIOLATED
    if found != cert.violations or bool(found) != violated:
        return False
    cy = cert.verdict is Verdict.CY
    if cert.expected_dimension != (_DIMENSIONS[cert.kind](*cert.specs) if cy else None):
        return False
    if violated:
        return True
    if cert.kind == "weighted":
        pairs = _column_pairs(cert.specs[0])
        if cert.verdict is Verdict.NOT_CY:
            return _pairwise_unsolvable(pairs)
        (c,) = cert.witness
        return all(c**a == p for a, p in pairs)
    sides = cert.specs if cert.kind == "segre" else cert.specs[1:]
    if cert.verdict is Verdict.NOT_CY:
        return any(
            any(p != _column_products(s)[0] for p in _column_products(s))
            for s in sides)
    return all(
        all(p == w for p in _column_products(s))
        for s, w in zip(sides, cert.witness))


def _pairwise_unsolvable(pairs) -> bool:
    """Confirm no c exists, one pair of columns at a time.

    Over M = N * lcm(a_j), column j alone asks a_j x = t_j (mod M): it is
    solvable iff g_j = gcd(a_j, M) divides t_j, and then x = x_j modulo
    m_j = M / g_j.  Such a system has a common solution iff every two of
    its congruences agree modulo gcd(m_i, m_j), so this costs O(n^2) gcds,
    not a loop over M, and shares no merge with solve_root_system.
    """
    m = lcm(*[p.order for _, p in pairs]) * lcm(*[a for a, _ in pairs])
    congruences = []
    for a, p in pairs:
        t = p.rescale(m).exponent
        g = gcd(a, m)
        if t % g:
            return True
        mj = m // g
        congruences.append(((t // g) * pow(a // g, -1, mj) % mj, mj))
    return any((x - y) % gcd(u, v)
               for (x, u), (y, v) in combinations(congruences, 2))
