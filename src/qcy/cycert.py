"""Calabi-Yau certification of Fermat-type quantum complete intersections.

Every criterion decides one column system per Fermat side: c^{a_j} =
prod_i q_ij for every column j, for some root of unity c.

* segre: a Segre product of two weight-1 quantum polynomial rings, cut by
  the two Fermat elements.  Decided on both sides.
* mixed: commutative times quantum, cut by a Fermat element and a mixed
  bidegree element.  Decided on the quantum side.
* weighted: a single quantum weighted polynomial ring cut by its Fermat
  element.  Decided on that ring.

With unit weights, as on each Segre side and the quantum side of a mixed
product, the system says the column products are constant, and the solver
names the first column whose product differs from column 0; so one
solver decides all three.

Each criterion is one record in CRITERIA: its algebra count, hypothesis
list, decided sides, dimensions and details.  The manifest reader and the
command line read the criterion names and counts from there.

Verdicts are three-valued; violated hypotheses are reported, never fixed
up silently.  Each criterion states its hypotheses in one list (a Fermat
side needs at least two generators, since k[x]/(x^h) has empty Proj), and
verify_certificate recomputes that same list.  Every positive certificate
carries one witness c per decided side that verify_certificate checks
against the column products, and every refusal is rechecked by a pairwise
route that shares no merge with the solver.  A refusal costs at most one
solver pass per side; its detail names the shortest unsolvable prefix of
columns on the first side that fails.
"""

from __future__ import annotations

from collections.abc import Callable
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

    witness: the solved root c, one per decided Fermat side (A then B for
    segre, B for mixed, the algebra for weighted), when the verdict is CY,
    else None.
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


def _column_pairs(spec: AlgebraSpec) -> list[tuple[int, RootScalar]]:
    """(a_j, prod_i q_ij) per column: the system c^{a_j} = prod_i q_ij."""
    return [(a, RootScalar(spec.order, sum(row[j] for row in spec.exponents)))
            for j, a in enumerate(spec.weights)]


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
    start = max(0, *(max(q.numerator) - len(q.denominator) + 1
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


@dataclass(frozen=True)
class Criterion:
    """Everything one criterion needs, kept in one record.

    algebras: how many algebras the criterion takes.
    violations: its hypothesis list, a function of the specs.
    sides: indices of the Fermat sides whose column system decides it.
    dimension: the dimension certify assigns on a CY verdict, from the
    generator counts.
    verified_dimension: the dimension verify_certificate demands: the
    Hilbert series for weighted and segre, the criterion's own formula for
    mixed.
    refusal, success: the not_CY detail (formatted with the failing side
    and the end j of its shortest unsolvable column prefix) and the CY one.
    """

    name: str
    algebras: int
    violations: Callable[..., tuple[Violation, ...]]
    sides: tuple[int, ...]
    dimension: Callable[..., int]
    verified_dimension: Callable[..., int]
    refusal: str
    success: str

    def certify(self, specs: tuple[AlgebraSpec, ...]) -> Certificate:
        """Run this criterion's public certify_<name> on specs.

        The function is looked up in the module namespace at call time, so
        a wrapper installed there (a profiler's, say) sees the call.
        """
        return globals()["certify_" + self.name](*specs)


_UNIT_REFUSAL = "side {side} column {j} product differs from column 0"

# The criteria, in the order manifests list them.
CRITERIA = {c.name: c for c in (
    Criterion("segre", 2, _segre_violations, (0, 1),
              lambda a, b: a.nvars + b.nvars - 4, _segre_dimension,
              _UNIT_REFUSAL, "column products constant on both sides"),
    Criterion("mixed", 2, _mixed_violations, (1,),
              _mixed_dimension, _mixed_dimension,
              _UNIT_REFUSAL, "column products constant on the quantum side"),
    Criterion("weighted", 1, _weighted_violations, (0,),
              lambda s: s.nvars - 2, _weighted_dimension,
              "no root of unity c exists; columns 0..{j} are jointly unsolvable",
              "c^{a_j} matches every column product"),
)}


def _certify(kind: str, specs: tuple[AlgebraSpec, ...]) -> Certificate:
    criterion = CRITERIA[kind]
    bad = criterion.violations(*specs)
    if bad:
        return Certificate(kind, Verdict.HYPOTHESES_VIOLATED, specs, None,
                           None, bad, "hypotheses violated")
    witnesses = []
    for i in criterion.sides:
        c, j = solve_root_system(_column_pairs(specs[i]))
        if c is None:
            return Certificate(kind, Verdict.NOT_CY, specs, None, None, (),
                               criterion.refusal.format(side="AB"[i], j=j))
        witnesses.append(c)
    return Certificate(kind, Verdict.CY, specs, tuple(witnesses),
                       criterion.dimension(*specs), (), criterion.success)


def certify_segre(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> Certificate:
    """Segre product of two weight-1 quantum rings modulo both Fermat elements.

    Hypotheses per side: at least two generators, unit weights, unit
    diagonal, antisymmetry, and q_ij^{n+1} = 1 where n+1 is that side's
    generator count.  CY iff both sides have constant column products; the
    dimension is then (#A - 1) + (#B - 1) - 2.
    """
    return _certify("segre", (spec_a, spec_b))


def certify_mixed(spec_a: AlgebraSpec, spec_b: AlgebraSpec) -> Certificate:
    """Commutative side A times quantum side B, modulo a Fermat element on A
    and a mixed element of bidegree (1, #B).

    A must be commutative with unit weights; B as in the Segre case; the
    generator counts must satisfy #A = #B + 1 (the taller Fermat shape) or
    #A = #B.  CY iff B's column products are constant; the dimension is
    2 #B - 3 for the taller shape and 2 #B - 4 for the square one.
    """
    return _certify("mixed", (spec_a, spec_b))


def certify_weighted(spec: AlgebraSpec) -> Certificate:
    """One quantum weighted ring modulo its Fermat element.

    Hypotheses: at least two generators, unit diagonal, antisymmetry,
    a_i | d, and q_ij^{h_i} = q_ij^{h_j} = 1.  CY iff the column-product
    system c^{a_j} = prod_i q_ij has a root-of-unity solution; the witness
    is the reduced c and the dimension is #generators - 2.
    """
    return _certify("weighted", (spec,))


def verify_certificate(cert: Certificate) -> bool:
    """Recheck a certificate against its specs from scratch.

    The criterion's hypothesis list is recomputed and must equal the stored
    violations, nonempty exactly for hypotheses_violated.  The witness must
    be None unless the verdict is CY.  On CY it must be a tuple of one root
    of unity c per decided Fermat side (A and B for segre, B for mixed, the
    algebra for weighted) with c^{a_j} equal to every column product of that
    side.  On not_CY some decided side's column congruences must conflict,
    checked pairwise: a route independent of the solver that certified it,
    for all three criteria.  The expected dimension must be None unless the
    verdict is CY.  On a weighted CY verdict it must equal the pole order
    at t = 1 of the Fermat quotient's Hilbert series minus 1, and on segre
    the degree of the Hilbert polynomial of the Segre product of the two
    Fermat quotients: routes independent of the generator counts certify
    uses.  On mixed it must equal the criterion's formula, the same route
    as certify, not a second one.
    """
    criterion = CRITERIA[cert.kind]
    found = criterion.violations(*cert.specs)
    violated = cert.verdict is Verdict.HYPOTHESES_VIOLATED
    if found != cert.violations or bool(found) != violated:
        return False
    cy = cert.verdict is Verdict.CY
    expected = criterion.verified_dimension(*cert.specs) if cy else None
    if cert.expected_dimension != expected:
        return False
    if not cy and cert.witness is not None:
        return False
    if violated:
        return True
    systems = [_column_pairs(cert.specs[i]) for i in criterion.sides]
    if not cy:
        return any(_pairwise_unsolvable(pairs) for pairs in systems)
    witness = cert.witness
    return (isinstance(witness, tuple) and len(witness) == len(systems)
            and all(isinstance(c, RootScalar) and all(c**a == p for a, p in pairs)
                    for c, pairs in zip(witness, systems)))


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
        t = p.exponent_over(m)
        g = gcd(a, m)
        if t % g:
            return True
        mj = m // g
        congruences.append(((t // g) * pow(a // g, -1, mj) % mj, mj))
    return any((x - y) % gcd(u, v)
               for (x, u), (y, v) in combinations(congruences, 2))
