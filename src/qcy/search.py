"""Enumeration of admissible weight systems and parameter sweeps.

Weight systems are sorted tuples with gcd 1 whose entries all divide the
total degree.  For a fixed system, search_q_params walks every exponent
matrix satisfying the Fermat hypotheses at a given root order, keeps the
Calabi-Yau ones, and canonicalizes under weight-preserving generator
permutations so each isomorphism class appears once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import gcd, lcm

from .cycert import Verdict, certify_weighted
from .points import CensusReport, census_weighted_surface
from .qalgebra import AlgebraSpec

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

    @property
    def admissible(self) -> bool:
        return all(self.divides) and gcd(*self.weights) == 1


def weight_system(weights) -> WeightSystem:
    weights = tuple(sorted(int(a) for a in weights))
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
    degree.  For four variables the result is compared entry by entry
    against the reference surface list: reference entries failing the
    divisibility requirement are flagged as discrepancies, and emitted
    systems outside the reference list are returned as extras.
    """
    if n_vars < 2 or bound < 1:
        raise ValueError("need at least two variables and a positive bound")
    found: list[WeightSystem] = []

    def rec(prefix, lo):
        if len(prefix) == n_vars:
            ws = weight_system(prefix)
            if ws.admissible:
                found.append(ws)
            return
        for a in range(lo, bound + 1):
            rec(prefix + (a,), a)

    rec((), 1)
    found.sort(key=lambda ws: ws.weights)
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


def _weight_preserving_perms(weights):
    n = len(weights)
    return [
        p for p in permutations(range(n))
        if all(weights[p[i]] == weights[i] for i in range(n))
    ]


def _canonical_key(exponents, perms):
    n = len(exponents)
    return min(
        tuple(exponents[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in perms
    )


def search_q_params(weights, order: int) -> list[AlgebraSpec]:
    """Calabi-Yau exponent matrices for the given weights at root order N.

    Candidates are antisymmetric with unit diagonal; entry (i, j) must
    satisfy q_ij^{h_i} = q_ij^{h_j} = 1, which confines the exponent to
    multiples of a stride computed per pair.  Survivors of the weighted
    certification are canonicalized under weight-preserving permutations
    and returned in a deterministic order.
    """
    ws = weight_system(weights)
    weights = ws.weights
    if not all(ws.divides):
        raise ValueError(
            f"every weight must divide the total degree, got {weights}")
    n = len(weights)
    d = ws.total_degree
    h = [d // a for a in weights]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    strides = []
    for i, j in pairs:
        step = lcm(order // gcd(order, h[i]), order // gcd(order, h[j]))
        strides.append([step * k for k in range(order // step)])
    perms = _weight_preserving_perms(weights)
    seen = set()
    out = []
    for choice in product(*strides):
        exps = [[0] * n for _ in range(n)]
        for (i, j), e in zip(pairs, choice):
            exps[i][j] = e
            exps[j][i] = (-e) % order
        spec = AlgebraSpec(weights, order, tuple(tuple(r) for r in exps))
        cert = certify_weighted(spec)
        if cert.verdict is not Verdict.CY:
            continue
        key = _canonical_key(spec.exponents, perms)
        if key in seen:
            continue
        seen.add(key)
        canonical = [[key[i * n + j] for j in range(n)] for i in range(n)]
        out.append(AlgebraSpec(weights, order, tuple(tuple(r) for r in canonical)))
    out.sort(key=lambda s: s.exponents)
    return out


@dataclass(frozen=True)
class SweepRow:
    weights: tuple[int, ...]
    spec: AlgebraSpec
    census: CensusReport


def sweep_census(weight_systems) -> list[SweepRow]:
    """Census of every canonical CY spec over the given weight systems.

    Only surface-shaped systems (four weights starting 1, 1) are swept;
    others are skipped.  Each system uses its natural root order N = d.
    """
    rows = []
    for entry in weight_systems:
        ws = entry if isinstance(entry, WeightSystem) else weight_system(entry)
        w = ws.weights
        if len(w) != 4 or w[0] != 1 or w[1] != 1:
            continue
        for spec in search_q_params(w, ws.total_degree):
            rows.append(SweepRow(w, spec, census_weighted_surface(spec)))
    return rows
