"""Exact arithmetic with roots of unity and integer lattice routines.

Scalars are roots of unity stored as (order, exponent) pairs in lowest
terms, so equal roots have equal fields and every product and power is
exponent arithmetic.  Sums of roots live in Z[zeta_N],
represented by residues modulo the N-th cyclotomic polynomial; equality and
zero tests are therefore exact, never numeric.  The lattice half of the
module works modulo N throughout, so no entry outgrows N, and runs one
elimination: the Hermite form of a lattice containing N Z^k.  The Smith
diagonal, which gives image sizes (PI degree), comes from alternating
forms of a matrix and its transpose; the center's kernel and the search's
Calabi-Yau lattice are each the rows of one augmented matrix's form, and
membership in such a form is one pass over its rows.  All of it runs on
Python ints, so no size needs a separate route; only merge_columns also
takes the arrays of many systems that the search passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import index

from . import _kernels
from .errors import InternalDefect, OrderMismatchError

# Largest cost |image| * n on which image_size runs the second route, the
# coset closure in _kernels.image_count, priced from the Smith form's image
# size (a 10^6 image of 2-vectors takes about 0.05 s on a 2 vCPU Xeon); it
# also needs N below _kernels.MODULUS_BOUND and its codes N^n <= 2**62.
ENUMERATION_BOUND = 10**6


def _integer(value, what: str) -> int:
    """`value` as an int; ValueError unless it is an integer (int, bool or a
    numpy integer), so no float or string is truncated silently."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(
            f"{what} must be an integer, not {type(value).__name__}") from None


@dataclass(frozen=True, slots=True)
class RootScalar:
    """A root of unity zeta_order^exponent, stored in lowest terms.

    Construction divides the order and the exponent (taken modulo the
    order) by their gcd, so (6, 2) is stored as (3, 1): equal scalars have
    equal fields, and the dataclass equality and hash compare values.
    """

    order: int
    exponent: int

    def __post_init__(self):
        order = _integer(self.order, "root order")
        exponent = _integer(self.exponent, "root exponent")
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        g = gcd(exponent, order)
        object.__setattr__(self, "order", order // g)
        object.__setattr__(self, "exponent", exponent % order // g)

    def exponent_over(self, order: int) -> int:
        """The e with zeta_order^e equal to this root; order must be a
        multiple of the stored (lowest) order."""
        if order % self.order:
            raise OrderMismatchError(
                f"root of order {self.order} has no exponent over {order}")
        return self.exponent * (order // self.order)

    def __mul__(self, other: "RootScalar") -> "RootScalar":
        n = lcm(self.order, other.order)
        return RootScalar(
            n,
            self.exponent * (n // self.order) + other.exponent * (n // other.order),
        )

    def __pow__(self, k: int) -> "RootScalar":
        return RootScalar(self.order, self.exponent * k)

    def is_one(self) -> bool:
        return self.exponent == 0

    def pair(self) -> tuple[int, int]:
        """(order, exponent); the canonical printed shape."""
        return (self.order, self.exponent)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by exact division: Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d.
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = num[:]
    dd = len(den) - 1
    if den[dd] != 1:
        raise InternalDefect(f"divisor {den} is not monic")
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, b in enumerate(den):
                num[i - dd + j] -= c * b
    if any(num):
        raise InternalDefect(f"division by {den} left the remainder {num}")
    return out


def _reduce_mod_phi(coeffs: list[int], order: int) -> tuple[int, ...]:
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


@dataclass(frozen=True, slots=True)
class CycInt:
    """Element of Z[zeta_N], stored as a residue modulo Phi_N.

    The coefficient tuple has length deg Phi_N and is a canonical
    representative, so is_zero() and equality are exact.  Arithmetic is
    restricted to a common order; rescaling roots is the caller's job.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        deg = len(cyclotomic_poly(self.order)) - 1
        coeffs = tuple([_integer(c, "CycInt coefficient") for c in self.coeffs])
        if len(coeffs) != deg:
            raise ValueError(
                f"need {deg} coefficients for order {self.order}, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_int(cls, order: int, value: int) -> "CycInt":
        deg = len(cyclotomic_poly(order)) - 1
        return cls(order, (value,) + (0,) * (deg - 1))

    @classmethod
    def from_root(cls, root: RootScalar, order: int) -> "CycInt":
        """Embed a root of unity in Z[zeta_order]; its lowest order must
        divide `order`."""
        e = root.exponent_over(order)
        mono = [0] * (e + 1)
        mono[e] = 1
        return cls(order, _reduce_mod_phi(mono, order))

    def _check(self, other: "CycInt"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"mixed orders {self.order} and {other.order}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.order, tuple(a * other for a in self.coeffs))
        if isinstance(other, RootScalar):
            other = CycInt.from_root(other, self.order)
        self._check(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycInt(self.order, _reduce_mod_phi(prod, self.order))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def evaluate_mod(self, point: int, p: int) -> int:
        """Value of the residue polynomial at `point`, modulo the prime p."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * point + c) % p
        return acc


def solve_root_system(pairs) -> tuple[RootScalar | None, int]:
    """A root of unity c with c**a_j equal to the given root, for every pair.

    `pairs` is a sequence of (a_j, RootScalar).  A single search modulus
    suffices: any solution has order dividing M = N * lcm(a_j) where N is
    the lcm of the target orders, so the problem is a congruence system
    a_j x = t_j (mod M), merged column by column (merge_columns, one
    system of Python ints).  Returns (c, len(pairs)) with the witness c of
    least angle (merge_columns's least solution x, the same root over any
    sufficient modulus), or (None, j) when pairs[:j] has a common
    solution and pairs[:j+1] has none: every prefix's own sufficient
    modulus divides M, so the first failing merge marks the shortest
    unsolvable prefix.
    """
    pairs = list(pairs)
    if any(a < 1 for a, _ in pairs):
        raise ValueError("exponents a_j must be positive")
    weights = [a for a, _ in pairs]
    m = lcm(*[p.order for _, p in pairs]) * lcm(*weights)
    x, first = merge_columns(weights, m, [p.exponent_over(m) for _, p in pairs])
    if first < len(pairs):
        return None, first
    return RootScalar(m, x), len(pairs)


def merge_columns(weights, m: int, targets):
    """Solve a_j x = t_j (mod m) for every column j by one CRT merge.

    `targets` holds one t_j per column (0 <= t_j < m): Python ints for one
    system, or equal-length arrays for many systems of the same weights.
    Each value the merge forms stays below m^2, so int64 arrays serve while
    m < _kernels.MODULUS_BOUND; past it they must hold Python ints
    (dtype=object), since numpy integer arrays wrap silently.  Every
    modulus, period and inverse depends on the weights and m alone, so
    only the residues are arrays; `%`, `//` and `*` serve ints and arrays
    alike.  Returns (x, first): first is the first column whose congruence
    conflicts with the earlier ones, len(weights) when none does, and x
    is then a solution, 0 <= x < m (meaningless where first is smaller).
    """
    n = len(weights)
    residue, period, first = 0, 1, n
    for j, (a, t) in enumerate(zip(weights, targets)):
        g = gcd(a, m)
        mj = m // g
        x0 = (t // g) * pow(a // g, -1, mj) % mj
        # merge x = residue (mod period) with x = x0 (mod mj)
        d = gcd(period, mj)
        step = mj // d
        bad = (t % g != 0) | ((x0 - residue) % d != 0)
        first += (j - first) * (bad & (first == n))  # j at the first bad column
        k = ((x0 - residue) // d) * pow(period // d, -1, step) % step
        residue += period * k
        period *= step
    return residue, first


# ---------------------------------------------------------------------------
# Integer matrix normal forms.


def smith_normal_form(mat, modulus: int) -> list[int]:
    """Diagonal of a Smith form of the n x m matrix `mat` modulo N.

    Returns n divisors d_i of N with Z^n / (mat . Z^m + N Z^n) isomorphic
    to the sum of the Z/d_i, N standing for a zero invariant; so the image
    of mat on (Z/N)^m has prod_i N / d_i elements.  The diagonal need not
    form a divisibility chain.  It alternates row Hermite forms modulo N
    (hermite_normal_form) of mat's columns and of the last form's transpose
    until the form is diagonal (Kannan and Bachem 1979; Cohen, GTM 138,
    section 2.4).  Each pass keeps the group: a square form and its
    transpose have the same invariants, and these divide N, so N Z^n lies
    in the transpose's row span already.  The loop ends: let t be the
    first index whose row still has an entry off the diagonal (the rows
    and columns before it are settled, so the form is diagonal there and
    the next pass keeps them).  If the pivot h_tt divides its row, the
    next form's row t is h_tt e_t and t settles; otherwise the next pivot
    t is gcd(h_tt, row t), a proper divisor of h_tt.  Every pivot divides
    N, so at most n (1 + Omega(N)) passes follow the first, Omega(N) the
    number of prime factors of N counted with multiplicity.
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    if any(len(row) != m for row in mat):
        raise ValueError("ragged matrix")
    # with no columns, one zero row gives the form its width n
    form = hermite_normal_form(list(zip(*mat)) or [[0] * n], modulus)
    while any(form[r][c] for c in range(n) for r in range(c)):
        form = hermite_normal_form(list(zip(*form)), modulus)
    return [form[i][i] for i in range(n)]


def hermite_normal_form(rows, modulus: int) -> list[list[int]]:
    """Canonical row-style Hermite form of span(rows) + N Z^k, N = modulus.

    That lattice contains N Z^k, so the form has one row per column, row c
    pivoting on column c with a positive pivot dividing N, and the entries
    above each pivot reduced into [0, pivot): the unique such basis, so
    equal lattices give equal output.  The elimination runs modulo N
    (Cohen, GTM 138, Algorithm 2.4.8; Domich, Kannan and Trotter 1987): at
    column c, N e_c joins the rows still live, and each meets the pivot row
    in one unimodular step, from the extended Euclid of their entries in
    column c, which leaves one pivot row; every update is reduced mod N,
    which the later N e_j absorb.  So no entry but a pivot N reaches N.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    work = [[int(x) % modulus for x in r] for r in rows]
    k = len(work[0]) if work else 0
    basis: list[list[int]] = []
    for col in range(k):
        pivot = [0] * k
        pivot[col] = modulus
        rest = []
        for r in work:
            a, b, s0, t0, s1, t1 = pivot[col], r[col], 1, 0, 0, 1
            if b:  # (s0 t0; s1 t1), of determinant +-1, takes (a, b) to (g, 0)
                while b:
                    q, rem = divmod(a, b)
                    a, b, s0, t0, s1, t1 = b, rem, s1, t1, s0 - q * s1, t0 - q * t1
                pivot, r = ([(s0 * x + t0 * y) % modulus for x, y in zip(pivot, r)]
                            if s0 else r,  # one quotient: (s0 t0) = (0 1)
                            [(s1 * x + t1 * y) % modulus for x, y in zip(pivot, r)])
            if any(r):
                rest.append(r)
        basis.append(pivot)
        work = rest
    # reduce entries above each pivot; columns left of it are final
    for i, row in enumerate(basis):
        for upper in basis[:i]:
            q = upper[i] // row[i]
            if q:
                upper[i:] = [(x - q * y) % modulus for x, y in zip(upper[i:], row[i:])]
    return basis


def lattice_contains(basis: list[list[int]], vec) -> bool:
    """Membership of an integer vector in the lattice given by HNF basis rows.

    Row by row: the vector's entry at the row's pivot must be a multiple
    of the pivot, and the row's multiple that clears it is subtracted; the
    vector is a member when nothing is left.
    """
    v = [int(x) for x in vec]
    width = len(basis[0]) if basis else 0
    if len(v) != width:
        raise ValueError(f"vector of length {len(v)} against basis rows of length {width}")
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def kernel_lattice(mat, modulus: int) -> list[list[int]]:
    """Basis (HNF rows) of {e in Z^m : mat . e = 0 (mod modulus)}.

    One Hermite form modulo N of the rows (column j of mat | e_j): the rows
    of its form that pivot on the right-hand block span the vectors (0 | e)
    of span + N Z^(n+m), which are those with mat . e = 0 (mod N).
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    rows = [[r[j] for r in mat] + [int(i == j) for i in range(m)] for j in range(m)]
    return [r[n:] for r in hermite_normal_form(rows, modulus)[n:]]


def image_size(mat, modulus: int, method: str = "auto") -> int:
    """Cardinality of {mat . e mod N : e in (Z/N)^m}.

    Two routes: the Smith form gives prod_i N / d_i; the closure of
    the column subgroup, coset by coset (_kernels.image_count), recounts it
    at cost |image| * n when that is <= ENUMERATION_BOUND, N is below
    _kernels.MODULUS_BOUND and N^n <= 2**62.
    Under "auto" both run where feasible and must agree; "enumerate" demands
    the second route.
    """
    n = len(mat)
    by_snf = prod(modulus // d for d in smith_normal_form(mat, modulus))
    if method == "snf":
        return by_snf
    feasible = (by_snf * n <= ENUMERATION_BOUND and modulus < _kernels.MODULUS_BOUND
                and modulus**n <= 2**62)
    if method == "enumerate" and not feasible:
        raise ValueError(f"enumeration infeasible for N={modulus}, n={n}")
    if feasible:
        by_enum = _kernels.image_count(mat, modulus)
        if by_enum != by_snf:
            raise InternalDefect(
                f"image size mismatch: coset closure {by_enum}, Smith form {by_snf}")
        return by_enum
    return by_snf


# ---------------------------------------------------------------------------
# Q(zeta_N) on Fraction tuples: the tests' exact reference for the Hilbert
# oracle's ranks, kept in src because the benchmark's tracer patches
# CycField.__init__; it can go with the next change to the benchmark.


class CycField:
    """Arithmetic in Q(zeta_N) on coefficient tuples modulo Phi_N."""

    def __init__(self, order: int):
        self.order = order
        self.phi = [Fraction(c) for c in cyclotomic_poly(order)]
        self.deg = len(self.phi) - 1

    def from_cycint(self, z: CycInt) -> tuple[Fraction, ...]:
        if z.order != self.order:
            raise OrderMismatchError(f"expected order {self.order}, got {z.order}")
        return tuple(Fraction(c) for c in z.coeffs)

    def zero(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.deg

    def is_zero(self, a) -> bool:
        return not any(a)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._reduce(prod)

    def _reduce(self, poly):
        work = list(poly)
        for i in range(len(work) - 1, self.deg - 1, -1):
            c = work[i]
            if c:
                work[i] = Fraction(0)
                for j in range(self.deg):
                    work[i - self.deg + j] -= c * self.phi[j]
        work = work[: self.deg]
        work += [Fraction(0)] * (self.deg - len(work))
        return tuple(work)

    def inv(self, a):
        """Inverse via the extended Euclidean algorithm against Phi_N."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        r0, r1 = self.phi[:], list(a) + [Fraction(0)]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _fpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _fpoly_sub(s0, _fpoly_mul(q, s1))
        lead = next(c for c in reversed(r0) if c)
        if sum(1 for c in r0 if c) != 1 or r0[0] != lead:
            # gcd has positive degree: only possible if a was a zero divisor,
            # which cannot happen in a field
            raise InternalDefect("nontrivial gcd against a cyclotomic polynomial")
        inv = [c / lead for c in s0]
        return self._reduce(inv)


def _fpoly_divmod(num, den):
    num = list(num)
    dd = max(i for i, c in enumerate(den) if c)
    out = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i]:
            c = num[i] / den[dd]
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return out, num[:dd] if dd else [Fraction(0)]


def _fpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _fpoly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
