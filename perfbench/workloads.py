"""The three seeded workloads of the qcy benchmark.

Each workload is a fixed list of operations.  An operation is one call into
qcy's public functions (the timed part) plus a check of its output against a
value the benchmark knows independently (the untimed part).  A pass runs
every operation once; the benchmark repeats passes for the length of a run.

Why each workload exists, and which layers it loads or leaves idle:

reports
    A closed loop with one client calling ``qcy.cli.main`` in-process on the
    14 golden invocations, shuffled by the seed on every pass.  Each stdout
    must equal its frozen file under tests/golden/expected/ byte for byte.
    Users meet qcy through this path, and per-request fixed costs dominate
    it (argument parsing, manifest loading, rendering).  Loads ``cli``,
    ``manifest`` and, through the commands, a little of every other layer;
    the ``cycert``/``search`` core does almost nothing here except for the
    slow ``enumerate-weights`` report.

sweep
    The criterion-2 sweep (``enumerate_cy_weights(4, 25)``, which must find
    the five (1,1,a,b) systems, then one ``sweep_census`` over all five at
    N = d, 238 rows, every finite total 24) followed by
    ``search_q_params((1,1,1,1,2), 3)`` (59,049 candidates, 126 classes).  Every kept spec must pass ``verify_certificate``.  The
    seed permutes the order of the systems only.  Refusals from
    ``certify_weighted`` and the search loop do the work here, so this is
    where a faster search or certifier shows.  ``cli`` and ``manifest`` are
    idle, as are ``hilbert`` and ``_kernels``.

oracle
    The second routes on seeded inputs: ``brute_force_dims`` against
    ``quotient_by_regular`` (running example to degree 24, quintic to
    degree 12), ``image_size`` on antisymmetric matrices of known image
    size (8x8 mod 5 and 7x7 mod 7, where both routes run and must agree,
    and 10x10 mod 4, above ENUMERATION_BOUND, where only the Smith form
    runs), ``_kernels.image_count`` on a general 8x8 mod 5 matrix against
    the Smith form, and ``_kernels.modp_rank`` on a 320x1600 matrix of
    known rank.  Exact arithmetic does the work (``multiply``, ``CycInt``,
    Smith form, both numpy kernels), with cases on each side of the
    enumeration bound.  ``cyclo`` is used unlike in ``sweep``: a few large
    calls instead of hundreds of thousands of tiny ones.  ``cli``,
    ``manifest``, ``search`` and ``points`` are idle.

qcy must be importable when this module is imported; run.py puts the
checkout's src/ first on sys.path.
"""

from __future__ import annotations

import io
import random
import signal
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from qcy import _kernels, cli, cycert, cyclo, hilbert, points, qalgebra, search

GOLDEN = Path("tests/golden")

# The golden invocations, as in tests/test_cli.py: (expected file, argv).
# Paths are relative to the checkout root, because reports embed them.
REPORTS = [
    ("certify_weighted.json",
     ["certify", "--input", "tests/golden/manifests/weighted.man"]),
    ("certify_segre.json",
     ["certify", "--input", "tests/golden/manifests/segre.man"]),
    ("certify_mixed.json",
     ["certify", "--input", "tests/golden/manifests/mixed.man"]),
    ("certify_notcy.json",
     ["certify", "--input", "tests/golden/manifests/notcy.man"]),
    ("census.json",
     ["census", "--input", "tests/golden/manifests/weighted.man"]),
    ("census_human.txt",
     ["census", "--input", "tests/golden/manifests/weighted.man",
      "--format", "human"]),
    ("point_scheme_weighted.json",
     ["point-scheme", "--input", "tests/golden/manifests/weighted.man"]),
    ("point_scheme_segre.json",
     ["point-scheme", "--input", "tests/golden/manifests/segre.man"]),
    ("pi_degree_chart0.json",
     ["pi-degree", "--input", "tests/golden/manifests/weighted.man",
      "--chart", "0"]),
    ("pi_degree_ambient.json",
     ["pi-degree", "--input", "tests/golden/manifests/weighted.man"]),
    ("hilbert_12.json",
     ["hilbert", "--input", "tests/golden/manifests/weighted.man"]),
    ("center_chart0.json",
     ["center", "--input", "tests/golden/manifests/weighted.man",
      "--chart", "0"]),
    ("enumerate_weights_25.json",
     ["enumerate-weights", "--vars", "4", "--bound", "25"]),
    ("search_q_1111_order2.json",
     ["search-q", "--input", "tests/golden/manifests/cube.man"]),
]

# Rows each criterion-2 system contributes at N = d; they sum to 238.
SWEEP_ROWS = {
    (1, 1, 1, 1): 30,
    (1, 1, 1, 3): 40,
    (1, 1, 2, 2): 54,
    (1, 1, 2, 4): 72,
    (1, 1, 4, 6): 42,
}
SEARCH5 = ((1, 1, 1, 1, 2), 3, 126)  # weights, root order, classes kept

# The running example: weights (1,1,2,2) at cube roots of unity.
EXAMPLE_WEIGHTS = (1, 1, 2, 2)
EXAMPLE_EXPONENTS = ((0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 0, 0), (1, 0, 0, 0))

# image_size cases: size n, modulus N and the block invariants d.  8x8 mod 5
# and 7x7 mod 7 lie under ENUMERATION_BOUND (both routes), 10x10 mod 4 above.
PI_CASES = (
    (8, 5, (1, 1, 1, 0)),      # 5^6 = 15625
    (7, 7, (1, 1, 1)),         # 7^6 = 117649
    (10, 4, (1, 1, 2, 2, 0)),  # 4^4 * 2^4 = 4096
)

RANK_PRIME = 2_147_483_629
RANK_SHAPE = (320, 1600)
RANK = 256

# A call or check running longer than this counts as a failed operation,
# so that a blow-up ends the run with a result instead of a hang.
OP_LIMIT_S = 15


@dataclass
class Op:
    """One timed call into qcy and the check of its output.

    ``check(output, expected)`` returns True when the output is right;
    ``expected`` is kept apart so a test can corrupt it.  ``stage`` groups
    operations whose per-pass total is reported as ``<stage>_s``.
    ``work`` names the kind of work that takes its time, and so the part of
    the yardstick that scales it (yardstick.py).
    """

    kind: str
    stage: str
    call: Callable[[], object]
    expected: object
    check: Callable[[object, object], bool]
    work: str = "interpreter"


class OpTimeout(Exception):
    """An operation's call or check ran past OP_LIMIT_S."""


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have gone by."""
    def expire(signum, frame):
        raise OpTimeout(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, around=nullcontext) -> tuple[float, bool]:
    """Time op.call, then check its output.

    A raised call, a failed check, or a call or check that runs past
    OP_LIMIT_S is a failure, reported on stderr.  `around(op.kind)` is
    entered for the call only, so a tracer's root span covers the call and
    not the check.
    """
    elapsed = None
    try:
        with time_limit(OP_LIMIT_S):
            t0 = perf_counter()
            with around(op.kind):
                out = op.call()
            elapsed = perf_counter() - t0
        with time_limit(OP_LIMIT_S):
            ok = bool(op.check(out, op.expected))
    except Exception:  # a failed operation is counted, not fatal
        print(f"operation {op.kind!r} failed:", file=sys.stderr)
        traceback.print_exc()
        if elapsed is None:
            elapsed = perf_counter() - t0
        return elapsed, False
    if not ok:
        print(f"operation {op.kind!r}: wrong output", file=sys.stderr)
    return elapsed, ok


@dataclass
class Workload:
    """Operations in pass order; `shuffler`, when set, reorders every pass."""

    ops: list[Op]
    warm_kind: str
    shuffler: random.Random | None = None

    def next_pass(self) -> list[Op]:
        """The operations of one pass, in this pass's order."""
        ops = list(self.ops)
        if self.shuffler is not None:
            self.shuffler.shuffle(ops)
        return ops

    def warm(self) -> None:
        """One untimed operation, so imports and caches are in place."""
        (op,) = [o for o in self.ops if o.kind == self.warm_kind]
        run_op(op)


# -- reports ----------------------------------------------------------------


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return call


def _report_ok(output, expected) -> bool:
    code, out, err = output
    return code == 0 and err == "" and out.encode("utf-8") == expected


def build_reports(seed: int) -> Workload:
    ops = []
    for name, argv in REPORTS:
        expected = (GOLDEN / "expected" / name).read_bytes()
        ops.append(Op(name, "reports", _cli_call(argv), expected, _report_ok))
    return Workload(ops, "certify_weighted.json", shuffler=random.Random(seed))


# -- sweep ------------------------------------------------------------------


def _certified(spec) -> bool:
    cert = cycert.certify_weighted(spec)
    return cert.verdict is cycert.Verdict.CY and cycert.verify_certificate(cert)


def _sweep_ok(rows, expected) -> bool:
    return (
        len(rows) == expected
        and all(r.census.total == 24 for r in rows
                if r.census.total is not points.INFINITE)
        and all(_certified(r.spec) for r in rows)
    )


def _search_ok(specs, expected) -> bool:
    return (
        len(specs) == expected
        and len({s.exponents for s in specs}) == len(specs)
        and all(_certified(s) for s in specs)
    )


def _surface_systems(result, expected) -> bool:
    found = {ws.weights for ws in result.systems if ws.weights[:2] == (1, 1)}
    return found == expected


def build_sweep(seed: int) -> Workload:
    systems = sorted(SWEEP_ROWS)
    random.Random(seed).shuffle(systems)
    ops = [Op("enumerate 4 vars to 25", "sweep",
              lambda: search.enumerate_cy_weights(4, 25), set(SWEEP_ROWS),
              _surface_systems)]
    # One operation for the whole sweep: with one per system, the median
    # operation fell among systems of overlapping times and moved by ~10%
    # from run to run on sampling alone.
    ops.append(Op("criterion-2 sweep", "sweep",
                  lambda: search.sweep_census(systems),
                  sum(SWEEP_ROWS.values()), _sweep_ok))
    weights, order, classes = SEARCH5
    ops.append(Op("search5", "search5",
                  lambda: search.search_q_params(weights, order),
                  classes, _search_ok))
    return Workload(ops, "enumerate 4 vars to 25")


# -- oracle -----------------------------------------------------------------


def _unimodular(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random integer matrix of determinant +-1 with small entries."""
    p = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        p[i] += int(rng.integers(-2, 3)) * p[j]
    return p[rng.permutation(n)]


def _antisymmetric_known(rng: np.random.Generator, n: int, modulus: int,
                         invariants) -> tuple[list[list[int]], int]:
    """A random antisymmetric matrix mod N with its image size on (Z/N)^n.

    P S P^T with S block diagonal [[0, d], [-d, 0]] and P unimodular has the
    image of S carried over bijectively, so its size is prod (N/gcd(N,d))^2.
    The invariants d are fixed per case, so every seed does the same work.
    """
    s = np.zeros((n, n), dtype=np.int64)
    size = 1
    for b, d in enumerate(invariants):
        s[2 * b, 2 * b + 1], s[2 * b + 1, 2 * b] = d, -d
        size *= (modulus // gcd(modulus, d)) ** 2
    p = _unimodular(rng, n)
    return ((p @ s @ p.T) % modulus).tolist(), size


def _known_rank(rng: np.random.Generator, shape, rank: int) -> np.ndarray:
    """A matrix of the given rank: C, which holds I_rank in some columns, in
    `rank` of its rows, and combinations of C's rows in the others."""
    rows, cols = shape
    c = rng.integers(0, 100, size=(rank, cols), dtype=np.int64)
    c[:, rng.choice(cols, size=rank, replace=False)] = np.eye(rank, dtype=np.int64)
    pivots = rng.choice(rows, size=rank, replace=False)
    others = np.setdiff1d(np.arange(rows), pivots)
    mat = np.empty(shape, dtype=np.int64)
    mat[pivots] = c
    mat[others] = rng.integers(0, 100, size=(len(others), rank), dtype=np.int64) @ c
    return mat


def _equal(output, expected) -> bool:
    return output == expected


def _hilbert_op(kind, spec, degree, max_degree) -> Op:
    expected = list(hilbert.quotient_by_regular(
        hilbert.series_qpoly(spec.weights), degree).prefix(max_degree))
    return Op(kind, "hilbert_oracle",
              lambda: hilbert.brute_force_dims(
                  spec, qalgebra.fermat(spec), max_degree),
              expected, _equal)


def build_oracle(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(4)]
    example = qalgebra.AlgebraSpec(
        tuple(EXAMPLE_WEIGHTS[i] for i in perm), 3,
        tuple(tuple(EXAMPLE_EXPONENTS[i][j] for j in perm) for i in perm))
    quintic = qalgebra.AlgebraSpec.unweighted(1, ((0,) * 5,) * 5)
    ops = [
        _hilbert_op("hilbert example d24", example, 6, 24),
        _hilbert_op("hilbert quintic d12", quintic, 5, 12),
    ]
    for n, modulus, invariants in PI_CASES:
        mat, size = _antisymmetric_known(rng, n, modulus, invariants)
        ops.append(Op(f"image_size {n}x{n} mod {modulus}", "pi_oracle",
                      lambda mat=mat, modulus=modulus: cyclo.image_size(mat, modulus),
                      size, _equal,
                      # Under the bound the numpy enumeration takes the time;
                      # above it the Smith form alone runs, in the interpreter.
                      work="numpy" if modulus**n <= cyclo.ENUMERATION_BOUND
                      else "interpreter"))
    # A general (not antisymmetric) matrix of rank 7 mod 5: image 5^7, which
    # the Smith form must confirm.
    general = (_unimodular(rng, 8) @ np.diag([1] * 7 + [5])
               @ _unimodular(rng, 8)) % 5
    ops.append(Op("image_count 8x8 mod 5", "kernels",
                  lambda: _kernels.image_count(general, 5), 5**7,
                  lambda out, size: out == size == cyclo.image_size(
                      general.tolist(), 5, method="snf"),
                  work="numpy"))
    big = _known_rank(rng, RANK_SHAPE, RANK)
    ops.append(Op("modp_rank 320x1600", "kernels",
                  lambda: _kernels.modp_rank(big, RANK_PRIME), RANK, _equal,
                  work="numpy"))
    return Workload(ops, "hilbert quintic d12")


BUILDERS = {"reports": build_reports, "sweep": build_sweep, "oracle": build_oracle}


def build(name: str, seed: int) -> Workload:
    """The named workload with its inputs made from `seed`."""
    return BUILDERS[name](seed)
