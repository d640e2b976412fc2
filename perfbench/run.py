"""Benchmark of qcy: one seeded workload per run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reports --seed 1 --seconds 30 --trace 0

Workloads are described in workloads.py.  With --trace 0 a run
runs whole passes over the workload until `--seconds` have gone by, checks
every output, and reports the end-to-end metrics of BENCHMARK.json.  Between
passes it measures set-up several times, and the median is `setup_s`: a
fresh interpreter imports qcy (from the checkout's src/), builds the
workload's inputs and runs one untimed warm operation.  Operation times are scaled by
the yardstick (yardstick.py), which cancels the host's drifting speed; the
unscaled wall-clock figures are printed on the line before the result.

With --trace 1 it alternates untraced and traced passes instead and reports
the per-layer metrics: figures per traced pass (median over passes), and the
tracing overhead, the traced pass time minus the untraced one.

Stdout ends with a line of provenance and workload-specific figures, then
the result line {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the checkout
has no qcy sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11

# A fresh interpreter doing what a user's first call does.
SETUP_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "workloads.build({name!r}, {seed}).warm()"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reports", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter's set-up."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    # No timeout: waiting with one polls every 50 ms, which would round the
    # sample.  The probe's warm operation has its own time limit.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Tally:
    """Latencies and check outcomes of the operations run so far.

    With a yardstick, `latencies` are scaled wall times and `walls` the
    unscaled ones; without one the two are the same.
    """

    def __init__(self, stick=None):
        self.stick = stick
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.pass_times: list[float] = []
        self.stage_totals: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, workload, tracer=None) -> None:
        import workloads

        stages: dict[str, float] = defaultdict(float)
        if tracer is not None:
            around = tracer.operation
        elif self.stick is not None:
            around = self.stick.sampling
        else:
            around = nullcontext
        unscaled = []  # (op, wall time) since the last yardstick reading
        for op in workload.next_pass():
            elapsed, ok = workloads.run_op(op, around)
            if self.stick is not None:
                elapsed -= self.stick.paused
            self.attempted += 1
            self.failed += not ok
            unscaled.append((op, elapsed))
            if self.stick is None or self.stick.due():
                self._settle(unscaled, stages)
        self._settle(unscaled, stages)
        for stage, total in stages.items():
            self.stage_totals[stage].append(total)
        self.pass_times.append(sum(stages.values()))

    def _settle(self, unscaled, stages) -> None:
        if not unscaled:
            return
        factors = None if self.stick is None else self.stick.scale()
        for op, wall in unscaled:
            spent = wall if factors is None else wall * factors[op.work]
            self.walls.append(wall)
            self.latencies.append(spent)
            stages[op.stage] += spent
        unscaled.clear()


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def run_plain(workload, seconds: float, stick, probe) -> tuple[Tally, dict]:
    """Passes for `seconds`, with the SETUP_RUNS set-up probes spread over
    them, so that `setup_s` samples the host's states as the passes do.
    The probes' time does not count against `seconds`.  Starting an
    interpreter is interpreter work, so each probe is scaled like an
    operation, by the readings just before and just after it."""
    tally = Tally(stick)
    setups, setup_walls = [], []
    start = time.perf_counter()
    deadline = start + seconds

    def probes_due():
        nonlocal deadline
        while (len(setups) < SETUP_RUNS
               and time.perf_counter() >= start + len(setups) * seconds / SETUP_RUNS):
            stick.scale()  # a fresh reading just before the probe
            setup_walls.append(probe())
            setups.append(setup_walls[-1] * stick.scale()["interpreter"])
            deadline += setup_walls[-1]

    probes_due()
    tally.run_pass(workload)
    # The high-water mark after set-up and one pass: what the work needs.
    # Later passes add only allocator fragmentation, which varies run to run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        probes_due()
        tally.run_pass(workload)
    while len(setups) < SETUP_RUNS:
        setup_walls.append(probe())
        setups.append(setup_walls[-1] * stick.scale()["interpreter"])
    lat = tally.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": percentile(lat, 95) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = tally.walls
    metrics["wall"] = {
        "op_p50_ms": statistics.median(wall) * 1e3,
        "op_p95_ms": percentile(wall, 95) * 1e3,
        "ops_per_s": len(wall) / sum(wall),
        "setup_s": statistics.median(setup_walls),
        "yardstick_ms": stick.median_ms(),
    }
    return tally, metrics


def run_traced(workload, seconds: float) -> tuple[Tally, dict]:
    import spans

    tracer = spans.Tracer()
    plain, traced = Tally(), Tally()
    folds = []
    deadline = time.perf_counter() + seconds
    while True:
        plain.run_pass(workload)
        with tracer.installed():
            traced.run_pass(workload, tracer)
        folds.append(tracer.fold())
        if time.perf_counter() >= deadline:
            break
    names = set().union(*folds)
    metrics = {k: statistics.median(f.get(k, 0) for f in folds) for k in names}
    base = statistics.median(plain.pass_times)
    overhead = statistics.median(traced.pass_times) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / base
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, metrics


def provenance(args) -> dict:
    import numpy
    from qcy import _kernels

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, timeout=30)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "kernel_backend": _kernels.backend(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcy" / "__init__.py").is_file():
        print(f"error: no qcy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(ROOT)
    import qcy
    import workloads

    if Path(qcy.__file__).resolve().parent != SRC / "qcy":
        print(f"error: qcy imported from {qcy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workload = workloads.build(args.workload, args.seed)
    workload.warm()
    if args.trace:
        import spans

        tally, values = run_traced(workload, args.seconds)
        wanted = config["per_layer"]
        for m in wanted:  # a span that never ran reads 0; an unknown name is an error
            if m["name"] not in values:
                values[m["name"]] = spans.zero_if_known(m["name"])
    else:
        import yardstick

        tally, values = run_plain(
            workload, args.seconds, yardstick.Yardstick(),
            lambda: setup_probe(args.workload, args.seed))
        wanted = config["end_to_end"]

    detail = {
        "provenance": provenance(args),
        "error_rate": tally.failed / tally.attempted,
        "operations": len(tally.latencies),
        "passes": len(tally.pass_times),
        **({"p95_samples_beyond": round(len(tally.latencies) * 0.05),
            "wall": values["wall"]} if not args.trace else {}),
        **{f"{stage}_s": statistics.median(totals)
           for stage, totals in tally.stage_totals.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
