"""Smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Runs each workload at minimal length, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit; that a corrupted
expected value makes the run's error rate rise above 0; and that the
benchmark refuses to run without the qcy sources.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(value):
    if isinstance(value, bytes):
        return value + b" "
    if isinstance(value, list):
        return value[:-1] + [value[-1] + 1]
    return value + 1


@pytest.mark.parametrize("workload,kind", [
    ("reports", "certify_weighted.json"),
    ("sweep", "criterion-2 sweep"),
    ("oracle", "hilbert quintic d12"),
    ("oracle", "image_size 10x10 mod 4"),
    ("oracle", "modp_rank 320x1600"),
])
def test_corrupted_expected_value_raises_error_rate(workload, kind, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.build(workload, 3)
    wl.ops = [op for op in wl.ops if op.kind == kind]
    tally = run.Tally()
    tally.run_pass(wl)
    assert tally.failed == 0
    wl.ops[0].expected = _corrupt(wl.ops[0].expected)
    tally.run_pass(wl)
    assert tally.failed / tally.attempted > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "reports", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
