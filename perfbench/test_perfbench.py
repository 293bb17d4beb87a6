"""The benchmark's own test: a tiny run (pass 0 only) of every workload.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@functools.cache
def tiny_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    pattern = re.compile(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}\b")
    return any(pattern.match(line) for line in lines)


def test_benchmark_json_matches_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_run(workload):
    lines, result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in run.END_TO_END
    }
    for name, unit, _, _ in run.END_TO_END:
        assert result["metrics"][name]["value"] > 0
        assert printed(lines, name, unit), name
    assert any(line.startswith("metric failed_share = 0.0 ") for line in lines)
    if workload != "verify_cli":
        assert printed(lines, "trials_per_s", "trials/s")
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    assert set(facts) == {"nproc", "python", "numpy", "cpu_model", "l2", "l3"}
    assert any(line.startswith("input ") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_matches_record(workload):
    recorded = json.loads((HERE / "digests.json").read_text())
    assert recorded["seed"] == 0
    for trace in (0, 1):
        lines, _ = tiny_run(workload, trace)
        assert f"sha256={recorded['digests'][workload]} " in "\n".join(lines)
        assert not any("MISMATCH" in line for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run(workload):
    lines, result = tiny_run(workload, 1)
    # correct also means every traced report matched its untraced twin.
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in run.PER_LAYER
    }
    for name, unit, _ in run.PER_LAYER:
        assert printed(lines, name, unit), name


def test_monte_carlo_gates_can_fail():
    # The gates of harness.bench_mom and harness.lr_test_error: a failure
    # rate above delta + 3 sqrt(delta (1 - delta) / trials) fails the first,
    # an error rate below delta - 3 sqrt(0.25 / trials) fails the second.
    mom = WORKLOADS["mom_acceptance"]
    ceiling = mom.delta + 3.0 * math.sqrt(mom.delta * (1.0 - mom.delta) / mom.trials)
    assert ceiling < 1.0
    lr = WORKLOADS["lr_pairs"]
    floor = lr.delta - 3.0 * math.sqrt(0.25 / lr.trials)
    assert floor > 0.0


def _calls(workload: str) -> dict[str, int]:
    _, result = tiny_run(workload, 1)
    return {
        k[: -len(".calls")]: v["value"]
        for k, v in result["metrics"].items()
        if k.endswith(".calls")
    }


def test_call_counts_mom_acceptance():
    wl = WORKLOADS["mom_acceptance"]
    trials = wl.trials * len(wl.members)
    calls = _calls("mom_acceptance")
    assert calls["harness.trial_stream"] == trials
    assert calls["harness.sample"] == trials
    assert calls["estimators.median_of_means"] == trials
    assert calls["harness.bench_mom"] == len(wl.members)
    assert calls["corpus.build"] == len(wl.members)


def test_call_counts_lr_pairs():
    wl = WORKLOADS["lr_pairs"]
    calls = _calls("lr_pairs")
    assert calls["harness.sample"] == 0
    assert calls["estimators.median_of_means"] == 0
    assert calls["harness.trial_stream"] == 6 * wl.trials
    assert calls["harness.lr_test_error"] == 6
    assert calls["adversary.construct_q"] == 6


def test_call_counts_verify_cli():
    wl = WORKLOADS["verify_cli"]
    cells = 9 * len(wl.rows)
    calls = _calls("verify_cli")
    assert calls["estimators.median_of_means"] == 0
    assert calls["harness.trial_stream"] == 0
    assert calls["corpus.build"] == 6
    assert calls["cli.main"] == 3 * cells + 6  # 6 gen calls at set-up
    assert calls["harness.verify_theorem"] == cells
    assert calls["harness.verify_neighborhood"] == cells


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mom_acceptance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
