"""Self-tests of the benchmark, on the fast (tiny-input) mode.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload: str, trace: int):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--fast",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(
            line.startswith(f"metric {metric['name']} = ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        )
    assert any(line.startswith(f"digest {workload} seed=3 input=0: ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_injected_output_check_failure_exits_nonzero(
    capsys, monkeypatch, workload
):
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    original = cls.finish

    def failing_finish(self, state):
        outcome = original(self, state)
        outcome.checks.append(("injected failure", False, "by the test"))
        return outcome

    monkeypatch.setattr(cls, "finish", failing_finish)
    code, _lines, result = _run(capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"], "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_to_reference_host_speed(capsys, monkeypatch):
    import calibrate

    # A host running at half the reference speed halves the reported times.
    monkeypatch.setattr(calibrate, "host_seconds",
                        lambda: 2 * calibrate.REFERENCE_S)
    code, lines, result = _run(capsys, WORKLOAD_NAMES[0], 0)
    assert code == 0
    unscaled = next(line for line in lines if line.startswith("unscaled: "))
    loop_unscaled = float(unscaled.split("loop_s ")[1].split(" s")[0])
    assert result["metrics"]["loop_s"]["value"] == pytest.approx(
        loop_unscaled / 2, rel=1e-4)
