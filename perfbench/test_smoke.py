"""Smoke test of the benchmark on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

For every workload in BENCHMARK.json, and for the hand-run
``run-stdio-narrow``, it runs the benchmark at ``--size tiny`` untraced
and traced, and checks that each end-to-end or per-layer metric named
there is emitted with its unit, that the workload-specific figures are
printed where they apply, and that the output checks passed. It also checks that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# run-stdio-narrow runs by hand only (see run.py) but must keep working
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["run-stdio-narrow"]

# Printed, not part of the JSON result, where they apply.
PRINTED = {
    (0, "run-mock-all8"): {"instances_per_s": "1/s", "failed_ratio": "1"},
    (0, "run-stdio-narrow"): {"instances_per_s": "1/s", "failed_ratio": "1"},
    (0, "analysis"): {"calibrate_s": "s", "stats_s": "s", "failed_ratio": "1"},
    (1, "run-stdio-narrow"): {
        "genkit.stdio.rtt_us.p50": "us", "genkit.stdio.rtt_us.p98": "us",
        "scoring.stdio.rtt_us.p50": "us", "scoring.stdio.rtt_us.p98": "us",
    },
}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in PRINTED.get((trace, workload), {}).items():
        assert printed.get(name) == unit, name


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
