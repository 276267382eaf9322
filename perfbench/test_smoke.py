"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with
its unit, that the output checks pass on real output and reject broken
output, and that the benchmark refuses to run without the sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def run_bench(cwd, name, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_run_prints_every_metric_with_its_unit(name, trace):
    proc = run_bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    # warm-up plus at least one timed or traced call plus the rerun
    assert result["attempted"] >= 3
    assert result["failed"] == 0, proc.stderr
    assert result["correct"], proc.stderr


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_real_output_and_reject_a_dropped_row(name, tmp_path):
    import bistar.cli

    for call in workloads.build(tiny=True)[name]:
        op = call.operation(random.Random(5), tmp_path)
        assert bistar.cli.main(op.argv) == 0
        call.check(op)

        lines = op.outputs[0].read_text().splitlines(keepends=True)
        last_row = max(i for i, line in enumerate(lines) if not line.startswith("#"))
        del lines[last_row]
        op.outputs[0].write_text("".join(lines))
        with pytest.raises(workloads.CheckError):
            call.check(op)


@pytest.mark.parametrize("call, pooled", [
    (workloads.SignalContour(100, 20, True), [(6.0, 0.1)]),
    (workloads.SignalContour(400, 8, True), [(0.6, 0.1)]),
    (workloads.ModelSweep(36, 100, True), [(0.95, 0.5)]),
    (workloads.MultistaticFusion(36, 10, True), [(0.01, 7, 10)]),
])
def test_run_level_band_rejects_out_of_band_pool(call, pooled):
    call.pooled = pooled
    with pytest.raises(workloads.CheckError):
        call.check_run()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
