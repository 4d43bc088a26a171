"""Smoke test of the benchmark at tiny scale.

Runs every workload of ``BENCHMARK.json`` untraced and traced through
``perfbench/run.py`` and checks the output contract: every metric named
in ``BENCHMARK.json`` is printed, by name and with its unit, and no
operation or output check failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run([RUN, "--workload", workload, "--seed", "1", "--seconds",
                 "0.5", "--trace", str(trace), "--scale", "0.1"])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = lines[:-1]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in report)
        if not trace:
            assert got["value"] > 0, metric["name"]
    fail_lines = [line.split() for line in report
                  if line.split()[:1] == ["fail_ratio"]]
    assert fail_lines == [["fail_ratio", "0.0000", "ratio"]]


def test_benchmark_json_is_generated_from_spec():
    sys.path.insert(0, BENCH)
    try:
        import spec
    finally:
        sys.path.remove(BENCH)
    assert spec.benchmark_document() == SPEC


def test_canary_fingerprints_are_current():
    """The committed fingerprints still name today's inputs."""
    sys.path.insert(0, BENCH)
    try:
        import run
    finally:
        sys.path.remove(BENCH)
    with open(run.FINGERPRINTS, encoding="utf-8") as handle:
        table = json.load(handle)
    got = run._fingerprints(run.CANARY_SEED)
    assert got == {name: table[name][str(run.CANARY_SEED)] for name in got}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["perfbench/run.py", "--workload", "update-50k", "--seed",
                 "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
