"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced with ``--size small``,
and asserts that every metric named in BENCHMARK.json is reported with its
unit and that every answer check passes.  It also checks that the answer
checks reject wrong answers, and that the driver refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checks_reject_wrong_answers(workload):
    ref = wl.load_reference()
    docs, jobs = wl.instances(workload, "small", 3, ref)
    golden = {"xa": [], "xu": []}
    for job in jobs:
        assert wl.check_job(job, job["code"] + 1, "", ref, golden, docs), job["key"]
        if job["digest"]:
            assert wl.check_job(job, job["code"], "spectrum=1 elements=3\n", ref, golden,
                                docs), job["key"]


def test_inputs_follow_the_seed():
    ref = wl.load_reference()
    for workload in wl.WORKLOADS:
        assert wl.instances(workload, "full", 5, ref) == wl.instances(workload, "full", 5, ref)
    assert wl.instances("hull", "full", 5, ref) != wl.instances("hull", "full", 6, ref)


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "hull", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
