"""Smoke test of the benchmark at tiny sizes.

Every workload must print every metric that BENCHMARK.json names, with its
unit, pass its output checks, and run on a second seed with a report digest
that repeats. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_every_metric_with_its_unit(workload, trace, kind):
    result = result_of(run_bench(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_second_seed_runs_and_its_digest_repeats():
    digests = []
    for _ in range(2):
        proc = run_bench("live-n16", 2, 0)
        assert result_of(proc)["correct"] is True
        digests.append(re.search(r"^digest sha256=(\S+)$", proc.stdout, re.M).group(1))
    assert digests[0] == digests[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("live-n16", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
