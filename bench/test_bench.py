"""Tests of the benchmark itself, on its smoke-sized workloads.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in DECLARED[kind]}
    for name, metric in result["metrics"].items():
        assert type(metric["value"]) in (int, float), name
        if not trace:
            assert metric["value"] > 0, name
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["provenance"]["nproc"] >= 1 and record["provenance"]["numpy"]
    assert record["fail_ratio"] == 0
    if workload == "check-mix":
        assert 0 < record["check_p50_us"] <= record["check_p99_us"]


def test_exact_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        proc = run_bench("check-mix", 1, seed=7)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["field.mul_calls_per_item"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scan-q8", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def count_output(**override):
    reports = []
    for name in ("SI_MDS", "INV_MDS"):
        rep = {"set": name, "q": 8, "formula": gate.PINNED[3][name],
               "brute_force": gate.PINNED[3][name], "match": True, "seconds": 1.0}
        rep.update(override.get(name, {}))
        reports.append(json.dumps(rep))
    return "\n".join(reports)


def test_gate_flags_a_wrong_pinned_count():
    sets = ("SI_MDS", "INV_MDS")
    ok = gate.check_count_output(count_output(), 0, sets, 3, exhaustive=True)
    assert ok == {"SI_MDS": [], "INV_MDS": []}
    wrong = count_output(SI_MDS={"brute_force": 403367, "formula": 403367})
    found = gate.check_count_output(wrong, 0, sets, 3, exhaustive=True)
    assert found["SI_MDS"] and not found["INV_MDS"]
    found = gate.check_count_output(count_output(), 4, sets, 3, exhaustive=True)
    assert found["SI_MDS"] and found["INV_MDS"]


def test_gate_flags_a_wrong_tuples_per_matrix_ratio():
    note = {"SI_MDS": {"note": "6 parameter tuples per distinct matrix"}}
    found = gate.check_count_output(count_output(**note), 0, ("SI_MDS",), 3,
                                    exhaustive=False)
    assert found["SI_MDS"]


def test_gate_flags_disagreeing_verdicts():
    mix = workloads.make("check-mix", 0, smoke=True)
    mix.setup()
    _, items = mix.batch(0)
    built = items[10]  # GF(8), built from parameters
    assert built.params is not None and built.field == 1
    got = mix._verdicts(built)
    ref = mix.refs[built.field]
    assert gate.check_item(ref, built, got) == []
    assert gate.check_item(ref, built, dataclasses.replace(got, oracle_si=False))
    assert gate.check_item(ref, built, dataclasses.replace(got, witness=None))
    assert gate.check_item(ref, built, dataclasses.replace(got, det=got.det ^ 1))
    assert gate.check_item(ref, built, ValueError("boom"))
