"""Tests of the benchmark itself, on its tiny smoke workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import build_workloads, canonical_form, graph6_edges  # noqa: E402

SMOKE = ("smoke-search", "smoke-construct")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", SMOKE)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [bench("--workload", "smoke-search", "--seed", str(s), "--seconds", "1",
                  "--trace", "1") for s in (1, 2)]
    metrics = [json.loads(p.stdout.splitlines()[-1])["metrics"] for p in runs]
    counted = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    assert all(metrics[0][k] == metrics[1][k] for k in counted)
    assert metrics[0]["graphs.canonical_key.calls"]["value"] > 0
    assert metrics[0]["detect.contains_p4.calls"]["value"] > 0


def _search_then_verify(tmp_path: Path, corrupt) -> list[str]:
    workload = build_workloads()["smoke-search"]
    search, verify = workload.steps
    deadline = time.perf_counter() + 60
    res = run.run_cli(search, tmp_path, deadline)
    assert search.check(res) == []
    records = tmp_path / "records.jsonl"
    lines = records.read_text().splitlines()
    lines[0] = json.dumps(corrupt(json.loads(lines[0])), separators=(",", ":"))
    records.write_text("\n".join(lines) + "\n")
    ops = run.Ops()
    ops.record(verify.check(run.run_cli(verify, tmp_path, deadline)))
    res.files = run.out_files(tmp_path)
    ops.record(search.check(res))
    return ops.problems


def test_corrupted_witness_is_a_failed_op(tmp_path):
    def corrupt(rec):
        rec["witness_hex"][0] = "0x1"  # a single edge holds no P4
        return rec

    problems = _search_then_verify(tmp_path, corrupt)
    assert any("verify: exit code 1" in p for p in problems)


def test_wrong_clique_size_is_a_failed_op(tmp_path):
    def corrupt(rec):
        rec["witness_hex"].pop()
        rec["clique_size"] -= 1
        rec["density"] = f"{rec['clique_size']}/2^{rec['m']}"
        return rec

    problems = _search_then_verify(tmp_path, corrupt)
    assert any("records differ from the known answer" in p for p in problems)


def test_runs_without_sources_fail_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "smoke-search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_canonical_form_ignores_labeling():
    # P4 labeled 0-1-2-3 and 2-0-3-1, then the 4-cycle
    assert graph6_edges("Ch") == (4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form("Ch") == canonical_form("CU") != canonical_form("Cl")
