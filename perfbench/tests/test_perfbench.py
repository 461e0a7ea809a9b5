"""The benchmark's own tests: every workload at tiny n, the failure count,
the printed metric names, and refusal to run without the program.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

TINY_N = 256
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", "--n", str(TINY_N),
         "--out", str(tmp_path), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_runs_at_tiny_n(tmp_path, workload, trace):
    result = result_of(bench(tmp_path, "--workload", workload, "--trace", trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    saved = json.loads(
        (tmp_path / f"result-{workload}-seed42-trace{trace}.json").read_text()
    )
    for key in ("cpu_count", "loadavg_start", "python", "numpy", "scipy",
                "git_sha", "src_digest", "seed", "params"):
        assert key in saved["provenance"]


def test_runner_and_benchmark_json_agree():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_count_failures_counts_each_mismatched_op():
    reference = {"origin": {"l2_misses": 5}, "hlrc": {"messages": 3}}
    good = {"ops": {"origin": {"l2_misses": 5}, "hlrc": {"messages": 3}}, "errors": {}}
    bad = {"ops": {"origin": {"l2_misses": 6}, "hlrc": {"messages": 3}}, "errors": {}}
    raised = {"ops": {"origin": {"l2_misses": 5}}, "errors": {"hlrc": "boom"}}
    assert run.count_failures([good, good], reference) == (4, 0)
    assert run.count_failures([good, bad], reference) == (4, 1)
    assert run.count_failures([raised], reference) == (2, 1)
    assert run.count_failures([None], reference) == (2, 2)


def test_perturbed_pinned_counter_counts_as_failed(tmp_path):
    pins = tmp_path / "pins.json"
    args = ("--workload", "cell-unstructured", "--pins", str(pins))
    assert result_of(bench(tmp_path, *args, "--record-pins"))["failed"] == 0
    data = json.loads(pins.read_text())
    data["cell-unstructured"][f"n={TINY_N},seed=42"]["hlrc"]["messages"] += 1
    pins.write_text(json.dumps(data))
    result = result_of(bench(tmp_path, *args))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 3  # one of three cells


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell-bh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    doc = {
        "t0": 0.0,
        "t1": 10.0,
        "spans": [
            ["apps.generate", -3.0, -1.0, -1],  # set-up, before t0
            ["machines.origin", 1.0, 7.0, -1],
            ["trace.decode", 1.0, 2.0, 1],
            ["machines.l2_replay", 2.0, 5.0, 1],
        ],
        "counts": {"machines.l2_keys": 30, "trace.decode_requests": 4,
                   "trace.decodes": 1},
    }
    report = spans.layer_report(doc)
    assert report["machines.origin_s"] == pytest.approx(2.0)
    assert report["trace.decode_s"] == pytest.approx(1.0)
    assert report["machines.l2_replay_s"] == pytest.approx(3.0)
    assert report["apps.generate_s"] == pytest.approx(2.0)
    assert report["experiments.other_s"] == pytest.approx(4.0)
    assert report["bench.span_coverage"] == pytest.approx(0.6)
    assert report["machines.l2_keys_per_s"] == pytest.approx(10.0)
    assert report["trace.decode_hit_ratio"] == pytest.approx(0.75)
