"""Smoke check of the benchmark itself, at a tiny input size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, and checks that every
metric named in BENCHMARK.json is printed with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_and_layer_metrics():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == run.GATED
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracing.metric_names()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    table = "\n".join(lines[:-1])
    for name, unit in (("wall_s", "s"), ("wall_s_tail", "s"), ("setup_s", "s"),
                       ("peak_rss_mb", "MiB"), ("fail_ratio", "ratio")):
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in table.splitlines()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("series-deep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
