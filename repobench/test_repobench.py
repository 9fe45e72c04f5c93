"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest repobench -q

Every workload runs at tiny scale, traced and untraced, in its own
interpreter exactly as the benchmark command runs it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_workloads  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def bench(*args: str):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_each_workload_runs_at_tiny_scale(workload, trace):
    done, result = bench("--workload", workload, "--tiny", "--seconds", "0",
                         "--trace", trace)
    assert done.returncode == 0, done.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name) and len(name) <= 64, name
            assert UNIT.match(unit), unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.WORKLOAD_NAMES)


def _tiny_serving_report(workload_cls):
    workload = workload_cls(tiny=True)
    clock = bench_workloads.SetupClock()
    workload.install_setup_marks(clock)
    return workload.run_unit(11, clock).reports[0]


def test_conservation_gate_rejects_doctored_reports():
    report = _tiny_serving_report(bench_workloads.ServeKnee)
    assert bench_workloads.serving_errors(report) == []
    for field, delta in (("rejected", 1), ("completed", -1),
                         ("admitted", 1)):
        doctored = dict(report, **{field: report[field] + delta})
        assert bench_workloads.serving_errors(doctored), field

    fleet = _tiny_serving_report(bench_workloads.FleetFailover)
    assert bench_workloads.serving_errors(fleet) == []
    devices = [dict(d) for d in fleet["devices"]]
    devices[0]["energy_j"] *= 1.01
    assert any("energy" in error for error in
               bench_workloads.serving_errors(dict(fleet, devices=devices)))


def test_batch_gate_requires_every_simulation():
    report = {"workload": "MX1", "system": "IntraO3", "makespan_s": 1.0,
              "bytes_processed": 10, "energy": {"total": 1.0},
              "kernel_latencies": [0.5] * 24}
    assert bench_workloads.batch_errors([report] * 70, 70, 24) == []
    assert bench_workloads.batch_errors([report] * 69, 70, 24)
    short = dict(report, kernel_latencies=[0.5] * 23)
    assert bench_workloads.batch_errors([report] * 69 + [short], 70, 24)


def test_seed_changes_arrivals_but_not_the_metric_set():
    workload = bench_workloads.ServeKnee(tiny=True)
    duration = workload.duration_s
    first = [r.arrival_s for r in
             workload.scenario(11).make_arrivals().generate(duration)]
    again = [r.arrival_s for r in
             workload.scenario(11).make_arrivals().generate(duration)]
    other = [r.arrival_s for r in
             workload.scenario(12).make_arrivals().generate(duration)]
    assert first == again and first != other
    batch = bench_workloads.BatchMixes(tiny=True)
    assert batch.input_scale(11) != batch.input_scale(12)

    _, a = bench("--workload", "serve-knee", "--tiny", "--seconds", "0",
                 "--seed", "11")
    _, b = bench("--workload", "serve-knee", "--tiny", "--seconds", "0",
                 "--seed", "12")
    assert list(a["metrics"]) == list(b["metrics"])
    assert a["metrics"]["latency_p50_ms"] != b["metrics"]["latency_p50_ms"]


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "repobench/run.py", "--workload",
                           "serve-knee", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
