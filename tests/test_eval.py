"""Tests for the evaluation harness: runner, motivation study, experiments."""

import pytest

from repro.eval import (
    SYSTEMS,
    ExperimentOrchestrator,
    WorkloadSpec,
    baseline_breakdown,
    fig10a_homogeneous_throughput,
    fig11_latency,
    fig12_completion_cdf,
    fig13_energy_breakdown,
    fig14_utilization,
    fig15_timeseries,
    fig16_realworld,
    format_comparison,
    format_table,
    geometric_mean,
    headline_summary,
    improvement_pct,
    run_system,
    serial_fraction_sweep,
)
from repro.platform import PlatformConfig
from repro.workloads import homogeneous_workload

SCALE = 0.02


# --------------------------------------------------------------------------- #
# Runner                                                                       #
# --------------------------------------------------------------------------- #
def test_systems_list_matches_paper():
    assert SYSTEMS == ["SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"]


def test_run_system_dispatches_to_the_right_engine():
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    simd = run_system(PlatformConfig(system="SIMD"), kernels, "MVT")
    assert simd.system == "SIMD"
    kernels = homogeneous_workload("MVT", instances=2, input_scale=SCALE)
    fa = run_system(PlatformConfig(system="IntraO3"), kernels, "MVT")
    assert fa.system == "IntraO3"
    with pytest.raises(ValueError):
        run_system(PlatformConfig(system="GPU"), kernels, "MVT")


def test_compare_systems_collects_reports_and_normalizes():
    comparison = ExperimentOrchestrator().compare(
        WorkloadSpec("homogeneous", "MVT"), ("SIMD", "InterDy"),
        PlatformConfig(instances=2, input_scale=SCALE))
    assert set(comparison.reports) == {"SIMD", "InterDy"}
    assert comparison.throughput("InterDy") > 0
    assert comparison.energy("InterDy") > 0
    latency = comparison.normalized_latency("SIMD")
    assert latency["SIMD"]["mean"] == pytest.approx(1.0)
    assert latency["InterDy"]["mean"] > 0


# --------------------------------------------------------------------------- #
# Motivation (Fig. 3)                                                          #
# --------------------------------------------------------------------------- #
def test_serial_sweep_shows_amdahl_behaviour():
    points = serial_fraction_sweep(cores_list=[1, 8],
                                   serial_fractions=[0.0, 0.3])
    by_key = {(p.cores, p.serial_fraction): p for p in points}
    # More cores -> more throughput at 0% serial.
    assert by_key[(8, 0.0)].throughput_gb_per_s \
        > 4 * by_key[(1, 0.0)].throughput_gb_per_s
    # Serial fraction hurts throughput and utilization at 8 cores.
    assert by_key[(8, 0.3)].throughput_gb_per_s \
        < by_key[(8, 0.0)].throughput_gb_per_s
    assert by_key[(8, 0.3)].utilization_pct < 60.0
    # One core is insensitive to the serial fraction.
    assert by_key[(1, 0.3)].throughput_gb_per_s == pytest.approx(
        by_key[(1, 0.0)].throughput_gb_per_s, rel=0.05)


def test_baseline_breakdown_distinguishes_data_and_compute_intensive():
    rows = {r.workload: r for r in baseline_breakdown(
        workloads=("ATAX", "SYRK"), input_scale=0.05)}
    atax, syrk = rows["ATAX"], rows["SYRK"]
    io_atax = atax.ssd_fraction + atax.host_stack_fraction
    io_syrk = syrk.ssd_fraction + syrk.host_stack_fraction
    assert io_atax > io_syrk
    assert syrk.accelerator_fraction > atax.accelerator_fraction
    # Energy: the storage path dominates even for compute-intensive kernels
    # (the paper reports > 77% on average).
    assert atax.energy_ssd_fraction + atax.energy_host_stack_fraction > 0.6
    # Fractions are normalized.
    assert atax.accelerator_fraction + io_atax == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Section 5 experiment functions (scaled down)                                 #
# --------------------------------------------------------------------------- #
def test_fig10a_subset_has_expected_ordering():
    data = fig10a_homogeneous_throughput(
        workloads=("ATAX",), systems=("SIMD", "InterSt", "InterDy"),
        instances=3, input_scale=SCALE)
    atax = data["ATAX"]
    assert atax["InterDy"] > atax["SIMD"]
    assert atax["InterDy"] > atax["InterSt"]


def test_fig11_latency_normalized_to_simd():
    data = fig11_latency(workloads=("MVT",), systems=("SIMD", "IntraO3"),
                         input_scale=SCALE)
    assert data["MVT"]["SIMD"]["mean"] == pytest.approx(1.0)
    assert data["MVT"]["IntraO3"]["mean"] < 1.0


def test_fig12_cdf_counts_every_kernel():
    data = fig12_completion_cdf(workload="MVT", systems=("SIMD", "InterDy"),
                                input_scale=SCALE)
    for system, series in data.items():
        assert series[-1][1] == 6
        times = [t for t, _count in series]
        assert times == sorted(times)


def test_fig13_energy_normalized_to_simd_total():
    data = fig13_energy_breakdown(workloads=("ATAX",),
                                  systems=("SIMD", "IntraO3"),
                                  input_scale=SCALE)
    simd = data["ATAX"]["SIMD"]
    assert simd["total"] == pytest.approx(1.0)
    assert data["ATAX"]["IntraO3"]["total"] < 1.0


def test_fig14_utilization_bounds():
    data = fig14_utilization(workloads=("MVT",),
                             systems=("SIMD", "InterDy"), input_scale=SCALE)
    for per_system in data.values():
        for value in per_system.values():
            assert 0.0 <= value <= 100.0
    assert data["MVT"]["InterDy"] > data["MVT"]["SIMD"]


def test_fig15_timeseries_structure():
    data = fig15_timeseries("MX1", input_scale=0.01, sample_points=20)
    assert set(data) == {"SIMD", "IntraO3"}
    for result in data.values():
        assert result.makespan_s > 0
        assert len(result.power_values) > 0
        assert len(result.fu_values) > 0
    assert data["SIMD"].peak_power_w > data["IntraO3"].peak_power_w
    assert data["IntraO3"].makespan_s < data["SIMD"].makespan_s


def test_fig16_realworld_energy_and_throughput():
    data = fig16_realworld(workloads=("bfs",), systems=("SIMD", "IntraO3"),
                           instances=2, input_scale=SCALE)
    bfs = data["bfs"]
    assert bfs["SIMD"]["normalized_energy"] == pytest.approx(1.0)
    assert bfs["IntraO3"]["normalized_energy"] < 1.0
    assert bfs["IntraO3"]["throughput_mb_per_s"] > bfs["SIMD"]["throughput_mb_per_s"]


def test_headline_summary_reports_gain_and_saving():
    summary = headline_summary(workloads=("ATAX",), input_scale=SCALE)
    assert summary["mean_throughput_gain"] > 1.0
    assert 0.0 < summary["mean_energy_saving"] < 1.0


# --------------------------------------------------------------------------- #
# Report helpers                                                               #
# --------------------------------------------------------------------------- #
def test_format_table_alignment_and_floats():
    text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.50" in text and "2.00" in text


def test_format_comparison_renders_workload_rows():
    text = format_comparison("Fig X", {"ATAX": {"SIMD": 1.0, "IntraO3": 2.3}},
                             metric_name="MB/s")
    assert "ATAX" in text and "IntraO3" in text and "2.30" in text


def test_geometric_mean_and_improvement():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([0.0, -1.0]) == 0.0
    assert improvement_pct(2.27, 1.0) == pytest.approx(127.0)
    assert improvement_pct(1.0, 0.0) == float("inf")
    assert improvement_pct(0.0, 0.0) == 0.0
