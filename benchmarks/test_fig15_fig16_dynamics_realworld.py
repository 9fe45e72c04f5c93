"""Figures 15 and 16: runtime dynamics and graph/big-data applications."""

from repro.eval import fig15_timeseries, fig16_realworld, format_table
from repro.workloads import REALWORLD_ORDER

from bench_common import BENCH_INPUT_SCALE, BENCH_ORCHESTRATOR, run_once


def test_fig15_functional_units_and_power(benchmark):
    """Fig. 15: FU utilization and power over time, SIMD vs. IntraO3 (MX1)."""
    data = run_once(benchmark, fig15_timeseries, workload="MX1",
                    input_scale=BENCH_INPUT_SCALE, sample_points=100,
                    orchestrator=BENCH_ORCHESTRATOR)
    rows = []
    for system, result in data.items():
        rows.append((system, result.makespan_s, result.mean_active_fus,
                     result.peak_power_w))
    print("\nFig. 15: runtime dynamics summary (MX1)")
    print(format_table(["system", "makespan (s)", "mean active FUs",
                        "peak power (W)"], rows))
    simd, intra = data["SIMD"], data["IntraO3"]
    # IntraO3 completes the execution earlier than SIMD (paper: 3600 us
    # earlier on their trace) ...
    assert intra.makespan_s < simd.makespan_s
    # ... keeps more functional units busy while computing ...
    assert intra.mean_active_fus > simd.mean_active_fus
    # ... and never approaches SIMD's storage-access power peaks, which
    # include the host CPU, host DRAM and the external SSD.
    assert intra.peak_power_w < 0.5 * simd.peak_power_w
    # Both traces actually contain time-resolved samples for plotting.
    assert len(simd.power_values) > 10
    assert len(intra.fu_values) > 10
    # Each trace's time axis rises strictly and ends inside the run (the
    # resampler's 1e-12 s slack on its last step included).
    for result in (simd, intra):
        for times, values in ((result.fu_times, result.fu_values),
                              (result.power_times, result.power_values)):
            assert len(times) == len(values)
            assert all(a < b for a, b in zip(times, times[1:]))
            assert times[-1] <= result.makespan_s + 1e-12


def test_fig16_graph_and_bigdata_applications(benchmark):
    """Fig. 16: throughput and energy for bfs / wc / nn / nw / path."""
    data = run_once(benchmark, fig16_realworld,
                    workloads=tuple(REALWORLD_ORDER),
                    instances=4, input_scale=BENCH_INPUT_SCALE,
                    orchestrator=BENCH_ORCHESTRATOR)
    rows = []
    for workload, per_system in data.items():
        for system, metrics in per_system.items():
            rows.append((workload, system, metrics["throughput_mb_per_s"],
                         metrics["normalized_energy"]))
    print("\nFig. 16: graph/bigdata throughput (MB/s) and normalized energy")
    print(format_table(["workload", "system", "MB/s", "energy vs SIMD"], rows))
    for workload, per_system in data.items():
        # All FlashAbacus dynamic policies outperform SIMD on these
        # data-intensive applications (paper: 2.1x-3.4x).
        for system in ("IntraIo", "InterDy", "IntraO3"):
            assert per_system[system]["throughput_mb_per_s"] \
                > per_system["SIMD"]["throughput_mb_per_s"]
        # And every FlashAbacus policy saves energy (paper: 74%-88%).
        for system in ("InterSt", "IntraIo", "InterDy", "IntraO3"):
            assert per_system[system]["normalized_energy"] < 1.0
