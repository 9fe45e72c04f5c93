"""End-to-end reproduction checks of the paper's qualitative claims.

These tests run the actual evaluation pipeline (with scaled-down data sets —
the relations are scale-invariant) and assert the *shape* of the paper's
results: who wins, in which regime, and by roughly what kind of factor.
"""

import pytest

from repro.eval import (
    SYSTEMS,
    ExperimentOrchestrator,
    WorkloadSpec,
    headline_summary,
)
from repro.platform import PlatformConfig

SCALE = 0.05


@pytest.fixture(scope="module")
def atax_comparison():
    """Data-intensive homogeneous workload across all five systems."""
    return ExperimentOrchestrator().compare(
        WorkloadSpec("homogeneous", "ATAX"), SYSTEMS,
        PlatformConfig(instances=6, input_scale=SCALE))


@pytest.fixture(scope="module")
def mix_comparison():
    """Heterogeneous mix across all five systems."""
    return ExperimentOrchestrator().compare(
        WorkloadSpec("heterogeneous", "MX1"), SYSTEMS,
        PlatformConfig(instances=2, input_scale=SCALE))


# --------------------------------------------------------------------------- #
# Abstract / Section 5.1                                                       #
# --------------------------------------------------------------------------- #
def test_flashabacus_outperforms_simd_on_data_intensive(atax_comparison):
    """Paper: FlashAbacus beats SIMD by 144% on data-intensive workloads."""
    assert atax_comparison.throughput("IntraO3") \
        > 1.5 * atax_comparison.throughput("SIMD")
    assert atax_comparison.throughput("InterDy") \
        > 1.5 * atax_comparison.throughput("SIMD")


def test_headline_throughput_and_energy(atax_comparison):
    """Paper headline: +127% bandwidth and -78.4% energy vs. SIMD."""
    summary = headline_summary(workloads=("ATAX", "MVT"), input_scale=SCALE)
    assert summary["mean_throughput_gain"] > 1.8     # at least +80%
    assert summary["mean_energy_saving"] > 0.5       # at least -50%


def test_interdy_is_best_for_homogeneous_workloads(atax_comparison):
    """Paper: InterDy achieves the best homogeneous performance."""
    best = max(("InterSt", "IntraIo", "InterDy", "IntraO3"),
               key=atax_comparison.throughput)
    assert best == "InterDy"


def test_intrao3_close_to_interdy_for_homogeneous(atax_comparison):
    """Paper: IntraO3 trails InterDy only slightly for homogeneous runs."""
    assert atax_comparison.throughput("IntraO3") \
        > 0.6 * atax_comparison.throughput("InterDy")


def test_interst_is_the_weakest_flashabacus_scheduler(atax_comparison):
    worst = min(("InterSt", "IntraIo", "InterDy", "IntraO3"),
                key=atax_comparison.throughput)
    assert worst == "InterSt"


def test_intrao3_beats_intraio(atax_comparison):
    """Paper: IntraO3 overcomes serial-microblock limits of IntraIo (+62%)."""
    assert atax_comparison.throughput("IntraO3") \
        > 1.2 * atax_comparison.throughput("IntraIo")


# --------------------------------------------------------------------------- #
# Heterogeneous workloads (Fig. 10b)                                           #
# --------------------------------------------------------------------------- #
def test_intrao3_is_best_for_heterogeneous_mixes(mix_comparison):
    """Paper: IntraO3 outperforms InterDy by ~15% on mixes."""
    best = max(("InterSt", "IntraIo", "InterDy", "IntraO3"),
               key=mix_comparison.throughput)
    assert best == "IntraO3"
    assert mix_comparison.throughput("IntraO3") \
        >= mix_comparison.throughput("InterDy")


def test_interdy_beats_interst_substantially_on_mixes(mix_comparison):
    """Paper: InterDy exhibits 177% better performance than InterSt."""
    assert mix_comparison.throughput("InterDy") \
        > 1.3 * mix_comparison.throughput("InterSt")


def test_flashabacus_beats_simd_on_mixes(mix_comparison):
    assert mix_comparison.throughput("IntraO3") \
        > mix_comparison.throughput("SIMD")


# --------------------------------------------------------------------------- #
# Latency (Fig. 11)                                                            #
# --------------------------------------------------------------------------- #
def test_intra_schedulers_have_shortest_minimum_latency(atax_comparison):
    """Paper: intra-kernel schedulers shorten single-kernel latency."""
    latency = atax_comparison.normalized_latency("SIMD")
    assert latency["IntraO3"]["min"] < latency["InterDy"]["min"]
    assert latency["IntraIo"]["min"] < latency["InterSt"]["min"]


def test_simd_latency_is_longest_for_data_intensive(atax_comparison):
    latency = atax_comparison.normalized_latency("SIMD")
    for system in ("InterDy", "IntraO3"):
        assert latency[system]["mean"] < 1.0


# --------------------------------------------------------------------------- #
# Energy (Fig. 13)                                                             #
# --------------------------------------------------------------------------- #
def test_all_flashabacus_schedulers_save_energy_on_data_intensive(atax_comparison):
    for system in ("InterSt", "IntraIo", "InterDy", "IntraO3"):
        assert atax_comparison.energy(system) < atax_comparison.energy("SIMD")


def test_simd_energy_is_dominated_by_data_movement_and_storage(atax_comparison):
    energy = atax_comparison.reports["SIMD"].energy
    non_compute = energy.data_movement + energy.storage_access
    assert non_compute / energy.total > 0.7


def test_flashabacus_energy_has_no_host_data_movement(atax_comparison):
    energy = atax_comparison.reports["IntraO3"].energy
    # Only the tiny kernel-offload PCIe traffic shows up as data movement.
    assert energy.data_movement / energy.total < 0.05


# --------------------------------------------------------------------------- #
# Utilization (Fig. 14)                                                        #
# --------------------------------------------------------------------------- #
def test_interdy_and_intrao3_keep_workers_busier_than_simd(atax_comparison):
    assert atax_comparison.utilization("InterDy") \
        > atax_comparison.utilization("SIMD")
    assert atax_comparison.utilization("IntraO3") \
        > atax_comparison.utilization("SIMD")


def test_heterogeneous_intrao3_utilization_beats_interst(mix_comparison):
    assert mix_comparison.utilization("IntraO3") \
        > mix_comparison.utilization("InterSt")
