"""Unit tests for the workload suite (Table 2, mixes, generator)."""

import pytest

from repro.workloads import (
    COMPUTE_INTENSIVE,
    DATA_INTENSIVE,
    MIX_COMPOSITIONS,
    MIX_ORDER,
    POLYBENCH,
    POLYBENCH_ORDER,
    REALWORLD,
    REALWORLD_ORDER,
    build_workload_kernel,
    heterogeneous_workload,
    homogeneous_workload,
    lookup,
    mix_applications,
    realworld_workload,
    serial_sweep_kernels,
    synthetic_kernel,
    table2_rows,
)
from repro.workloads.polybench import polybench_application


# --------------------------------------------------------------------------- #
# Table 2 characteristics                                                      #
# --------------------------------------------------------------------------- #
def test_table2_has_all_fourteen_workloads():
    assert len(POLYBENCH) == 14
    assert len(POLYBENCH_ORDER) == 14
    assert set(POLYBENCH_ORDER) == set(POLYBENCH)


@pytest.mark.parametrize("name,mblks,serial,input_mb,ldst,bki", [
    ("ATAX", 2, 1, 640, 45.61, 68.86),
    ("BICG", 2, 1, 640, 46.0, 72.3),
    ("MVT", 1, 0, 640, 45.1, 72.05),
    ("ADI", 3, 1, 1920, 23.96, 35.59),
    ("3MM", 3, 1, 2560, 33.68, 2.48),
    ("GEMM", 1, 0, 192, 30.77, 5.29),
    ("CORR", 4, 1, 640, 33.04, 2.79),
])
def test_table2_rows_match_paper(name, mblks, serial, input_mb, ldst, bki):
    wc = POLYBENCH[name]
    assert wc.microblocks == mblks
    assert wc.serial_microblocks == serial
    assert wc.input_mb == input_mb
    assert wc.ld_st_ratio_pct == pytest.approx(ldst)
    assert wc.bytes_per_kilo_instruction == pytest.approx(bki)


def test_data_vs_compute_intensive_classification():
    assert "ATAX" in DATA_INTENSIVE
    assert "MVT" in DATA_INTENSIVE
    assert "3MM" in COMPUTE_INTENSIVE
    assert "SYRK" in COMPUTE_INTENSIVE
    assert set(DATA_INTENSIVE) | set(COMPUTE_INTENSIVE) == set(POLYBENCH_ORDER)


def test_instruction_count_derivation():
    wc = POLYBENCH["ATAX"]
    expected = wc.input_bytes * 1000.0 / wc.bytes_per_kilo_instruction
    assert wc.instructions == pytest.approx(expected)
    # Compute-intensive kernels execute far more instructions per byte.
    assert (POLYBENCH["3MM"].instructions / POLYBENCH["3MM"].input_bytes
            > POLYBENCH["ATAX"].instructions / POLYBENCH["ATAX"].input_bytes)


def test_lookup_is_case_insensitive_and_covers_both_suites():
    assert lookup("atax").name == "ATAX"
    assert lookup("BFS").name == "bfs"
    with pytest.raises(KeyError):
        lookup("nonexistent")


def test_table2_rows_render():
    rows = table2_rows()
    assert len(rows) == 14
    assert rows[0][0] == "ATAX"


def test_realworld_suite_has_five_applications():
    assert set(REALWORLD_ORDER) == {"bfs", "wc", "nn", "nw", "path"}
    assert all(REALWORLD[name].is_data_intensive for name in REALWORLD_ORDER)


# --------------------------------------------------------------------------- #
# Kernel builders                                                              #
# --------------------------------------------------------------------------- #
def test_build_workload_kernel_matches_characteristics():
    wc = POLYBENCH["FDTD"]
    kernel = build_workload_kernel(wc, screens_per_microblock=4)
    assert kernel.name == "FDTD"
    assert len(kernel.microblocks) == wc.microblocks
    assert sum(m.serial for m in kernel.microblocks) == wc.serial_microblocks
    assert kernel.input_bytes == wc.input_bytes
    assert kernel.instructions == pytest.approx(wc.instructions, rel=1e-6)


def test_input_scale_shrinks_data_and_instructions_proportionally():
    wc = POLYBENCH["ATAX"]
    full = build_workload_kernel(wc)
    half = build_workload_kernel(wc, input_scale=0.5)
    assert half.input_bytes == pytest.approx(full.input_bytes / 2, rel=0.01)
    assert half.instructions == pytest.approx(full.instructions / 2, rel=0.01)
    with pytest.raises(ValueError):
        build_workload_kernel(wc, input_scale=0.0)


def test_homogeneous_workload_instance_count_and_app_sharing():
    kernels = homogeneous_workload("ATAX", instances=6, input_scale=0.01)
    assert len(kernels) == 6
    assert {k.app_id for k in kernels} == {0}
    assert {k.instance for k in kernels} == set(range(6))


def test_realworld_workload_builder():
    kernels = realworld_workload("bfs", instances=2, input_scale=0.01)
    assert len(kernels) == 2
    assert all(k.name == "bfs" for k in kernels)
    with pytest.raises(KeyError):
        realworld_workload("unknown")


def test_application_factory_assigns_ids():
    app = polybench_application("MVT", app_id=3)
    kernels = app.instantiate(2)
    assert all(k.app_id == 3 for k in kernels)
    assert len(kernels) == 2
    with pytest.raises(ValueError):
        app.instantiate(0)


# --------------------------------------------------------------------------- #
# Heterogeneous mixes                                                          #
# --------------------------------------------------------------------------- #
def test_all_fourteen_mixes_defined_with_six_apps_each():
    assert len(MIX_ORDER) == 14
    for mix in MIX_ORDER:
        names = MIX_COMPOSITIONS[mix]
        assert len(names) == 6
        assert len(set(names)) == 6
        assert all(name in POLYBENCH for name in names)


def test_heterogeneous_workload_size_and_interleaving():
    kernels = heterogeneous_workload("MX1", instances_per_kernel=4,
                                     input_scale=0.01)
    assert len(kernels) == 24
    assert {k.app_id for k in kernels} == set(range(6))
    # The first six kernels are one instance of each application.
    assert [k.app_id for k in kernels[:6]] == list(range(6))


def test_mix_applications_unknown_mix():
    with pytest.raises(KeyError):
        mix_applications("MX99")
    with pytest.raises(KeyError):
        heterogeneous_workload("MX0")


# --------------------------------------------------------------------------- #
# Synthetic generator                                                          #
# --------------------------------------------------------------------------- #
def test_synthetic_kernel_serial_fraction_respected():
    kernel = synthetic_kernel("s", total_instructions=1e6, input_bytes=1024,
                              serial_fraction=0.3, parallel_screens=4)
    assert kernel.serial_fraction == pytest.approx(0.3)
    assert kernel.instructions == pytest.approx(1e6)
    assert len(kernel.microblocks) == 2


def test_synthetic_kernel_extremes():
    fully_parallel = synthetic_kernel("p", 1e6, 1024, 0.0, 4,
                                      output_bytes=128)
    assert fully_parallel.serial_fraction == 0.0
    assert len(fully_parallel.microblocks) == 1
    assert fully_parallel.output_bytes == 128
    assert fully_parallel.microblocks[0].writes_flash
    fully_serial = synthetic_kernel("s", 1e6, 1024, 1.0, 4)
    assert fully_serial.serial_fraction == 1.0
    assert len(fully_serial.microblocks) == 1


def test_synthetic_kernel_validation():
    with pytest.raises(ValueError):
        synthetic_kernel("bad", 1e6, 0, 1.5, 4)
    with pytest.raises(ValueError):
        synthetic_kernel("bad", 1e6, 0, 0.5, 0)
    with pytest.raises(ValueError):
        synthetic_kernel("bad", -1, 0, 0.5, 1)


def test_serial_sweep_kernels_builder():
    kernels = serial_sweep_kernels(serial_fraction=0.2, instances=3,
                                   parallel_screens=4)
    assert len(kernels) == 3
    assert all(k.serial_fraction == pytest.approx(0.2) for k in kernels)
