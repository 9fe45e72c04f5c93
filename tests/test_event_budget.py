"""A noise-free budget for the simulator's event cost.

Wall-clock floors are noisy on a shared host; the number of events a
fixed-seed run schedules is not.  The literals below pin one short
serving run at the IntraO3 knee load, one compute-bound batch mix, one
journal-heavy batch mix and one batch mix on the SIMD baseline: a
change that adds events per screen, brings back Storengine's idle
polls, simulates the journal dumps nothing can observe, or queues the
baseline's serial steps on servers (or changes how many screens run)
fails here, with no timing involved.
When a change lowers a count on purpose, update the literal and record
the old and new value in CHANGES.md.
"""

from repro.baseline import BaselineSystem
from repro.core import FlashAbacusAccelerator
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.workloads import heterogeneous_workload

#: ``env._eid`` (events scheduled) and screens executed by the run below.
#: 13,145 events for 1,478 screens is 8.89 events per screen; each DDR3L
#: transfer and bulk flash read is one timeout, not a grant plus a timeout.
EVENTS = 13145
SCREENS = 1478

#: The same for MX7 (compute-bound, long idle stretches for Storengine)
#: on IntraO3.  Polling every 2 ms idle tick cost 2,858 events here, and
#: simulating every journal dump as three events 696.
BATCH_EVENTS = 442
BATCH_SCREENS = 58

#: InterSt on MX6, the longest makespan at this scale (13.6 s): 252
#: journal dumps against 43 screens.  Simulating each dump's steps as
#: events cost 1,183 events here.
JOURNAL_EVENTS = 444
JOURNAL_DUMPS = 252

#: MX7 on the SIMD baseline: 6 kernels, 6 SSD reads and 6 SSD writes.
#: With each SSD request a grant plus a timeout, each OpenMP fan-out
#: eight processes joined by a composite event and each storage-stack
#: pass two timeouts, this run scheduled 315 events.
SIMD_EVENTS = 75
SIMD_KERNELS = 6


def test_fixed_seed_serving_run_stays_within_its_event_budget():
    session = ServingSession(
        ServingScenario(process="poisson", offered_rps=240.0,
                        duration_s=1.0, seed=3),
        PlatformConfig(system="IntraO3", input_scale=0.01))
    report = session.run()
    accelerator = session.frontend.backend.accelerator
    assert report.completed == 227
    assert accelerator.screens_executed == SCREENS
    assert accelerator.env._eid == EVENTS


def test_fixed_batch_mix_stays_within_its_event_budget():
    accelerator = FlashAbacusAccelerator(
        config=PlatformConfig(system="IntraO3", input_scale=0.05))
    kernels = heterogeneous_workload("MX7", instances_per_kernel=1,
                                     input_scale=0.05)
    accelerator.run_workload(kernels, "MX7")
    assert accelerator.screens_executed == BATCH_SCREENS
    assert accelerator.env._eid == BATCH_EVENTS


def test_journal_heavy_batch_mix_stays_within_its_event_budget():
    accelerator = FlashAbacusAccelerator(
        config=PlatformConfig(system="InterSt", input_scale=0.05))
    kernels = heterogeneous_workload("MX6", instances_per_kernel=1,
                                     input_scale=0.05)
    accelerator.run_workload(kernels, "MX6")
    assert accelerator.storengine.stats.journal_dumps == JOURNAL_DUMPS
    assert accelerator.env._eid == JOURNAL_EVENTS


def test_simd_batch_mix_stays_within_its_event_budget():
    system = BaselineSystem(
        config=PlatformConfig(system="SIMD", input_scale=0.05))
    kernels = heterogeneous_workload("MX7", instances_per_kernel=1,
                                     input_scale=0.05)
    system.run_workload(kernels, "MX7")
    assert len(system.breakdowns) == SIMD_KERNELS
    assert system.env._eid == SIMD_EVENTS
