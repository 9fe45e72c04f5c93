"""A noise-free budget for the simulator's event cost.

Wall-clock floors are noisy on a shared host; the number of events a
fixed-seed run schedules is not.  The literals below pin one short
serving run at the IntraO3 knee load and one compute-bound batch mix: a
change that adds events per screen, brings back Storengine's idle polls
(or changes how many screens run) fails here, with no timing involved.
When a change lowers a count on purpose, update the literal and record
the old and new value in CHANGES.md.
"""

from repro.core import FlashAbacusAccelerator
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.workloads import heterogeneous_workload

#: ``env._eid`` (events scheduled) and screens executed by the run below.
#: 13,163 events for 1,478 screens is 8.91 events per screen; each DDR3L
#: transfer and bulk flash read is one timeout, not a grant plus a timeout.
EVENTS = 13163
SCREENS = 1478

#: The same for MX7 (compute-bound, long idle stretches for Storengine)
#: on IntraO3.  Polling every 2 ms idle tick cost 2,858 events here.
BATCH_EVENTS = 696
BATCH_SCREENS = 58


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
