"""A noise-free budget for the simulator's per-screen event cost.

Wall-clock floors are noisy on a shared host; the number of events a
fixed-seed run schedules is not.  The literals below pin one short
serving run at the IntraO3 knee load: a change that adds events per
screen (or changes how many screens run) fails here, with no timing
involved.  When a change lowers the count on purpose, update the
literal and record the old and new value in CHANGES.md.
"""

from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession

#: ``env._eid`` (events scheduled) and screens executed by the run below.
#: 13,164 events for 1,478 screens is 8.91 events per screen; each DDR3L
#: transfer and bulk flash read is one timeout, not a grant plus a timeout.
EVENTS = 13164
SCREENS = 1478


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
