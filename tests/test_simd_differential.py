"""A pinned differential for the SIMD baseline.

The conventional system is one serial loop: read a chunk from the SSD,
push it through the host storage stack and PCIe, compute on all LWPs,
repeat.  Each run's state is folded into one sha256:

* the 14 heterogeneous mixes at ``input_scale`` 0.125 with 4 instances
  per kernel, with the power series off and on: the full report
  (``fu_series`` and ``power_series`` included), every kernel's
  :class:`KernelTimeBreakdown` and the clock.  A run with the power
  series off records no ``fu_series``; its digest splices in the series
  of the same mix's run with the flag on, so the pins taken when every
  run recorded it also show that recording moves no simulated number;
* the Fig. 3d breakdown (:func:`baseline_breakdown`);
* SIMD serving under Poisson and MMPP arrivals at a low rate and at a
  rate that saturates the serial device: the report, the breakdowns,
  the energy breakdown and the clock.

The digests were taken from the model that held the SSD in a one-slot
resource, fanned OpenMP compute out to one process per LWP and waited
on the storage stack's software and copy time separately; a timing or
accounting change anywhere on the baseline's path moves them.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.baseline import BaselineSystem
from repro.eval.motivation import baseline_breakdown
from repro.platform import PlatformConfig
from repro.serve import ServingScenario, ServingSession
from repro.workloads import heterogeneous_workload
from repro.workloads.mixes import MIX_ORDER

BATCH_SCALE = 0.125
BATCH_INSTANCES = 4
SERVE_SCALE = 0.05

#: (mix, power series tracked) -> sha256 of the batch run's state.
BATCH_DIGESTS = {
    ("MX1", False):
        "c08c02fa2eeaaaa69f83fea2197df733c091e7894fbb25ebe81063e1bc728b57",
    ("MX1", True):
        "b69b0091e9610a6eba751384168884012d73c28156f418fef25078795d56e3b6",
    ("MX2", False):
        "c5d5176b49bc9bf33d6225b25e249a08b5591e9740b55094eaf9ccfa70e5b284",
    ("MX2", True):
        "be812960a64d29b76294a1e4d17dac57498b6ef19b0007da7f5662446716a59c",
    ("MX3", False):
        "9bc9f6557e783cb5fed64824ea6eaa4c289dae56f55619c5696705a3cdf95e12",
    ("MX3", True):
        "9ef23cf2768b9e513994d4598a993867ef51b05f0b17c3ddbb16f9b7ee4772b5",
    ("MX4", False):
        "ece5b1a5f3b8499b380b98a139df767e2402ac4c7050053bf91cc2b6660371c5",
    ("MX4", True):
        "9f524e137fc339576356b588a37487d2e9797ec948e04ce64266a14198d4a888",
    ("MX5", False):
        "aae50c597144a906ea8bb49a78f551caca224409ee69258f0ca9d4566d941665",
    ("MX5", True):
        "4a1a124600b7eb3f7fbfe6a4cdd25b0223e5d7c512d1826c32628b323427bca7",
    ("MX6", False):
        "722f16ed0bdbb6c22ebb6f9dd630f7bd0c20460bb3e73d5949a55e6fb8537bd3",
    ("MX6", True):
        "a4f71f488abcea9249762bcdf462c7e17dacc288ee1124b4fb214256344ec57c",
    ("MX7", False):
        "19b6740726aa343066c46386ffa7dec9d59cabe319c34dc8a751435e9f56e8b0",
    ("MX7", True):
        "04180fd2ee8d7836f7a0a75aede505a61a8c2d605106f33f851f3ce6cc18e152",
    ("MX8", False):
        "79e1655cc669b58a699555e5e409e9fccd1caa8103c77c3fc54162c87a11166c",
    ("MX8", True):
        "3590d4decee16015158edfcce954c72d65b501790fddb00a90bb4ec590ac2e03",
    ("MX9", False):
        "c5ce9cbe49a92cf3e1f2dd5bc990b24e12183ccbb0b5bfb70a3259b4cfb30059",
    ("MX9", True):
        "718081e77cca7b3aa8c825b4f0dd47d9b7f549b882b3653ee5bf7cfb2c015f0e",
    ("MX10", False):
        "3fb832fddc664c09db94ca7ee66996f633776b4a6f839a6a3c0b054adff83244",
    ("MX10", True):
        "02767b4c6c92029b1f904eb225ebd1bf7ca1eb19ee3afbf9139e13b3cca55f5a",
    ("MX11", False):
        "d6b5a47048eca8da5d74f83d5cac231f5b4494cd2215bbf9ec1e95447aaec429",
    ("MX11", True):
        "00275ed8b5a559a7c0b89cce2faf91528b6190c5047c6fd005a34e5a998659bf",
    ("MX12", False):
        "5c47a7bbad804128342c64aca0792b7bbe1ba8b9c51fef2473c73825ea6e9e9c",
    ("MX12", True):
        "b1d5f6a6e9f695e4b2ca6d8bc903ca3c256e5e20697b65f06ebefa8f89313b2f",
    ("MX13", False):
        "71ed5e72d1fd007e7ba6dc347fc8fc1061d51c0e42370101479da5c6b05629db",
    ("MX13", True):
        "b8df135f2e001eda05764bf20e967754ed4943175de257bf1ea8a8d28428dd9e",
    ("MX14", False):
        "c6076d65f2e8f8bd67c996b4c958843ef326421a1cf34f2289348c21b4109601",
    ("MX14", True):
        "d76f3e354effc96c9245ccf7b29f5a8fcf12f7a8e7b6089f3bd386586ddc8f9e",
}

#: sha256 of the Fig. 3d breakdown rows.
BREAKDOWN_DIGEST = "1278deb068b53373f0da6d59b71d54ee663f382e9ac48c8284cc02f9d9d837e5"

#: (arrival process, offered rps) -> sha256 of the serving run's state.
#: 5 rps leaves the device idle between requests; at 40 rps the queue
#: grows for the whole horizon (the makespan is several times it).
SERVE_DIGESTS = {
    ("poisson", 5.0):
        "237559538b88dcbe35f3a38c1aac9bb3c31d2ae114e8ba63bd318c0d238cbb85",
    ("poisson", 40.0):
        "9fed6b965df27d5950b1e558aee75aa4a9f26b2b4e7a8a521daeec6118236309",
    ("mmpp", 5.0):
        "54e878be5ba8312d3af9a18d31bbc559aef4ab70edaf2576f4c4139333910618",
    ("mmpp", 40.0):
        "3c7b73603acf5f14dea1a5b81a8a7592b28cb02722ad65c62997df9a9dbf9fd6",
}


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()


def batch_state(mix: str, power_series: bool) -> dict:
    config = PlatformConfig(system="SIMD", input_scale=BATCH_SCALE,
                            instances=BATCH_INSTANCES,
                            track_power_series=power_series)
    system = BaselineSystem(config=config)
    kernels = heterogeneous_workload(mix,
                                     instances_per_kernel=BATCH_INSTANCES,
                                     input_scale=BATCH_SCALE)
    report = system.run_workload(kernels, mix)
    system.env.close()
    return {
        "now": system.env.now,
        "report": report.to_dict(),
        "breakdowns": [dataclasses.asdict(b) for b in system.breakdowns],
    }


def batch_digest(mix: str, power_series: bool) -> str:
    state = batch_state(mix, power_series)
    if not power_series:
        assert state["report"]["fu_series"] is None
        state["report"]["fu_series"] = \
            batch_state(mix, True)["report"]["fu_series"]
    return _digest(state)


def serve_digest(process: str, offered_rps: float) -> str:
    session = ServingSession(
        ServingScenario(process=process, offered_rps=offered_rps,
                        duration_s=2.0, seed=7),
        PlatformConfig(system="SIMD", input_scale=SERVE_SCALE))
    report = session.run()
    system = session.frontend.backend.system
    return _digest({
        "now": system.env.now,
        "report": report.to_dict(),
        "breakdowns": [dataclasses.asdict(b) for b in system.breakdowns],
        "energy": system.energy.breakdown.as_dict(),
    })


@pytest.mark.parametrize("power_series", [False, True],
                         ids=["plain", "power"])
@pytest.mark.parametrize("mix", MIX_ORDER)
def test_batch_mix_matches_its_pinned_digest(mix, power_series):
    assert batch_digest(mix, power_series) == \
        BATCH_DIGESTS[(mix, power_series)]


def test_fig3d_breakdown_matches_its_pinned_digest():
    rows = [dataclasses.asdict(row) for row in baseline_breakdown()]
    assert _digest(rows) == BREAKDOWN_DIGEST


@pytest.mark.parametrize("process,offered_rps",
                         [("poisson", 5.0), ("poisson", 40.0),
                          ("mmpp", 5.0), ("mmpp", 40.0)])
def test_serving_run_matches_its_pinned_digest(process, offered_rps):
    assert serve_digest(process, offered_rps) == \
        SERVE_DIGESTS[(process, offered_rps)]
