"""Lightweight processor (LWP) model.

The FlashAbacus prototype uses eight TI C6678-style VLIW cores.  For a
behavioral reproduction we do not emulate the instruction set; instead an
:class:`LWP` converts an instruction count into execution time using the
core frequency and an effective issue rate, while tracking busy time,
functional-unit occupancy and energy.

Two of the eight LWPs are reserved by FlashAbacus for Flashvisor and
Storengine (Section 3.3 / 4.3); the rest are *workers*.  The same model is
reused by the SIMD baseline, where all LWPs run data-parallel loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.engine import Environment
from ..sim.stats import IntervalAccumulator, TimeSeries, TimeWeightedStat
from .power import COMPUTATION, EnergyAccountant, PowerMonitor
from .spec import LWPSpec


class ClusterActivity:
    """Shared tracker of how many functional units are active cluster-wide.

    Feeds the Fig. 15a functional-unit utilization time series.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.stat = TimeWeightedStat(0.0, env.now)
        self.series = TimeSeries("active_functional_units")
        self.series.record(env.now, 0.0)

    def adjust(self, delta: float, now: float) -> None:
        """Shift the active count by ``delta`` at simulated time ``now``."""
        stat = self.stat
        stat.update(now, stat.value + delta)
        self.series.record(now, stat.value)

    @property
    def active(self) -> float:
        return self.stat.value

    def mean(self) -> float:
        return self.stat.mean(self.env.now)


@dataclass
class ComputeEstimate:
    """Breakdown of a compute phase produced by :meth:`LWP.estimate`."""

    instructions: float
    cycles: float
    seconds: float
    functional_units_used: int


class LWP:
    """One lightweight VLIW processor with private L1/L2 caches."""

    def __init__(self, env: Environment, spec: LWPSpec, lwp_id: int,
                 energy: Optional[EnergyAccountant] = None,
                 power_monitor: Optional[PowerMonitor] = None,
                 role: str = "worker",
                 activity: Optional[ClusterActivity] = None):
        self.env = env
        self.spec = spec
        self.lwp_id = lwp_id
        self.role = role
        self.energy = energy
        self.power_monitor = power_monitor
        self.activity = activity
        self._energy_key = f"lwp{lwp_id}"
        self._busy = IntervalAccumulator()
        self._fu_active = TimeWeightedStat(0.0, env.now)
        self.instructions_retired = 0.0
        self.kernels_executed = 0
        self.screens_executed = 0

    # -- timing model ------------------------------------------------------
    def estimate(self, instructions: float,
                 load_store_fraction: float = 0.3,
                 parallelism: float = 1.0) -> ComputeEstimate:
        """Estimate the execution profile of ``instructions`` on this core.

        ``load_store_fraction`` is the LD/ST ratio of the workload (Table 2)
        and bounds how many of the eight functional units the compiler can
        keep busy; ``parallelism`` optionally scales the effective issue
        rate for code with little ILP (serial microblocks).
        """
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        if not 0.0 <= load_store_fraction <= 1.0:
            raise ValueError("load_store_fraction must be in [0, 1]")
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        # LD/ST-heavy code is limited by the two load/store units; compute
        # heavy code can use the four general + two multiply units.
        ld_st_issue = self.spec.load_store_units / max(load_store_fraction, 1e-9)
        compute_issue = ((self.spec.general_units + self.spec.multiply_units)
                         / max(1.0 - load_store_fraction, 1e-9))
        issue = min(self.spec.effective_ipc, ld_st_issue, compute_issue)
        issue = max(1.0, issue * parallelism)
        cycles = instructions / issue
        seconds = cycles / self.spec.frequency_hz
        fus = min(self.spec.functional_units, max(1, round(issue)))
        return ComputeEstimate(instructions=instructions, cycles=cycles,
                               seconds=seconds, functional_units_used=fus)

    # -- simulated execution ---------------------------------------------
    def compute(self, instructions: float, load_store_fraction: float = 0.3,
                parallelism: float = 1.0, bucket: str = COMPUTATION):
        """Process generator: occupy this LWP for the estimated duration."""
        est = self.estimate(instructions, load_store_fraction, parallelism)
        self.begin_busy(est.functional_units_used)
        yield self.env.timeout(est.seconds)
        self.end_busy(est.functional_units_used)
        self.instructions_retired += instructions
        if self.energy is not None:
            self.energy.charge_power(self._energy_key, bucket,
                                     self.spec.power_per_core_w, est.seconds)
        return est

    def busy_for(self, seconds: float, functional_units: int = 1,
                 bucket: str = COMPUTATION):
        """Process generator: occupy the core for a fixed duration."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.begin_busy(functional_units)
        yield self.env.timeout(seconds)
        self.end_busy(functional_units)
        if self.energy is not None:
            self.energy.charge_power(self._energy_key, bucket,
                                     self.spec.power_per_core_w, seconds)

    # -- accounting hooks ----------------------------------------------------
    def begin_busy(self, functional_units: int = 1) -> None:
        now = self.env.now
        self._busy.begin(now)
        fu_active = self._fu_active
        fu_active.update(now, fu_active.value + functional_units)
        if self.activity is not None:
            self.activity.adjust(functional_units, now)
        if self.power_monitor is not None:
            self.power_monitor.set_draw(self._energy_key,
                                        self.spec.power_per_core_w)

    def end_busy(self, functional_units: int = 1) -> None:
        now = self.env.now
        self._busy.end(now)
        fu_active = self._fu_active
        fu_active.update(now, fu_active.value - functional_units)
        if self.activity is not None:
            self.activity.adjust(-functional_units, now)
        if self.power_monitor is not None and fu_active.value <= 0:
            self.power_monitor.set_draw(self._energy_key, 0.0)

    # -- metrics ---------------------------------------------------------------
    def busy_time(self) -> float:
        return self._busy.busy_time(self.env.now)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Busy fraction over ``horizon`` (defaults to elapsed sim time)."""
        horizon = self.env.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy.busy_time(self.env.now) / horizon)

    def active_functional_units(self) -> float:
        return self._fu_active.value

    def mean_functional_units(self) -> float:
        return self._fu_active.mean(self.env.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LWP(id={self.lwp_id}, role={self.role})"


class LWPCluster:
    """The full set of LWPs on the accelerator with role assignments."""

    FLASHVISOR_ROLE = "flashvisor"
    STORENGINE_ROLE = "storengine"
    WORKER_ROLE = "worker"

    def __init__(self, env: Environment, spec: LWPSpec,
                 energy: Optional[EnergyAccountant] = None,
                 power_monitor: Optional[PowerMonitor] = None,
                 reserve_management_cores: bool = True):
        self.env = env
        self.spec = spec
        self.activity = ClusterActivity(env)
        self.lwps = []
        for i in range(spec.count):
            if reserve_management_cores and i == 0:
                role = self.FLASHVISOR_ROLE
            elif reserve_management_cores and i == 1:
                role = self.STORENGINE_ROLE
            else:
                role = self.WORKER_ROLE
            self.lwps.append(LWP(env, spec, i, energy, power_monitor, role,
                                 activity=self.activity))

    @property
    def flashvisor_lwp(self) -> Optional[LWP]:
        for lwp in self.lwps:
            if lwp.role == self.FLASHVISOR_ROLE:
                return lwp
        return None

    @property
    def storengine_lwp(self) -> Optional[LWP]:
        for lwp in self.lwps:
            if lwp.role == self.STORENGINE_ROLE:
                return lwp
        return None

    @property
    def workers(self):
        return [lwp for lwp in self.lwps if lwp.role == self.WORKER_ROLE]

    def __len__(self) -> int:
        return len(self.lwps)

    def __iter__(self):
        return iter(self.lwps)

    def worker_utilization(self, horizon: Optional[float] = None) -> float:
        """Mean utilization across worker LWPs (Fig. 14 metric)."""
        workers = self.workers
        if not workers:
            return 0.0
        return sum(w.utilization(horizon) for w in workers) / len(workers)

    def total_active_functional_units(self) -> float:
        return sum(w.active_functional_units() for w in self.workers)
