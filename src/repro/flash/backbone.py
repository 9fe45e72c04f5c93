"""The flash backbone: four channels of TLC flash behind FPGA controllers.

The backbone is the "self-existent module" of Section 2.2 — reachable from
the processor complex over the tier-2 network / SRIO lanes.  It exposes
page-group granularity operations used by Flashvisor: read a physical page
group into DDR3L, program a page group from DDR3L, and erase a block row.
All timing comes from the per-channel models; energy is charged to the
``storage_access`` bucket.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.resources import BandwidthPipe
from ..hw.power import EnergyAccountant, PowerMonitor, STORAGE_ACCESS
from ..hw.spec import FlashSpec
from .channel import FlashChannel
from .controller import FlashController
from .geometry import FlashGeometry, PhysicalPageAddress


class FlashBackbone:
    """Aggregates the flash channels and their controllers."""

    def __init__(self, env: Environment, spec: FlashSpec,
                 energy: Optional[EnergyAccountant] = None,
                 controller_queue_depth: int = 16,
                 power_monitor: Optional[PowerMonitor] = None):
        self.env = env
        self.spec = spec
        self.energy = energy
        self.power_monitor = power_monitor
        self._active_streams = 0
        self.geometry = FlashGeometry(spec)
        self.channels = [FlashChannel(env, spec, c)
                         for c in range(spec.channels)]
        self.controllers = [FlashController(env, spec, ch,
                                            controller_queue_depth)
                            for ch in self.channels]
        self.page_group_reads = 0
        self.page_group_writes = 0
        self.block_erases = 0
        # Bulk data-section transfers share the backbone's aggregate
        # bandwidth; a single lane per direction serializes concurrent bulk
        # streams, which is equivalent to fair bandwidth sharing for
        # makespan purposes.  Reads are bus-limited while programs are
        # die-limited (the 2.6 ms TLC program dominates), so background
        # write-buffer flushes barely disturb the read path — they are kept
        # on a separate lane.  A lane's unloaded service time is the
        # access latency plus the bytes over its aggregate bandwidth.
        self._bulk_read_lane = BandwidthPipe(
            env, self.aggregate_read_bandwidth, spec.page_read_latency_s,
            name="backbone.bulk_read")
        self._bulk_program_lane = BandwidthPipe(
            env, self.aggregate_program_bandwidth,
            spec.page_program_latency_s, name="backbone.bulk_program")
        self.bulk_bytes_read = 0
        self.bulk_bytes_written = 0

    # -- page-group operations -----------------------------------------------
    def read_page_group(self, physical_group: int):
        """Process generator: read every page of a physical page group.

        The group's pages live on different channels and planes, so the
        reads proceed in parallel; the call completes when all pages have
        been transferred.
        """
        pages = self.geometry.group_to_physical_pages(physical_group)
        start = self.env.now
        done_events = []
        for page in pages:
            txn = yield from self.controllers[page.channel].submit("read", page)
            done_events.append(txn.done)
        yield self.env.all_of(done_events)
        self.page_group_reads += 1
        self._charge(self.env.now - start)

    def program_page_group(self, physical_group: int):
        """Process generator: program every page of a physical page group."""
        pages = self.geometry.group_to_physical_pages(physical_group)
        start = self.env.now
        done_events = []
        for page in pages:
            txn = yield from self.controllers[page.channel].submit(
                "program", page)
            done_events.append(txn.done)
        yield self.env.all_of(done_events)
        self.page_group_writes += 1
        self._charge(self.env.now - start, self.spec.program_power_w)

    def erase_block_row(self, row_id: int):
        """Process generator: erase the block stripe backing ``row_id``."""
        start = self.env.now
        done_events = []
        groups_per_row = self.geometry.groups_per_block_row
        sample_group = row_id * groups_per_row
        pages = self.geometry.group_to_physical_pages(
            min(sample_group, self.geometry.page_groups_total - 1))
        seen = set()
        for page in pages:
            key = (page.channel, page.package, page.die)
            if key in seen:
                continue
            seen.add(key)
            erase_addr = PhysicalPageAddress(
                channel=page.channel, package=page.package, die=page.die,
                plane=0, block=page.block, page=0)
            txn = yield from self.controllers[page.channel].submit(
                "erase", erase_addr)
            done_events.append(txn.done)
        yield self.env.all_of(done_events)
        self.block_erases += 1
        self._charge(self.env.now - start)

    # -- bulk (data-section) transfers -----------------------------------------
    @property
    def aggregate_read_bandwidth(self) -> float:
        """Sustained read bandwidth with die-level parallelism (Table 1)."""
        return self.spec.channels * self.spec.channel_bus_bandwidth

    @property
    def aggregate_program_bandwidth(self) -> float:
        """Sustained program bandwidth limited by the 2.6 ms TLC program."""
        array_rate = (self.geometry.dies_total * self.spec.page_bytes
                      / self.spec.page_program_latency_s)
        return min(array_rate, self.aggregate_read_bandwidth)

    def bulk_read(self, num_bytes: int):
        """Process generator: stream ``num_bytes`` from flash (data section).

        Used by Flashvisor when a kernel maps a data section for reads;
        page-group fan-out is folded into an aggregate bandwidth model so a
        multi-hundred-megabyte data section does not expand into hundreds
        of thousands of per-page events.
        """
        if num_bytes == 0:
            return 0.0
        env = self.env
        start = env.now
        self._stream_begin(self.spec.power_w, start)
        yield from self._bulk_read_lane.transfer(num_bytes)
        self._stream_end(env.now)
        self.bulk_bytes_read += num_bytes
        self._charge(env.now - start)
        return env.now - start

    def bulk_program(self, num_bytes: int):
        """Process generator: stream ``num_bytes`` into flash (write-back)."""
        if num_bytes == 0:
            return 0.0
        start = self.env.now
        end = self.reserve_program(num_bytes, start)
        yield self.env.timeout_at(end)
        self.complete_program(num_bytes, start, end)
        return end - start

    def reserve_program(self, num_bytes: int, start: float) -> float:
        """First step of a bulk program issued at instant ``start``: the
        stream begins and the program lane is reserved.  Returns the
        instant the program ends, where :meth:`complete_program` runs."""
        self._stream_begin(self.spec.program_power_w, start)
        return self._bulk_program_lane.reserve(num_bytes, start)

    def complete_program(self, num_bytes: int, start: float,
                         end: float) -> None:
        """Last step of a bulk program from ``start`` to ``end``."""
        self._bulk_program_lane.bytes_moved += num_bytes
        self._stream_end(end)
        self.bulk_bytes_written += num_bytes
        self._charge(end - start, self.spec.program_power_w)

    # -- helpers ---------------------------------------------------------------
    def _stream_begin(self, power_w: float, now: float) -> None:
        self._active_streams += 1
        if self.power_monitor is not None:
            self.power_monitor.set_draw("flash_backbone", power_w, now)

    def _stream_end(self, now: float) -> None:
        self._active_streams = max(0, self._active_streams - 1)
        if self.power_monitor is not None and self._active_streams == 0:
            self.power_monitor.set_draw("flash_backbone", 0.0, now)

    def _charge(self, seconds: float, power_w: Optional[float] = None) -> None:
        if self.energy is not None:
            watts = self.spec.power_w if power_w is None else power_w
            self.energy.charge_power("flash_backbone", STORAGE_ACCESS,
                                     watts, seconds)

    # -- metrics ----------------------------------------------------------------
    def bytes_read(self) -> int:
        return sum(c.bytes_read for c in self.channels) + self.bulk_bytes_read

    def bytes_written(self) -> int:
        return (sum(c.bytes_written for c in self.channels)
                + self.bulk_bytes_written)

    def mean_channel_utilization(self) -> float:
        if not self.channels:
            return 0.0
        return sum(c.bus_utilization() for c in self.channels) / len(self.channels)
