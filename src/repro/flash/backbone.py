"""The flash backbone: four channels of TLC flash behind FPGA controllers.

The backbone is the "self-existent module" of Section 2.2 — reachable from
the processor complex over the tier-2 network / SRIO lanes.  It exposes
page-group granularity operations used by Storengine's garbage collection
(read a physical page group, program one, erase a block row) and bulk
data-section transfers used by Flashvisor.  Energy is charged to the
``storage_access`` bucket.

Section 2.2: "our flash controller implements inbound and outbound 'tag'
queues, each of which is used for buffering the requests with minimum
overheads."  Behind each channel's controller, its packages' dies share
the channel bus.  Those queues, the bus and the dies would shape a
page-group operation's time only under concurrent traffic, and there is
none: garbage collection issues one page-group operation at a time, and
each controller serves its pages one after another.  A group's pages
sit one per plane of the same die on every channel, so every channel
does the same work in parallel and finishes at the same instant:

* read: per plane, the page sense, then the page over the channel bus;
* program: per plane, the page over the bus, then the array program;
* erase: one block erase on every channel's die.

Each operation is therefore one timeout at that instant, built from the
same float additions in the same order as the serialized controller.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.resources import BandwidthPipe
from ..hw.power import EnergyAccountant, PowerMonitor, STORAGE_ACCESS
from ..hw.spec import FlashSpec
from .geometry import FlashGeometry


class FlashBackbone:
    """The flash channels: page-group operations and bulk lanes."""

    def __init__(self, env: Environment, spec: FlashSpec,
                 energy: Optional[EnergyAccountant] = None,
                 power_monitor: Optional[PowerMonitor] = None):
        self.env = env
        self.spec = spec
        self.energy = energy
        self.power_monitor = power_monitor
        self._active_streams = 0
        self.geometry = FlashGeometry(spec)
        #: One page's transfer over a channel bus.
        self._page_bus_s = spec.page_bytes / spec.channel_bus_bandwidth
        self.page_group_reads = 0
        self.page_group_writes = 0
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

        Every channel senses and transfers its pages of the group, one
        plane after another, in parallel with the other channels; where
        the group sits does not change its time.
        """
        start = self.env.now
        end = start
        for _plane in range(self.geometry.planes_per_die):
            end += self.spec.page_read_latency_s
            end += self._page_bus_s
        yield self.env.timeout_at(end)
        self.page_group_reads += 1
        self._charge(end - start)

    def program_page_group(self, physical_group: int):
        """Process generator: program every page of a physical page group."""
        start = self.env.now
        end = start
        for _plane in range(self.geometry.planes_per_die):
            end += self._page_bus_s
            end += self.spec.page_program_latency_s
        yield self.env.timeout_at(end)
        self.page_group_writes += 1
        self._charge(end - start, self.spec.program_power_w)

    def erase_block_row(self, row_id: int):
        """Process generator: erase the block stripe backing ``row_id``.

        Every channel erases its block of the stripe at once.
        """
        start = self.env.now
        end = start + self.spec.block_erase_latency_s
        yield self.env.timeout_at(end)
        self._charge(end - start)

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
        return (self.page_group_reads * self.geometry.page_group_bytes
                + self.bulk_bytes_read)

    def bytes_written(self) -> int:
        return (self.page_group_writes * self.geometry.page_group_bytes
                + self.bulk_bytes_written)

    def mean_channel_utilization(self) -> float:
        """Fraction of the clock each channel bus spent on page groups:
        every group read or program holds each bus for one page per
        plane."""
        now = self.env.now
        if now <= 0:
            return 0.0
        groups = self.page_group_reads + self.page_group_writes
        return (groups * self.geometry.planes_per_die * self._page_bus_s
                / now)
