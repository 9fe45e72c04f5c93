"""Unit tests for the bandwidth pipe."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import BandwidthPipe


# --------------------------------------------------------------------------- #
# BandwidthPipe                                                                #
# --------------------------------------------------------------------------- #
def test_pipe_occupancy_time_includes_latency_and_bandwidth():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth_bytes_per_s=100.0, latency_s=1.0)
    assert pipe.occupancy_time(200) == pytest.approx(3.0)


def test_pipe_transfers_serialize():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth_bytes_per_s=100.0)
    ends = []

    def mover(env):
        yield from pipe.transfer(100)
        ends.append(env.now)

    env.process(mover(env))
    env.process(mover(env))
    env.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]
    assert pipe.bytes_moved == 200


def test_pipe_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth_bytes_per_s=0.0)
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth_bytes_per_s=1.0, latency_s=-1.0)
    pipe = BandwidthPipe(env, bandwidth_bytes_per_s=1.0)
    with pytest.raises(ValueError):
        pipe.occupancy_time(-1)


def test_pipe_records_transfers():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth_bytes_per_s=1000.0, latency_s=0.5)

    def mover(env):
        return (yield from pipe.transfer(500))

    proc = env.process(mover(env))
    env.run()
    assert proc.value == pytest.approx(1.0)     # the transfer's duration
    assert env.now == pytest.approx(1.0)
    assert pipe.bytes_moved == 500


class _OneSlotServer:
    """A minimal one-slot FIFO server: a grant is an event triggered at
    the instant the slot falls free, in arrival order."""

    def __init__(self, env):
        self.env = env
        self._held = False
        self._waiting = deque()

    def acquire(self):
        grant = self.env.event()
        if self._held:
            self._waiting.append(grant)
        else:
            self._held = True
            grant.succeed()
        return grant

    def release(self):
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._held = False


class _ServerPipe:
    """Reference pipe: a one-slot server held for a timeout, with the
    slot's held time summed as it is released."""

    def __init__(self, env, bandwidth, latency):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.server = _OneSlotServer(env)
        self._busy = 0.0
        self._held_since = None

    def transfer(self, num_bytes):
        start = self.env.now
        yield self.server.acquire()
        self._held_since = self.env.now
        yield self.env.timeout(self.latency + num_bytes / self.bandwidth)
        self._busy += self.env.now - self._held_since
        self._held_since = None
        self.server.release()
        return self.env.now - start

    def utilization(self):
        now = self.env.now
        if now <= 0:
            return 0.0
        busy = self._busy
        if self._held_since is not None:
            busy += now - self._held_since
        return busy / now


# Gaps include repeats and zero, so transfers arrive at equal instants and
# queue behind each other; sizes include zero.
_gaps = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1.0]),
                  st.floats(min_value=0.0, max_value=3.0))
_plans = st.lists(st.lists(st.tuples(_gaps, st.integers(0, 5000)),
                           min_size=1, max_size=6),
                  min_size=1, max_size=5)


def _drive(make_pipe, plans, probe):
    env = Environment()
    pipe = make_pipe(env)
    log = []

    def client(env, name, plan):
        for index, (gap, size) in enumerate(plan):
            yield env.timeout(gap)
            arrival = env.now
            duration = yield from pipe.transfer(size)
            log.append((name, index, arrival, env.now, duration))

    for name, plan in enumerate(plans):
        env.process(client(env, name, plan))
    env.run(until=probe)
    mid = pipe.utilization()
    env.run()
    return log, mid, pipe.utilization(), env.now


@settings(max_examples=150, deadline=None)
@given(_plans, st.sampled_from([(1000.0, 0.0), (1000.0, 0.5),
                                (3.0e9, 1.3e-7), (7.0, 0.01)]),
       st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)))
def test_pipe_matches_a_one_slot_resource_plus_timeout(plans, link, probe):
    """Same finish instants (bit for bit), completion order, durations
    and utilization as a one-slot FIFO server held for a timeout.

    The mid-run probe is 0 or at least 0.01 s: the pipe derives elapsed
    busy time as reserved minus still-ahead time, so at a probe a few
    ulps past an arrival the two agree only to the clock's precision.
    """
    bandwidth, latency = link
    log, mid, final, end = _drive(
        lambda env: BandwidthPipe(env, bandwidth, latency), plans, probe)
    ref_log, ref_mid, ref_final, ref_end = _drive(
        lambda env: _ServerPipe(env, bandwidth, latency), plans, probe)
    assert log == ref_log
    assert end == ref_end
    assert mid == pytest.approx(ref_mid, rel=1e-9, abs=1e-12)
    assert final == pytest.approx(ref_final, rel=1e-9, abs=1e-12)


def test_pipe_utilization_counts_only_elapsed_busy_time():
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth_bytes_per_s=100.0)

    def mover(env):
        yield from pipe.transfer(100)

    env.process(mover(env))
    env.process(mover(env))         # queued: busy from 1.0 to 2.0
    env.run(until=1.5)
    assert pipe.utilization() == pytest.approx(1.0)
    env.run(until=4.0)
    assert pipe.utilization() == pytest.approx(0.5)
