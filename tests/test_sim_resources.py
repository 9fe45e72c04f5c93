"""Unit tests for simulation resources: Resource, Store, BandwidthPipe."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import BandwidthPipe, Resource, Store, TransferRecord


# --------------------------------------------------------------------------- #
# Resource                                                                     #
# --------------------------------------------------------------------------- #
def test_resource_serializes_when_capacity_one():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            log.append((env.now, name, "start"))
            yield env.timeout(hold)
        log.append((env.now, name, "end"))

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.run()
    assert log == [
        (0.0, "a", "start"),
        (2.0, "a", "end"),
        (2.0, "b", "start"),
        (3.0, "b", "end"),
    ]


def test_resource_capacity_two_allows_two_concurrent_users():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(env):
        with res.request() as req:
            yield req
            starts.append(env.now)
            yield env.timeout(1.0)

    for _ in range(3):
        env.process(user(env))
    env.run()
    assert starts == [0.0, 0.0, 1.0]


def test_resource_priority_orders_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    def waiter(env, name, priority, delay):
        yield env.timeout(delay)
        with res.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(0.1)

    env.process(holder(env))
    env.process(waiter(env, "low", 5, 0.1))
    env.process(waiter(env, "high", 0, 0.2))
    env.run()
    assert order == ["high", "low"]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_utilization_reflects_busy_fraction():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(3.0)
        yield env.timeout(1.0)

    env.process(user(env))
    env.run()
    assert res.utilization() == pytest.approx(0.75)


def test_release_unqueued_request_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    res.release(req)  # second release must not blow up
    assert len(res._users) == 0


class HeapOnlyResource(Resource):
    """Every request goes through the wait heap, even when uncontended."""

    def _submit(self, request):
        self._seq += 1
        heapq.heappush(self._queue, (request.priority, self._seq, request))
        self._grant_waiters()


def _mixed_priority_trace(resource_cls):
    """Grant/resume log and utilization of a mixed-contention workload.

    Capacity 2.  At t=0 two requests are granted uncontended and four
    more of mixed priority queue behind them; at t=1.0 three arrivals
    join the queue at the instant a holder releases.  At t=4.1 a request
    finds one slot free beside a holder, and at t=6.0 one finds the
    resource idle.
    """
    env = Environment()
    res = resource_cls(env, capacity=2)
    log = []

    def user(name, arrive, priority, hold):
        yield env.timeout(arrive)
        with res.request(priority=priority) as req:
            log.append((env.now, name, "asked", len(res._users),
                        len(res._queue)))
            yield req
            log.append((env.now, name, "granted"))
            yield env.timeout(hold)
        log.append((env.now, name, "released"))

    for name, arrive, priority, hold in [
            ("a", 0.0, 5, 1.0), ("b", 0.0, 1, 2.5),
            ("c", 0.0, 3, 0.5), ("d", 0.0, 0, 0.25),
            ("e", 0.0, 0, 1.5), ("f", 0.0, 7, 0.75),
            ("g", 1.0, 2, 0.5), ("h", 1.0, 0, 0.25), ("i", 1.0, 9, 1.0),
            ("k", 4.1, 6, 0.5), ("j", 6.0, 4, 1.0)]:
        env.process(user(name, arrive, priority, hold))
    env.run()
    return log, res.utilization(), env.now


def test_uncontended_fast_path_matches_heap_path():
    fast_log, fast_util, fast_end = _mixed_priority_trace(Resource)
    heap_log, heap_util, heap_end = _mixed_priority_trace(HeapOnlyResource)
    assert fast_log == heap_log
    assert fast_util == heap_util
    assert fast_end == heap_end
    grants = [name for _t, name, what, *_ in fast_log if what == "granted"]
    # Two uncontended grants, then priority order among the waiters
    # (FIFO among equal priorities), then the two uncontended late ones.
    assert grants == ["a", "b", "d", "e", "h", "g", "c", "f", "i", "k", "j"]
    assert (4.1, "k", "asked", 2, 0) in fast_log
    assert (4.1, "k", "granted") in fast_log
    assert (6.0, "j", "granted") in fast_log


# --------------------------------------------------------------------------- #
# Store                                                                        #
# --------------------------------------------------------------------------- #
def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_item_available():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        item = yield store.get()
        times.append((env.now, item))

    def producer(env):
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [(4.0, "late")]


def test_bounded_store_applies_backpressure():
    env = Environment()
    store = Store(env, capacity=1)
    put_times = []

    def producer(env):
        for i in range(2):
            yield store.put(i)
            put_times.append(env.now)

    def consumer(env):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert put_times[0] == 0.0
    assert put_times[1] == 5.0


def test_store_len_tracks_buffered_items():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put("x")
        yield store.put("y")

    env.process(producer(env))
    env.run()
    assert len(store) == 2


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
        record = yield from pipe.transfer(100)
        ends.append(record.end)

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
    record = proc.value
    assert record.num_bytes == 500
    assert record.start == 0.0
    assert record.end == pytest.approx(1.0)
    assert record.duration == pytest.approx(1.0)
    assert pipe.bytes_moved == 500


class _ResourcePipe:
    """Reference pipe: a one-slot :class:`Resource` held for a timeout."""

    def __init__(self, env, bandwidth, latency):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.resource = Resource(env, capacity=1)

    def transfer(self, num_bytes):
        start = self.env.now
        with self.resource.request() as req:
            yield req
            yield self.env.timeout(self.latency + num_bytes / self.bandwidth)
        return TransferRecord(start=start, end=self.env.now,
                              num_bytes=num_bytes)

    def utilization(self):
        return self.resource.utilization()


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
            record = yield from pipe.transfer(size)
            log.append((name, index, arrival, record.start, record.end,
                        record.duration))

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
    and utilization as the Resource-based pipe it replaced.

    The mid-run probe is 0 or at least 0.01 s: the pipe derives elapsed
    busy time as reserved minus still-ahead time, so at a probe a few
    ulps past an arrival the two agree only to the clock's precision.
    """
    bandwidth, latency = link
    log, mid, final, end = _drive(
        lambda env: BandwidthPipe(env, bandwidth, latency), plans, probe)
    ref_log, ref_mid, ref_final, ref_end = _drive(
        lambda env: _ResourcePipe(env, bandwidth, latency), plans, probe)
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
