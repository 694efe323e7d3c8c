"""Unit tests for the trace recorder, random streams and the Process base class."""

import pytest

from repro.sim.process import Process
from repro.sim.randomness import SeedSequenceFactory, derive_seed, substream
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_record_and_count(self):
        trace = TraceRecorder()
        trace.record(1.0, "send", sender="a")
        trace.record(2.0, "send", sender="b")
        trace.record(2.0, "drop", reason="loss")
        assert trace.count("send") == 2
        assert trace.count() == 3
        assert len(trace) == 3

    def test_filter_by_category_and_predicate(self):
        trace = TraceRecorder()
        trace.record(1.0, "send", sender="a")
        trace.record(2.0, "send", sender="b")
        sends = trace.filter("send", predicate=lambda r: r["sender"] == "b")
        assert len(sends) == 1 and sends[0].time == 2.0

    def test_keep_categories_limits_storage_not_counts(self):
        trace = TraceRecorder(keep_categories={"drop"})
        trace.record(1.0, "send", sender="a")
        trace.record(1.0, "drop", reason="loss")
        assert trace.count("send") == 1
        assert all(r.category == "drop" for r in trace.records)

    def test_max_records_bound_drops_oldest(self):
        trace = TraceRecorder(max_records=2)
        for i in range(5):
            trace.record(float(i), "x", index=i)
        assert len(trace) == 2
        # Sliding window: the two *most recent* records survive.
        assert [rec["index"] for rec in trace.records] == [3, 4]
        # Counters stay exact past the storage bound.
        assert trace.count("x") == 5
        assert trace.counts() == {"x": 5}

    def test_max_records_counters_exact_per_category(self):
        trace = TraceRecorder(max_records=3)
        for i in range(4):
            trace.record(float(i), "send")
            trace.record(float(i), "drop")
        assert len(trace) == 3
        assert trace.count("send") == 4 and trace.count("drop") == 4
        assert trace.count() == 8

    def test_max_records_zero_stores_nothing(self):
        trace = TraceRecorder(max_records=0)
        trace.record(1.0, "x")
        assert len(trace) == 0 and trace.count("x") == 1

    def test_subscribers_see_dropped_records(self):
        trace = TraceRecorder(max_records=1)
        seen = []
        trace.subscribe("x", lambda rec: seen.append(rec.time))
        for i in range(3):
            trace.record(float(i), "x")
        assert seen == [0.0, 1.0, 2.0]

    def test_clear_preserves_bound(self):
        trace = TraceRecorder(max_records=2)
        for i in range(4):
            trace.record(float(i), "x")
        trace.clear()
        assert len(trace) == 0 and trace.count() == 0
        for i in range(4):
            trace.record(float(i), "x")
        assert len(trace) == 2

    def test_subscription_callbacks(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe("send", lambda rec: seen.append(rec.time))
        trace.record(3.0, "send")
        trace.record(3.0, "other")
        assert seen == [3.0]

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(1.0, "x")
        trace.clear()
        assert len(trace) == 0 and trace.count() == 0


class TestRandomStreams:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(1, "mobility") == derive_seed(1, "mobility")
        assert derive_seed(1, "mobility") != derive_seed(1, "channel")
        assert derive_seed(1, "mobility") != derive_seed(2, "mobility")

    def test_substreams_reproducible(self):
        a = substream(5, "x").integers(0, 10**6)
        b = substream(5, "x").integers(0, 10**6)
        assert a == b

    def test_factory(self):
        factory = SeedSequenceFactory(9)
        assert factory.master_seed == 9
        assert factory.seed_for("a") == SeedSequenceFactory(9).seed_for("a")
        expected = SeedSequenceFactory(9).stream("a").integers(0, 100)
        assert factory.stream("a").integers(0, 100) == expected


class _Recorder(Process):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.started = 0
        self.received = []

    def on_start(self):
        self.started += 1

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


class TestProcess:
    def test_start_requires_binding(self):
        proc = _Recorder("a")
        with pytest.raises(RuntimeError):
            proc.start()

    def test_start_is_idempotent(self, simulator):
        proc = _Recorder("a")
        proc.bind(simulator, network=None)
        proc.start()
        proc.start()
        assert proc.started == 1

    def test_inactive_process_ignores_messages(self, simulator):
        proc = _Recorder("a")
        proc.bind(simulator, network=None)
        proc.deactivate()
        proc.deliver("b", "hello")
        assert proc.received == []
        proc.activate()
        proc.deliver("b", "hello")
        assert proc.received == [("b", "hello")]

    def test_broadcast_without_network_raises(self, simulator):
        proc = _Recorder("a")
        proc.bind(simulator, network=None)
        with pytest.raises(RuntimeError):
            proc.broadcast(lambda: "x")

    def test_broadcast_while_inactive_is_noop(self, simulator):
        proc = _Recorder("a")
        proc.bind(simulator, network=None)
        proc.deactivate()
        assert proc.broadcast(lambda: "x") == 0
