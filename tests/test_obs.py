"""Unit + contract tests of the observability layer (:mod:`repro.obs`).

Three layers of guarantee:

- **Instrument semantics** — counters, gauges, fixed-bucket histograms and
  span aggregates behave exactly as documented (kind pinning, sorted export,
  bounded record windows with exact aggregates).
- **Zero-cost-when-disabled contract** — components built while observability
  is off capture ``None`` once and never touch a registry or clock again;
  pinned with a sentinel context whose every instrument access raises.
- **Pipeline integration** — enabling observability around a run collects
  the expected counters/spans without changing simulation results, the
  campaign executor persists export blobs through the JSONL store, the spec
  hash only changes when ``obs`` is actually on, and the CLI writes parseable
  ``repro-obs/v1`` exports.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.net.channel import LossyChannel
from repro.net.geometry import random_positions
from repro.net.network import Network
from repro.net.radio import UnitDiskRadio
from repro.obs import (DEFAULT_WALL_NS_BUCKETS, Histogram, MetricsRegistry,
                       ObsContext, SpanStats, current, disable, enable,
                       merge_export_blobs, observing, profile_summary,
                       profiling, write_blob_jsonl)
from repro.obs.context import DEFAULT_MAX_SPAN_RECORDS
from repro.obs.events import DEFAULT_MAX_EVENT_RECORDS
from repro.scenarios import ScenarioSpec, build
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.randomness import SeedSequenceFactory
from repro.sim.trace import TraceRecorder

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class NullProcess(Process):
    def on_message(self, sender, payload):
        pass


def build_network(n=30, seed=7, loss=0.1):
    seeds = SeedSequenceFactory(seed)
    positions = random_positions(range(n), area=(300.0, 300.0),
                                 rng=seeds.stream("placement"))
    sim = Simulator(seed=seed)
    # Non-zero delays so deliveries go through the event queue (zero-delay
    # channels deliver inline and the drained sim would pop no events).
    network = Network(sim, radio=UnitDiskRadio(100.0),
                      channel=LossyChannel(loss_probability=loss,
                                           min_delay=0.01, max_delay=0.03,
                                           rng=seeds.stream("channel")))
    for node, pos in positions.items():
        network.add_node(NullProcess(node), pos)
    return sim, network


def run_broadcast_rounds(sim, network, rounds=3):
    for _ in range(rounds):
        for node in network.node_ids:
            network.broadcast(node, lambda: "x")
        sim.run()


# ------------------------------------------------------------ instruments


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc()
        counter.inc(4)
        registry.gauge("b").set(2.5)
        assert registry.counter("a") is counter  # get-or-create
        assert registry.as_dict()["counters"] == {"a": 5}
        assert registry.as_dict()["gauges"] == {"b": 2.5}

    def test_kind_pinning(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_names_sorted(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.counter(name)
        assert registry.names() == ["alpha", "mid", "zeta"]

    def test_histogram_buckets(self):
        histogram = Histogram(bounds=(10.0, 100.0))
        for value in (1, 10, 11, 100, 1000):
            histogram.observe(value)
        data = histogram.as_dict()
        # Upper-inclusive buckets plus one overflow cell.
        assert data["counts"] == [2, 2, 1]
        assert data["count"] == 5
        assert data["sum"] == 1122


class TestSpans:
    def test_aggregates_exact_window_bounded(self):
        stats = SpanStats("s", max_records=4)
        for i in range(10):
            stats.observe(sim_time=float(i), seq=i, wall_ns=(i + 1) * 100,
                          counts={"items": i})
        data = stats.as_dict(include_records=True)
        assert data["count"] == 10
        assert data["wall_ns_total"] == sum((i + 1) * 100 for i in range(10))
        assert data["wall_ns_min"] == 100
        assert data["wall_ns_max"] == 1000
        assert data["payload_totals"] == {"items": sum(range(10))}
        # Window keeps the newest 4; the aggregate stays over all 10.
        assert data["dropped_records"] == 6
        assert [rec["seq"] for rec in data["records"]] == [6, 7, 8, 9]

    def test_percentiles_nearest_rank_over_window(self):
        stats = SpanStats("s", max_records=100)
        for i in range(100):
            stats.observe(0.0, i, i + 1, None)
        assert stats.percentile_ns(0.50) == 50
        assert stats.percentile_ns(0.95) == 95
        assert stats.percentile_ns(1.0) == 100

    def test_context_records_spans_with_monotonic_seq(self):
        ctx = ObsContext()
        ctx.record_span("region", 1.5, ctx.clock(), {"items": 3})
        ctx.record_span("region", 2.0, ctx.clock(), {"items": 1})
        stats = ctx.span_stats("region")
        assert stats.count == 2
        data = stats.as_dict(include_records=True)
        assert [rec["seq"] for rec in data["records"]] == [0, 1]
        assert [rec["sim_time"] for rec in data["records"]] == [1.5, 2.0]
        assert data["payload_totals"] == {"items": 4}


# --------------------------------------------------------- runtime switch


class TestRuntime:
    def test_disabled_by_default(self):
        assert current() is None

    def test_observing_installs_and_restores(self):
        outer = ObsContext()
        with observing(outer):
            assert current() is outer
            inner = ObsContext()
            with observing(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_enable_disable(self):
        ctx = enable()
        try:
            assert current() is ctx
        finally:
            disable()
        assert current() is None

    def test_restored_even_on_error(self):
        with pytest.raises(RuntimeError):
            with observing():
                raise RuntimeError("boom")
        assert current() is None


# --------------------------------------------- zero-cost-when-disabled


class _ExplodingRegistry(MetricsRegistry):
    """Registry that fails the test on any instrument access."""

    def counter(self, name):
        raise AssertionError(f"disabled-path touched counter {name!r}")

    def gauge(self, name):
        raise AssertionError(f"disabled-path touched gauge {name!r}")

    def histogram(self, name, bounds=DEFAULT_WALL_NS_BUCKETS):
        raise AssertionError(f"disabled-path touched histogram {name!r}")


class _SentinelContext(ObsContext):
    """Context that fails the test on any observation."""

    def __init__(self):
        super().__init__()
        self.registry = _ExplodingRegistry()

    def record_span(self, name, sim_time, t0_ns, counts=None):
        raise AssertionError(f"disabled-path recorded span {name!r}")


class TestDisabledPathContract:
    def test_components_built_while_disabled_never_observe(self):
        """The whole overhead contract in one test: components capture the
        current context once, at construction.  Built while observability is
        off, their hot paths must never touch a context again — even one
        installed *afterwards*.  The sentinel raises on any touch."""
        assert current() is None
        sim, network = build_network()
        with observing(_SentinelContext()):
            run_broadcast_rounds(sim, network)
        assert network.messages_delivered > 0

    def test_disabled_components_cache_none(self):
        sim, network = build_network()
        assert sim._obs is None
        assert network._obs is None

    def test_enabled_components_observe(self):
        with observing() as ctx:
            sim, network = build_network()
            run_broadcast_rounds(sim, network)
        counters = ctx.registry.as_dict()["counters"]
        assert counters["net.broadcasts"] == 3 * len(network.node_ids)
        assert counters["net.delivered"] == network.messages_delivered
        assert counters["net.dropped"] == network.messages_dropped
        assert counters["sim.events"] == sim.processed_events
        assert ctx.span_stats("sim.event_pop").count == sim.processed_events
        assert ctx.span_stats("topology.csr_rebuild") is not None

    def test_enabling_changes_no_delivered_byte(self):
        """Replay contract at unit scale (the 500-node version lives in
        tests/test_replay_determinism.py): identical counters and identical
        post-run channel RNG state with observability on and off."""
        def fingerprint():
            sim, network = build_network()
            run_broadcast_rounds(sim, network)
            return (network.messages_sent, network.messages_delivered,
                    network.messages_dropped, sim.processed_events,
                    repr(network.channel._rng.bit_generator.state))

        baseline = fingerprint()
        with observing():
            observed = fingerprint()
        assert observed == baseline


# ------------------------------------------------------------------ export


class TestExport:
    def test_export_and_jsonl_roundtrip(self, tmp_path):
        with observing() as ctx:
            sim, network = build_network(n=10)
            run_broadcast_rounds(sim, network, rounds=1)
        blob = ctx.export()
        assert set(blob) >= {"counters", "gauges", "histograms", "spans"}
        assert blob["spans"]["sim.event_pop"]["count"] > 0
        assert json.loads(json.dumps(blob)) == blob  # JSON-serializable

        path = tmp_path / "metrics.jsonl"
        write_blob_jsonl(str(path), ctx.export(include_records=True),
                         meta={"run": "unit"})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["schema"] == "repro-obs/v1"
        assert lines[0]["run"] == "unit"
        by_type = {}
        for line in lines[1:]:
            by_type.setdefault(line["type"], []).append(line)
        exported = {line["name"]: line["value"] for line in by_type["counter"]}
        assert exported == blob["counters"]
        span_names = {line["name"] for line in by_type["span"]}
        assert "sim.event_pop" in span_names

    def test_single_run_event_lines_are_deterministic(self, tmp_path):
        """Two observed runs of one seeded deployment, each written the way
        the single-run CLI writes it, give byte-identical event lines: an
        event carries no wall-clock reading."""
        def event_lines(name):
            with observing() as ctx:
                build(ScenarioSpec.create("static_random", n=12),
                      seed=5).run(5.0)
            path = tmp_path / name
            write_blob_jsonl(str(path), ctx.export(include_records=True))
            return [line for line in path.read_text().splitlines()
                    if json.loads(line)["type"] == "event"]

        first = event_lines("a.jsonl")
        assert first
        assert all("wall_ns" not in json.loads(line) for line in first)
        assert event_lines("b.jsonl") == first

    def test_heap_tracking_opt_in(self):
        with observing(ObsContext(track_heap=True)) as ctx:
            list(range(50_000))
        assert ctx.heap_peak_bytes is not None
        assert ctx.heap_peak_bytes > 0
        assert ctx.export()["heap_peak_bytes"] == ctx.heap_peak_bytes

    def test_heap_tracking_off_by_default(self):
        with observing() as ctx:
            pass
        assert ctx.heap_peak_bytes is None
        assert "heap_peak_bytes" not in ctx.export()


# ------------------------------------------------------------- profiling


class TestProfiling:
    def test_none_path_is_noop(self):
        with profiling(None) as prof:
            assert prof is None

    def test_dumps_stats(self, tmp_path):
        path = tmp_path / "run.prof"
        with profiling(str(path)):
            sum(range(1000))
        assert path.exists()
        summary = profile_summary(str(path), top=5)
        assert "cumulative" in summary or "function" in summary


# ----------------------------------------------------- campaign integration


class TestCampaignObs:
    def test_spec_hash_unchanged_when_obs_off(self):
        spec = CampaignSpec(name="c", experiments=("E6",), replicates=1)
        assert "obs" not in spec.as_dict()
        assert "obs_heap" not in spec.as_dict()
        flagged = CampaignSpec(name="c", experiments=("E6",), replicates=1,
                               obs=True)
        assert spec.spec_hash() != flagged.spec_hash()
        assert flagged.as_dict()["obs"] is True

    def test_campaign_persists_obs_blobs(self, tmp_path):
        spec = CampaignSpec(name="obs-roundtrip", experiments=("E6",),
                            replicates=2, root_seed=11, obs=True)
        store = ResultStore(str(tmp_path / "store.jsonl"))
        result = run_campaign(spec, store=store)
        assert result.executed == 2
        for outcome in result.outcomes:
            assert outcome.obs is not None
            assert outcome.obs["counters"]["sim.events"] > 0
        # Blobs survive the JSONL roundtrip and resume with them intact.
        records = store.completed(spec.spec_hash())
        assert len(records) == 2
        for record in records.values():
            assert record.obs["counters"]["sim.events"] > 0
        resumed = run_campaign(spec, store=store)
        assert resumed.executed == 0
        assert [o.obs for o in resumed.outcomes] == [o.obs for o in result.outcomes]

    def test_obs_does_not_change_campaign_rows(self):
        base = dict(name="obs-equal", experiments=("E6",), replicates=1,
                    root_seed=3)
        plain = run_campaign(CampaignSpec(**base))
        observed = run_campaign(CampaignSpec(**base, obs=True))
        assert [o.rows for o in plain.outcomes] == [o.rows for o in observed.outcomes]
        assert plain.outcomes[0].obs is None
        assert observed.outcomes[0].obs is not None


# ------------------------------------------------------------ CLI export


class TestCliObs:
    def _run_cli(self, args, cwd):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)

    def test_single_run_obs_out(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        proc = self._run_cli(["E6", "--obs-out", str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["schema"] == "repro-obs/v1"
        counters = {line["name"]: line["value"] for line in lines
                    if line["type"] == "counter"}
        assert counters.get("sim.events", 0) > 0
        assert "obs:" in proc.stderr

    def test_campaign_obs_out(self, tmp_path):
        out = tmp_path / "campaign-metrics.jsonl"
        proc = self._run_cli(["E6", "--seeds", "2", "--obs-out", str(out),
                              "--store", str(tmp_path / "store.jsonl")],
                             cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["schema"] == "repro-obs/v1"
        tasks = [line for line in lines if line["type"] == "task"]
        assert len(tasks) == 2
        for task in tasks:
            assert task["obs"]["counters"]["sim.events"] > 0


# -------------------------------------------------------- trace recorder


class TestTraceRecorderBounds:
    def test_max_records_zero_stores_nothing_counts_everything(self):
        recorder = TraceRecorder(max_records=0)
        for i in range(5):
            recorder.record(float(i), "send", payload=i)
        assert len(recorder) == 0
        assert recorder.records == []
        assert recorder.count("send") == 5

    def test_max_records_zero_still_feeds_subscribers(self):
        recorder = TraceRecorder(max_records=0)
        seen = []
        recorder.subscribe("send", seen.append)
        recorder.record(1.0, "send", payload="x")
        recorder.record(2.0, "other")
        assert len(seen) == 1
        assert seen[0]["payload"] == "x"
        assert len(recorder) == 0

    def test_to_jsonl(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(1.0, "send", payload="a")
        recorder.record(2.0, "recv", payload=object())  # falls back to str()
        path = tmp_path / "trace.jsonl"
        assert recorder.to_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"time": 1.0, "category": "send", "payload": "a"}
        assert lines[1]["category"] == "recv"


# ------------------------------------------------------------------ merging


def _span_blob(name, observations, max_records=DEFAULT_MAX_SPAN_RECORDS):
    """An export blob holding one span fed ``(sim_time, seq, wall_ns)``."""
    stats = SpanStats(name, max_records)
    for sim_time, seq, wall_ns in observations:
        stats.observe(sim_time, seq, wall_ns, None)
    return {"spans": {name: stats.as_dict(include_records=True)}}


class TestMerge:
    """``merge_export_blobs``: the one fold of shard and task exports."""

    def test_registry_merge_disjoint_names(self):
        a, b = ObsContext(), ObsContext()
        a.registry.counter("left").inc(3)
        b.registry.counter("right").inc(4)
        b.registry.gauge("depth").set(7)
        merged = merge_export_blobs([a.export(), b.export()])
        assert merged["counters"] == {"left": 3, "right": 4}
        assert merged["gauges"] == {"depth": 7}

    def test_registry_merge_overlapping_names(self):
        a, b = ObsContext(), ObsContext()
        a.registry.counter("hits").inc(3)
        b.registry.counter("hits").inc(4)
        a.registry.gauge("depth").set(1)
        b.registry.gauge("depth").set(9)
        a.registry.histogram("lat", (10, 100)).observe(5)
        b.registry.histogram("lat", (10, 100)).observe(50)
        merged = merge_export_blobs([a.export(), b.export()])
        assert merged["counters"] == {"hits": 7}
        assert merged["gauges"] == {"depth": 9}  # last write wins
        assert merged["histograms"]["lat"] == {
            "bounds": [10.0, 100.0], "counts": [1, 1, 0], "sum": 55.0,
            "count": 2}

    def test_registry_merge_kind_conflict_raises(self):
        a, b = ObsContext(), ObsContext()
        a.registry.counter("x").inc()
        b.registry.gauge("x").set(1)
        with pytest.raises(TypeError):
            merge_export_blobs([a.export(), b.export()])

    def test_histogram_merge_bounds_mismatch_raises(self):
        a, b = ObsContext(), ObsContext()
        a.registry.histogram("lat", (10, 100)).observe(5)
        b.registry.histogram("lat", (10, 1000)).observe(5)
        with pytest.raises(ValueError):
            merge_export_blobs([a.export(), b.export()])

    def test_span_stats_merge_interleaves_by_sim_time(self):
        merged = merge_export_blobs([
            _span_blob("window", [(1.0, 0, 100), (3.0, 2, 300)]),
            _span_blob("window", [(2.0, 1, 200)])])["spans"]["window"]
        assert merged["count"] == 3
        assert merged["wall_ns_total"] == 600
        assert [record["sim_time"] for record in merged["records"]] == \
            [1.0, 2.0, 3.0]
        assert (merged["wall_ns_p50"], merged["wall_ns_p95"]) == (200, 300)

    def test_merge_combines_event_streams(self):
        left, right = ObsContext(), ObsContext()
        left.record_event("group.formed", sim_time=1.0, size=3)
        right.record_event("group.formed", sim_time=0.5, size=2)
        right.record_event("group.split", sim_time=2.0, prev_size=4)
        exported = merge_export_blobs([left.export(), right.export()])["events"]
        assert exported["count"] == 3
        assert exported["kinds"] == {"group.formed": 2, "group.split": 1}
        times = [record["sim_time"] for record in exported["records"]]
        assert times == [0.5, 1.0, 2.0]
        assert all("wall_ns" not in record for record in exported["records"])

    def test_merge_export_blobs_hand_computed(self):
        ctxs = []
        for base in (1, 10):
            ctx = ObsContext()
            ctx.registry.counter("sim.events").inc(base)
            ctx.record_event("group.formed", sim_time=float(base), size=base)
            ctxs.append(ctx)
        blobs = [ctx.export() for ctx in ctxs]
        blobs[0].update(_span_blob("shard.window", [(1.0, 1, 500)]))
        blobs[1].update(_span_blob("shard.window", [(10.0, 1, 80)]))
        blobs[1]["heap_peak_bytes"] = 4096
        merged = merge_export_blobs(blobs)
        assert merged["counters"] == {"sim.events": 11}
        assert merged["events"] == {
            "count": 2, "kinds": {"group.formed": 2}, "dropped_records": 0,
            "records": [
                {"kind": "group.formed", "sim_time": 1.0, "seq": 0,
                 "payload": {"size": 1}},
                {"kind": "group.formed", "sim_time": 10.0, "seq": 0,
                 "payload": {"size": 10}}]}
        window = merged["spans"]["shard.window"]
        assert (window["count"], window["wall_ns_total"]) == (2, 580)
        assert (window["wall_ns_min"], window["wall_ns_max"]) == (80, 500)
        assert (window["wall_ns_p50"], window["wall_ns_p95"]) == (80, 500)
        assert window["histogram"]["counts"] == [2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert merged["heap_peak_bytes"] == 4096

    def test_merge_without_span_records_reads_no_percentiles(self):
        """Aggregate-only blobs (campaign tasks) fold exactly but carry no
        window to rank, so the merged p50/p95 read ``None``."""
        blobs = [_span_blob("s", [(0.0, 0, 100)]) for _ in range(2)]
        for blob in blobs:
            del blob["spans"]["s"]["records"]
        merged = merge_export_blobs(blobs)["spans"]["s"]
        assert merged["count"] == 2
        assert (merged["wall_ns_p50"], merged["wall_ns_p95"]) == (None, None)

    def test_merged_event_window_keeps_the_live_bound(self):
        """Three exports of 5,000 events each fold to the newest 4,096
        records; the other 10,904 are counted as dropped."""
        blobs = []
        for offset in range(3):
            ctx = ObsContext()
            for j in range(5000):
                ctx.record_event("group.formed", sim_time=float(3 * j + offset))
            blobs.append(ctx.export())
        events = merge_export_blobs(blobs)["events"]
        assert events["count"] == 15000
        assert len(events["records"]) == DEFAULT_MAX_EVENT_RECORDS == 4096
        assert events["dropped_records"] == 10904
        assert [r["sim_time"] for r in events["records"]] == \
            [float(t) for t in range(15000 - 4096, 15000)]

    def test_merged_span_window_keeps_the_live_bound(self):
        """Span windows follow the event rule: three windows of 1,500
        observations fold to the newest 1,024, and p50/p95 rank only those."""
        blobs = [_span_blob("s", [(float(3 * j + offset), j, 3 * j + offset)
                                  for j in range(1500)])
                 for offset in range(3)]
        span = merge_export_blobs(blobs)["spans"]["s"]
        kept = list(range(4500 - DEFAULT_MAX_SPAN_RECORDS, 4500))
        assert span["count"] == 4500
        assert [r["wall_ns"] for r in span["records"]] == kept
        assert span["dropped_records"] == 4500 - DEFAULT_MAX_SPAN_RECORDS
        assert span["wall_ns_p50"] == kept[511]
        assert span["wall_ns_p95"] == kept[972]

    def test_event_stream_bounded_with_exact_kind_counts(self):
        from repro.obs import EventStream

        stream = EventStream(max_records=4)
        for i in range(10):
            stream.record("group.formed", sim_time=float(i), seq=i,
                          payload=None)
        assert stream.count == 10
        assert stream.kind_counts == {"group.formed": 10}
        assert len(stream.records) == 4
        assert stream.dropped == 6
        assert [event.sim_time for event in stream.ordered_records()] == \
            [6.0, 7.0, 8.0, 9.0]
