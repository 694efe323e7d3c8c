"""Unit tests of the sharding building blocks.

The end-to-end bit-identity of the sharded executor lives in
``tests/test_replay_determinism.py`` (sharded section); this module covers
the pieces in isolation: tile cutting and ownership, the simulator's
window/clock primitives, the per-sender channel RNG, and the explicit
rejection of specs and worlds that cannot shard bit-identically.
"""

import pytest

from repro.net.channel import CollisionChannel
from repro.shard import (PerSenderChannel, ShardSpec, ShardUnsupportedError,
                         ShardWorld, TileMap, run_sharded)
from repro.shard.cli import main as shard_cli
from repro.shard.tiles import x_tile_cuts
from repro.sim.engine import SimulationError, Simulator


# -------------------------------------------------------------------- spec

def _refuse_build(spec):
    raise AssertionError("a bad spec must be refused before any build")


BAD_SPEC_VALUES = [("shards", 0), ("shards", -1), ("duration", 0.0),
                   ("duration", -1.0), ("duration", float("nan")),
                   ("duration", float("inf"))]


class TestSpecValidation:
    @pytest.mark.parametrize("field, value", BAD_SPEC_VALUES)
    def test_run_sharded_refuses_bad_spec_before_building(self, monkeypatch,
                                                          field, value):
        monkeypatch.setattr(ShardWorld, "build_base", staticmethod(_refuse_build))
        args = {"seed": 1, "duration": 1.0, "shards": 2, "params": {"n": 20}}
        args[field] = value
        with pytest.raises(ValueError, match=f"{field} must be"):
            run_sharded(ShardSpec.create("city_scale", **args))

    @pytest.mark.parametrize("flag, value", [("--shards", "0"),
                                             ("--duration", "0"),
                                             ("--duration", "-1"),
                                             ("--duration", "inf")])
    def test_cli_refuses_bad_spec_before_building(self, monkeypatch, capsys,
                                                  flag, value):
        monkeypatch.setattr(ShardWorld, "build_base", staticmethod(_refuse_build))
        code = shard_cli(["--scenario", "city_scale", "--set", "n=20",
                          flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag[2:]} must be" in captured.err

    @pytest.mark.parametrize("extra, message", [
        (["--traffic", "request_reply", "--traffic-set", "bogus=1"],
         "unknown parameter(s) ['bogus'] for traffic 'request_reply'"),
        (["--traffic", "request_reply", "--traffic-set", "interval=soon"],
         "parameter 'interval' expects kind 'float'"),
        (["--traffic", "request_reply", "--traffic-set", "interval"],
         "--traffic-set expects PARAM=VALUE"),
        (["--traffic-set", "interval=0.5"], "--traffic-set requires --traffic"),
        (["--traffic", "no_such_traffic"], "unknown traffic 'no_such_traffic'"),
        (["--traffic", "bursty_pubsub"], "traffic pattern 'bursty_pubsub'"),
        (["--set", "bogus=1"], "unknown parameter(s) ['bogus'] for scenario 'city_scale'"),
    ], ids=["unknown-traffic-param", "badly-typed-traffic-param",
            "traffic-set-without-value", "traffic-set-without-traffic",
            "unknown-traffic", "unshardable-traffic", "unknown-scenario-param"])
    def test_cli_refuses_bad_params_before_building(self, monkeypatch, capsys,
                                                    extra, message):
        # Every --set / --traffic-set value goes through its catalog's schema.
        monkeypatch.setattr(ShardWorld, "build_base", staticmethod(_refuse_build))
        code = shard_cli(["--scenario", "city_scale", "--set", "n=20", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


# ------------------------------------------------------------------- tiles

class TestXTileCuts:
    def test_balanced_partition_of_uniform_columns(self):
        xs = [float(i) for i in range(100)]
        cuts = x_tile_cuts(xs, cell_size=10.0, tiles=2)
        assert len(cuts) == 1
        # 10 occupied columns, balanced -> cut near the middle column.
        assert cuts == [4]

    def test_cuts_are_ascending_and_deterministic(self):
        xs = [float((i * 37) % 500) for i in range(300)]
        cuts = x_tile_cuts(xs, cell_size=25.0, tiles=4)
        assert cuts == sorted(cuts)
        assert len(set(cuts)) == len(cuts) == 3
        assert cuts == x_tile_cuts(list(xs), cell_size=25.0, tiles=4)

    def test_no_empty_tile_with_enough_columns(self):
        # Heavily clustered mass must not starve the trailing tiles: the
        # greedy cut reserves one column per remaining tile.
        xs = [0.0] * 97 + [100.0, 200.0, 300.0]
        cuts = x_tile_cuts(xs, cell_size=10.0, tiles=4)
        assert len(cuts) == 3
        assert cuts == sorted(set(cuts))

    def test_single_tile_has_no_cuts(self):
        assert x_tile_cuts([1.0, 2.0], cell_size=1.0, tiles=1) == []


class TestTileMap:
    def positions(self):
        return {i: (float(i * 7 % 400), 0.0) for i in range(120)}

    def test_assign_is_a_partition(self):
        tiles = TileMap.from_positions(self.positions(), cell_size=40.0, tiles=3)
        owners = tiles.assign(self.positions())
        assert set(owners) == set(self.positions())
        assert set(owners.values()) == {0, 1, 2}
        assert tiles.tile_of((80.0, 55.0)) == tiles.tile_of_x(80.0)


# --------------------------------------------------- engine window primitives

class TestWindowPrimitives:
    def test_advance_clock_moves_time_without_events(self):
        sim = Simulator(seed=1)
        sim.advance_clock(2.5)
        assert sim.now == 2.5
        assert sim.processed_events == 0

    def test_advance_clock_refuses_backwards(self):
        sim = Simulator(seed=1)
        sim.advance_clock(1.0)
        with pytest.raises(SimulationError):
            sim.advance_clock(0.5)

    def test_advance_clock_refuses_to_jump_pending_work(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.advance_clock(2.0)

    def test_run_window_exclusive_and_inclusive_bounds(self):
        sim = Simulator(seed=1)
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, fired.append, t)
        assert sim.run_window(2.0, inclusive=False) == 1
        assert fired == [1.0]
        assert sim.run_window(2.0, inclusive=True) == 1
        assert fired == [1.0, 2.0]

    def test_run_window_clock_trails_last_event(self):
        # The clock must NOT advance to the window end on a dry queue:
        # remote deliveries may still be applied inside the window.
        sim = Simulator(seed=1)
        sim.schedule_at(1.0, lambda: None)
        sim.run_window(5.0)
        assert sim.now == 1.0

    def test_run_window_executes_cascades_inside_window(self):
        sim = Simulator(seed=1)
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(0.0, chain, depth + 1)

        sim.schedule_at(1.0, chain, 0)
        assert sim.run_window(2.0) == 4
        assert fired == [0, 1, 2, 3]


# ------------------------------------------------------- per-sender channel

class TestPerSenderChannel:
    def test_decisions_invariant_to_other_senders(self):
        """Sender A's decision stream must not move when sender B's
        broadcasts interleave — the property that makes the stream
        invariant under any partitioning of the senders across shards."""
        receivers = list(range(20))
        lone = PerSenderChannel(0.4, 0.0, 0.0, master_seed=99)
        mixed = PerSenderChannel(0.4, 0.0, 0.0, master_seed=99)
        lone_batches = [lone.decide_batch("A", receivers, t) for t in (0.0, 1.0)]
        first = mixed.decide_batch("A", receivers, 0.0)
        mixed.decide_batch("B", receivers, 0.5)
        second = mixed.decide_batch("A", receivers, 1.0)
        for ours, theirs in zip(lone_batches, (first, second)):
            assert list(ours.delivered) == list(theirs.delivered)
            assert list(ours.delays) == list(theirs.delays)

    def test_same_master_seed_replays(self):
        a = PerSenderChannel(0.3, 0.05, 0.2, master_seed=7)
        b = PerSenderChannel(0.3, 0.05, 0.2, master_seed=7)
        da = a.decide("s", "r", 0.0)
        db = b.decide("s", "r", 0.0)
        assert (da.delivered, da.delay) == (db.delivered, db.delay)

    def test_counters_aggregate_over_senders(self):
        channel = PerSenderChannel(0.5, 0.0, 0.0, master_seed=3)
        for sender in ("A", "B"):
            channel.decide_batch(sender, list(range(50)), 0.0)
        assert channel.dropped + channel.delivered == 100
        assert channel.dropped > 0 and channel.delivered > 0

    def test_rng_states_restrict_to_requested_senders(self):
        channel = PerSenderChannel(0.5, 0.0, 0.0, master_seed=3)
        channel.decide("A", "r", 0.0)
        channel.decide("B", "r", 0.0)
        assert set(channel.rng_states()) == {"A", "B"}
        assert set(channel.rng_states(senders={"A"})) == {"A"}
        # Senders that never broadcast have no materialized stream.
        assert "C" not in channel.rng_states()

    def test_from_lossy_copies_parameters(self):
        from repro.net.channel import LossyChannel
        wrapped = PerSenderChannel.from_lossy(
            LossyChannel(0.25, 0.1, 0.3), master_seed=11)
        assert wrapped.loss_probability == 0.25
        assert wrapped.min_delay == 0.1
        assert wrapped.max_delay == 0.3


# --------------------------------------------------- unsupported-world guard

from repro.core.node import GRPConfig  # noqa: E402
from repro.core.protocol import build_grp_network  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio  # noqa: E402
from repro.scenarios.registry import ScenarioParameter, scenario  # noqa: E402


@scenario("shardtest_collision",
          "collision-channel world (sharding must refuse it)",
          [ScenarioParameter("n", "int", 6, "nodes"),
           ScenarioParameter("dmax", "int", 3, "diameter bound")])
def _collision_world(*, seed, config, n, dmax):
    positions = {i: (float(i * 30), 0.0) for i in range(n)}
    channel = CollisionChannel(collision_window=0.1)
    return build_grp_network(positions, config or GRPConfig(dmax=dmax),
                             radio_range=50.0, channel=channel, seed=seed)


@scenario("shardtest_subclassed_net",
          "network-subclass world (sharding must refuse it)",
          [ScenarioParameter("n", "int", 6, "nodes"),
           ScenarioParameter("dmax", "int", 3, "diameter bound")])
def _subclassed_world(*, seed, config, n, dmax):
    positions = {i: (float(i * 30), 0.0) for i in range(n)}
    deployment = build_grp_network(positions, config or GRPConfig(dmax=dmax),
                                   radio_range=50.0, seed=seed)

    class _OddNetwork(Network):
        pass

    deployment.network.__class__ = _OddNetwork
    return deployment


@scenario("shardtest_asymmetric",
          "per-node-range radio world (sharding must refuse it)",
          [ScenarioParameter("n", "int", 6, "nodes"),
           ScenarioParameter("dmax", "int", 3, "diameter bound")])
def _asymmetric_world(*, seed, config, n, dmax):
    positions = {i: (float(i * 30), 0.0) for i in range(n)}
    radio = AsymmetricRangeRadio(50.0, ranges={0: 90.0})
    return build_grp_network(positions, config or GRPConfig(dmax=dmax),
                             radio=radio, seed=seed)


@scenario("shardtest_probabilistic",
          "stochastic-vicinity radio world (sharding must refuse it)",
          [ScenarioParameter("n", "int", 6, "nodes"),
           ScenarioParameter("dmax", "int", 3, "diameter bound")])
def _probabilistic_world(*, seed, config, n, dmax):
    positions = {i: (float(i * 30), 0.0) for i in range(n)}
    radio = ProbabilisticDiskRadio(40.0, 60.0, band_probability=0.5)
    return build_grp_network(positions, config or GRPConfig(dmax=dmax),
                             radio=radio, seed=seed)


def built_world(spec, shard_id=0):
    """The replicated-build reference: finalize a fresh ``build_base``.

    No snapshot round trip is involved, so a restored world must equal it.
    """
    return ShardWorld(spec, shard_id, *ShardWorld.build_base(spec))


class TestUnsupportedWorlds:
    def test_collision_channel_rejected(self):
        spec = ShardSpec.create("shardtest_collision", seed=1, duration=1.0, shards=2)
        with pytest.raises(ShardUnsupportedError, match="[Cc]ollision"):
            built_world(spec)

    def test_network_subclass_rejected(self):
        spec = ShardSpec.create("shardtest_subclassed_net", seed=1, duration=1.0,
                                shards=2)
        with pytest.raises(ShardUnsupportedError):
            built_world(spec)

    @pytest.mark.parametrize("world", ["shardtest_asymmetric", "shardtest_probabilistic"])
    def test_radio_without_csr_link_state_rejected(self, world):
        # Sharded delivery runs on the CSR link state only: per-node ranges
        # (no uniform link radius) or a stochastic vicinity cannot shard.
        spec = ShardSpec.create(world, seed=1, duration=1.0, shards=2)
        with pytest.raises(ShardUnsupportedError, match="uniform link radius"):
            built_world(spec)

    def test_bursty_pubsub_traffic_rejected(self):
        # Refused when the spec is made, before any world is built.
        with pytest.raises(ShardUnsupportedError, match="bursty_pubsub"):
            ShardSpec.create(
                "static_random", params={"n": 10}, seed=1, duration=1.0, shards=2,
                traffic="bursty_pubsub")

    def test_supported_world_constructs(self):
        spec = ShardSpec.create("static_random", params={"n": 10}, seed=1,
                                duration=1.0, shards=2)
        world = built_world(spec)
        assert world.lookahead == 0.0
        assert 0 < len(world.owned) < 10


# ----------------------------------------------------- snapshot-restore build

def _mirror_ids(world):
    return [nid for nid, tile in world.owners.items() if tile != world.shard_id]


def _timers_running(process):
    timers = (process._tc_timer, process._ts_timer)
    return any(t is not None and t.running for t in timers)


class TestSnapshotRestore:
    def spec(self, churn=(), shards=2):
        return ShardSpec.create(
            "manet_waypoint", seed=7, duration=2.0, shards=shards,
            params={"n": 60, "area": 600.0, "radio_range": 120.0, "dmax": 3,
                    "speed": 5.0, "loss_probability": 0.1},
            churn=churn)

    def test_restored_world_equals_built_world(self):
        spec = self.spec()
        blob = ShardWorld.snapshot_base(spec)
        restored = ShardWorld.from_snapshot(spec, 0, blob)
        built = built_world(spec)
        assert restored.owned == built.owned
        assert restored.owners == built.owners
        assert restored.lookahead == built.lookahead
        assert restored.peek() == built.peek()
        assert (repr(restored.sim.rng.bit_generator.state)
                == repr(built.sim.rng.bit_generator.state))

    def test_restored_run_equals_built_run(self):
        # One shard runs the whole horizon in one window: everything the
        # shard reports at the end must survive the snapshot round trip.
        spec = self.spec(churn=((0.5, 3, False), (1.2, 3, True)), shards=1)
        worlds = [ShardWorld.from_snapshot(spec, 0, ShardWorld.snapshot_base(spec)),
                  built_world(spec)]
        for world in worlds:
            assert world.run_round(spec.duration, inclusive=True) == []
        restored, built = (world.finish(spec.duration) for world in worlds)
        assert restored["processed_events"] > 0
        assert restored == built

    def test_one_blob_serves_every_shard(self):
        spec = self.spec()
        blob = ShardWorld.snapshot_base(spec)
        worlds = [ShardWorld.from_snapshot(spec, shard, blob)
                  for shard in range(spec.shards)]
        owned = sorted(nid for world in worlds for nid in world.owned)
        assert owned == sorted(worlds[0].owners)

    def test_restored_mirror_timers_quiesced(self):
        # A restored world starts only its owned nodes: its mirrors must
        # sleep while its owned nodes keep their timers.
        spec = self.spec()
        blob = ShardWorld.snapshot_base(spec)
        world = ShardWorld.from_snapshot(spec, 0, blob)
        owned = set(world.owned)
        for nid in _mirror_ids(world):
            assert not _timers_running(world.network.processes[nid]), (
                f"mirror {nid} has running timers after restore")
        assert any(_timers_running(world.network.processes[nid]) for nid in owned)

    def test_restored_mirror_requiesced_after_churn_reactivation(self):
        # Reactivation restarts timers through on_activate; a mirror has
        # none to restart and must stay asleep, while an owned node switched
        # off and on again keeps its timers.
        probe = built_world(self.spec())
        victim, keeper = _mirror_ids(probe)[0], probe.owned[0]
        spec = self.spec(churn=[(0.5, victim, False), (1.0, victim, True),
                                (0.5, keeper, False), (1.0, keeper, True)])
        world = ShardWorld.from_snapshot(spec, 0, ShardWorld.snapshot_base(spec))
        world.run_round(1.5, inclusive=True)
        assert world.churn.applied == 4
        network = world.network
        assert network.processes[victim].active
        assert not _timers_running(network.processes[victim])
        assert _timers_running(network.processes[keeper])

    def world(self, make, spec):
        if make == "built":
            return built_world(spec)
        return ShardWorld.from_snapshot(spec, 0, ShardWorld.snapshot_base(spec))

    @pytest.mark.parametrize("make", ["built", "restored"])
    def test_mirrors_are_never_started(self, make):
        world = self.world(make, self.spec())
        mirrors = _mirror_ids(world)
        assert mirrors and world.owned
        for nid in mirrors:
            process = world.network.process(nid)
            assert process._tc_timer is None and process._ts_timer is None, (
                f"mirror {nid} was given timers")

    @pytest.mark.parametrize("make", ["built", "restored"])
    def test_start_queues_only_owned_timers_and_the_mobility_tick(self, make):
        # Two timers per owned node plus one mobility tick, and nothing
        # scheduled then cancelled: the heap holds no dead mirror entries.
        world = self.world(make, self.spec())
        assert world.network.mobility is not None
        expected = 2 * len(world.owned) + 1
        assert world.sim.pending_events == expected
        assert len(world.sim._queue) == expected

    @pytest.mark.parametrize("make", ["built", "restored"])
    def test_partitioned_start_draws_as_the_unpartitioned_start(self, make):
        # Every mirror still takes its stream, so the root generator and
        # each owned node's timer draws match a start with no partition.
        spec = self.spec()
        world = self.world(make, spec)
        reference, _ = ShardWorld.build_base(spec)
        reference.start()
        assert (repr(world.sim.rng.bit_generator.state)
                == repr(reference.sim.rng.bit_generator.state))
        for nid in world.owned:
            ours = world.network.process(nid)
            theirs = reference.network.process(nid)
            assert ours._tc_timer.time == theirs._tc_timer.time
            assert ours._ts_timer.time == theirs._ts_timer.time

    @pytest.mark.parametrize("make", ["built", "restored"])
    def test_mirror_switched_off_and_on_gets_no_timer(self, make):
        victim = _mirror_ids(built_world(self.spec()))[0]
        spec = self.spec(churn=[(0.5, victim, False), (1.0, victim, True)])
        world = self.world(make, spec)
        world.run_round(1.5, inclusive=True)
        process = world.network.process(victim)
        assert world.churn.applied == 2 and process.active
        assert process._tc_timer is None and process._ts_timer is None

    def test_partitioned_network_refuses_the_scan_fallback(self):
        # Sharded delivery runs on the CSR link state only: once the radio
        # stops reporting a uniform link radius, the next broadcast raises
        # instead of quietly taking the scan loop.
        spec = self.spec()
        world = ShardWorld.from_snapshot(spec, 0, ShardWorld.snapshot_base(spec))
        network = world.network
        network.radio.uniform_link_radius = lambda: None
        with pytest.raises(RuntimeError, match="CSR link state"):
            network.broadcast(world.owned[0], lambda: "ping")

    def test_unpicklable_world_raises_unsupported(self):
        spec = ShardSpec.create("shardtest_unpicklable", seed=1, duration=1.0,
                                shards=2)
        with pytest.raises(ShardUnsupportedError, match="snapshot"):
            ShardWorld.snapshot_base(spec)


@scenario("shardtest_unpicklable",
          "world holding an unpicklable object (snapshot must refuse it)",
          [ScenarioParameter("n", "int", 6, "nodes"),
           ScenarioParameter("dmax", "int", 3, "diameter bound")])
def _unpicklable_world(*, seed, config, n, dmax):
    positions = {i: (float(i * 30), 0.0) for i in range(n)}
    deployment = build_grp_network(positions, config or GRPConfig(dmax=dmax),
                                   radio_range=50.0, seed=seed)
    deployment.network._stowaway = lambda: None  # lambdas don't pickle
    return deployment
