"""Deterministic replay at scale, across the two neighbour engines.

The network computes the vicinity relation one of two ways, chosen by the
radio: the production CSR link state (batched receiver lists + batched
channel decisions + bulk scheduling) and the brute-force scan (the
test-only reference of ``tests/reference_backends.py``).  These are pure
query/dispatch choices: a seeded run must unfold *identically* on both.
These tests run a 500-node mobile lossy GRP deployment once per engine and
require bit-identical event counts, message counters, group assignments,
topology edges, metric reports and post-run RNG states across them (plus a
same-seed rerun and an observed run).

The traffic-laden variant layers an application workload
(:mod:`repro.traffic`) on top of a smaller deployment: application sends,
replies and relays interleave with protocol messages on the same event queue
and the same channel RNG stream, so any engine divergence — in either the
protocol or the traffic subsystem — shows up as a ledger or counter mismatch.
"""

import functools

import pytest

from repro.metrics.overhead import overhead_summary
from repro.mobility.churn import ChurnEvent, ChurnSchedule
from repro.obs import ObsContext, observing
from repro.scenarios import ScenarioSpec, build
from repro.traffic import TrafficSpec, attach_traffic

from reference_backends import BRUTE_FORCE, PRODUCTION, use_backend

N = 500
DURATION = 3.0
SEED = 2024

#: Matrix cell -> neighbour engine.  "indexed+vectorized" is the production
#: CSR link state with batched delivery, "brute+scalar" the brute-force
#: per-receiver scan.
BACKENDS = {
    "indexed+vectorized": PRODUCTION,
    "brute+scalar": BRUTE_FORCE,
}


def manet(n, area, backend):
    """The replay world: a mobile lossy random-waypoint field on ``backend``."""
    deployment = build(ScenarioSpec.create(
        "manet_waypoint", n=n, area=area, radio_range=100.0, dmax=3, speed=10.0,
        loss_probability=0.05), seed=SEED)
    use_backend(deployment.network, backend)
    return deployment


def rng_fingerprint(deployment):
    """Serialized post-run RNG states: the root sim stream and (when the
    channel draws randomness) the channel stream.  Any hidden consumer —
    an instrumentation layer included — would desynchronize these."""
    states = {"sim": repr(deployment.sim.rng.bit_generator.state)}
    channel_rng = getattr(deployment.network.channel, "_rng", None)
    if channel_rng is not None:
        states["channel"] = repr(channel_rng.bit_generator.state)
    return states


def run_once(backend=PRODUCTION):
    deployment = manet(N, 1500.0, backend)
    churn = ChurnSchedule([ChurnEvent(time=1.0, node_id=i, active=False) for i in range(25)]
                          + [ChurnEvent(time=2.0, node_id=i, active=True) for i in range(25)])
    churn.install(deployment.network)
    deployment.run(DURATION)
    network = deployment.network
    graph = deployment.topology()
    return {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "edges": {frozenset(e) for e in graph.edges},
        "report": overhead_summary(deployment, DURATION).as_row(),
        "rng_state": rng_fingerprint(deployment),
    }


@pytest.fixture(scope="module")
def runs():
    return {name: run_once(backend) for name, backend in BACKENDS.items()}


@pytest.mark.parametrize("backend", [name for name in BACKENDS
                                     if name != "indexed+vectorized"])
def test_backends_replay_identically(runs, backend):
    assert runs["indexed+vectorized"] == runs[backend], (
        f"seeded 500-node run diverged between indexed+vectorized and {backend}")


def test_rerun_with_same_seed_is_identical(runs):
    assert run_once() == runs["indexed+vectorized"]


def test_obs_enabled_replay_is_bit_identical(runs):
    """Observability must be invisible to the simulation: the 500-node run
    with metrics + spans collected matches the reference fingerprint exactly
    — deliveries, event counts, topology, and the post-run RNG states (the
    obs layer never consumes randomness)."""
    with observing(ObsContext()) as ctx:
        observed = run_once()
    assert observed == runs["indexed+vectorized"]
    export = ctx.export()
    assert export["counters"]["sim.events"] == observed["processed_events"]
    assert export["counters"]["net.delivered"] == observed["delivered"]
    assert "sim.event_pop" in export["spans"]


def test_views_cover_all_active_nodes(runs):
    views = runs["indexed+vectorized"]["views"]
    assert len(views) == N
    for node_id, view in views.items():
        assert node_id in view


# ------------------------------------------------------- with traffic on top

TRAFFIC_N = 200
#: Long enough for groups to form so that request/reply round trips happen
#: (requests are only recorded once the sender's view exceeds itself).
TRAFFIC_DURATION = 8.0


def run_traffic_once(backend=PRODUCTION):
    deployment = manet(TRAFFIC_N, 900.0, backend)
    driver = attach_traffic(
        deployment, TrafficSpec.create("request_reply", interval=1.0), seed=SEED)
    churn = ChurnSchedule([ChurnEvent(time=1.0, node_id=i, active=False)
                           for i in range(10)]
                          + [ChurnEvent(time=2.0, node_id=i, active=True)
                             for i in range(10)])
    churn.install(deployment.network)
    deployment.run(TRAFFIC_DURATION)
    network = deployment.network
    ledger = driver.ledger
    return {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "app_sent": ledger.messages_sent,
        "app_receptions": ledger.receptions,
        "requests": ledger.requests_sent,
        "replies": ledger.replies_matched,
        "group_rows": ledger.group_rows(),
        "totals": ledger.totals(TRAFFIC_DURATION),
        "rng_state": rng_fingerprint(deployment),
    }


@pytest.fixture(scope="module")
def traffic_runs():
    return {name: run_traffic_once(backend) for name, backend in BACKENDS.items()}


@pytest.mark.parametrize("backend", [name for name in BACKENDS
                                     if name != "indexed+vectorized"])
def test_traffic_backends_replay_identically(traffic_runs, backend):
    assert traffic_runs["indexed+vectorized"] == traffic_runs[backend], (
        f"seeded traffic run diverged between indexed+vectorized and {backend}")


def test_traffic_rerun_with_same_seed_is_identical(traffic_runs):
    assert run_traffic_once() == traffic_runs["indexed+vectorized"]


def test_traffic_actually_flowed(traffic_runs):
    reference = traffic_runs["indexed+vectorized"]
    assert reference["app_sent"] > 0
    assert reference["app_receptions"] > 0
    assert reference["replies"] > 0


# ------------------------------------------------- sharded executor on top

#: The sharded executor (:mod:`repro.shard`) joins the matrix as a new
#: axis: the same 500-node world, split across worker shards by spatial
#: tile, must reproduce the ``shards=1`` fingerprint bit for bit — counters,
#: views, edges, overhead report and the post-run RNG states (root sim
#: stream + every per-sender channel stream).  The reference is the sharded
#: engine at one shard: sharding swaps the global channel RNG for per-sender
#: streams, so its fingerprint family is its own, anchored at k=1 where the
#: whole run delivers everything locally.  Sharded delivery runs on the
#: production CSR engine (array state + vectorized delivery) only.
SHARD_CELLS = {"2shards+arraystate+vectorized": 2, "4shards+arraystate+vectorized": 4}

SHARD_CHURN = (tuple((1.0, i, False) for i in range(25))
               + tuple((2.0, i, True) for i in range(25)))


def shard_spec(shards):
    from repro.shard import ShardSpec

    return ShardSpec.create(
        "manet_waypoint",
        params={"n": N, "area": 1500.0, "radio_range": 100.0, "dmax": 3,
                "speed": 10.0, "loss_probability": 0.05},
        seed=SEED, duration=DURATION, shards=shards, churn=SHARD_CHURN)


@functools.lru_cache(maxsize=None)
def run_sharded_once(shards, transport="inproc"):
    """One run per cell, shared by the tests that check different facts of it."""
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(shards), transport=transport)
    return result.fingerprint, result.stats


@pytest.fixture(scope="module")
def sharded_reference():
    fingerprint, _ = run_sharded_once(1)
    return fingerprint


@pytest.mark.parametrize("cell", list(SHARD_CELLS))
def test_sharded_backends_replay_identically(sharded_reference, cell):
    fingerprint, stats = run_sharded_once(SHARD_CELLS[cell])
    assert fingerprint == sharded_reference, (
        f"sharded 500-node run diverged between 1 shard and {cell}")
    # The split must be real: nodes crossing tile boundaries force actual
    # cross-shard traffic, otherwise the cell proves nothing.
    assert stats["remote_deliveries"] > 0


def test_sharded_mp_transport_matches(sharded_reference):
    """One forked worker per shard replays the in-process reference
    exactly — the socket transport adds no nondeterminism."""
    fingerprint, stats = run_sharded_once(2, transport="mp")
    assert fingerprint == sharded_reference
    assert stats["transport"] == "mp"
    assert stats["remote_deliveries"] > 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_snapshot_restore_matches(sharded_reference, shards):
    """Every worker restores the one pickled scenario build: the result
    matches the reference bit for bit at every shard count, and the stats
    report the build split (one base build, one restore per worker).  The
    restored world against a world finalized straight from the scenario
    build is pinned in ``tests/test_shard.py``."""
    fingerprint, stats = run_sharded_once(shards)
    assert fingerprint == sharded_reference, (
        f"snapshot-restore run diverged at {shards} shards")
    assert stats["base_build_s"] > 0
    assert len(stats["worker_build_s"]) == shards
    assert len(stats["worker_base_phase_s"]) == shards


def test_sharded_mp_worker_finalizes_the_inherited_build(sharded_reference):
    """Over the mp transport each worker is forked with the built world in
    memory and finalizes it without a restore: it must still replay
    exactly the in-process run, whose hosts restore a snapshot."""
    fingerprint, stats = run_sharded_once(2, transport="mp")
    assert fingerprint == sharded_reference
    assert stats["transport"] == "mp"
    assert stats["worker_base_phase_s"] == [0.0, 0.0]


def test_sharded_build_mode_is_snapshot_only():
    from repro.shard import run_sharded

    with pytest.raises(ValueError, match="snapshot"):
        run_sharded(shard_spec(2), build="replicate")


def test_sharded_fingerprint_includes_rng_states(sharded_reference):
    states = sharded_reference["rng_state"]
    assert "sim" in states and "'bit_generator'" in states["sim"]
    # Per-sender channel streams: every sender that ever broadcast reports
    # its post-run state, keyed by node id.
    assert len(states["channel"]) > 0
    assert all("'bit_generator'" in state for state in states["channel"].values())


#: Positive-delay cells: the matrix above runs a zero-delay channel, so its
#: windows are lockstep rounds.  These lossy worlds have a constant positive
#: delay, which gives the coordinator a positive lookahead (windows
#: ``[t, t + L)``) and sends every cross-shard delivery through a scheduled
#: event at the receiving shard.
DELAY_WORLDS = {
    "city_scale": {"n": 300, "area": 1500.0, "hotspot_sigma": 150.0},
    "city_scale_mobile": {"n": 300, "area": 1500.0, "hotspot_sigma": 150.0,
                          "mover_fraction": 0.05},
}


def delay_spec(world, shards):
    from repro.shard import ShardSpec

    return ShardSpec.create(
        world, params=DELAY_WORLDS[world], seed=SEED, duration=DURATION,
        shards=shards, churn=(tuple((1.0, i, False) for i in range(10))
                              + tuple((2.0, i, True) for i in range(10))))


@functools.lru_cache(maxsize=None)
def delay_reference(world):
    from repro.shard import run_sharded

    return run_sharded(delay_spec(world, 1)).fingerprint


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("world", list(DELAY_WORLDS))
def test_sharded_positive_delay_replays_identically(world, shards):
    from repro.shard import ShardWorld, run_sharded

    spec = delay_spec(world, shards)
    _deployment, lookahead = ShardWorld.build_base(spec)
    assert lookahead > 0
    result = run_sharded(spec)
    assert result.fingerprint == delay_reference(world), (
        f"positive-delay {world} diverged between 1 shard and {shards}")
    assert result.stats["remote_deliveries"] > 0


@pytest.fixture(scope="module")
def sharded_traffic_reference():
    from repro.shard import run_sharded

    return run_sharded(shard_traffic_spec(1))


def shard_traffic_spec(shards):
    from repro.shard import ShardSpec

    return ShardSpec.create(
        "manet_waypoint",
        params={"n": TRAFFIC_N, "area": 900.0, "radio_range": 100.0, "dmax": 3,
                "speed": 10.0, "loss_probability": 0.05},
        seed=SEED, duration=TRAFFIC_DURATION, shards=shards,
        churn=(tuple((1.0, i, False) for i in range(10))
               + tuple((2.0, i, True) for i in range(10))),
        traffic="request_reply", traffic_params={"interval": 1.0},
        traffic_seed=SEED)


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_traffic_replays_identically(sharded_traffic_reference, shards):
    """Application workload (request/reply round trips) on the sharded
    engine: the merged ledger — group rows, RTTs, totals — and the protocol
    fingerprint must match the 1-shard reference at every shard count."""
    from repro.shard import run_sharded

    result = run_sharded(shard_traffic_spec(shards))
    assert result.fingerprint == sharded_traffic_reference.fingerprint
    assert result.traffic == sharded_traffic_reference.traffic
    assert result.stats["remote_deliveries"] > 0


def test_sharded_traffic_actually_flowed(sharded_traffic_reference):
    traffic = sharded_traffic_reference.traffic
    assert traffic["app_sent"] > 0
    assert traffic["app_receptions"] > 0
    assert traffic["replies"] > 0


# ------------------------------------- incremental CSR patch, engaged regime

#: ``manet_waypoint`` moves every node every tick, so its dirty fraction
#: exceeds the patch threshold and most CSR refreshes there are full
#: rebuilds.  This section pins the patch path *while it is actually
#: running*: a scaled-down ``city_scale_mobile`` field, where only a sparse
#: mover subset dirties rows each tick, must replay bit-identically with
#: patching on and off — and the on-run must prove patches happened.


def run_sparse_mobile_once(incremental):
    deployment = build(ScenarioSpec.create(
        "city_scale_mobile", n=400, area=2000.0, hotspot_sigma=200.0,
        mover_fraction=0.02), seed=SEED)
    network = deployment.network
    linkstate = network._link_state()
    if not incremental:
        # The rebuild reference: every refresh runs the full rebuild from
        # rebuilt state.
        linkstate.incremental = False
        linkstate.mark_dirty()
    deployment.run(4.0)
    assert network._array_ls is linkstate
    fingerprint = {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "edges": {frozenset(e) for e in deployment.topology().edges},
        "rng_state": rng_fingerprint(deployment),
    }
    return fingerprint, linkstate.patch_count


def test_incremental_patch_replays_identically_when_engaged():
    patched, patch_count = run_sparse_mobile_once(True)
    rebuilt, rebuilt_patch_count = run_sparse_mobile_once(False)
    assert patch_count > 0, "sparse-mover run never took the patch path"
    assert rebuilt_patch_count == 0
    assert patched == rebuilt, (
        "sparse-mover run diverged between incremental CSR patch and full rebuild")


# ------------------------------------ observed sharded runs, bit-identical

#: Observability on the sharded executor crosses every seam at once: each
#: worker observes into its own ObsContext (captured at build time), the mp
#: transport ships contexts back over the socket, and the coordinator merges
#: them and appends its convergence milestone.  None of that may perturb
#: the simulation: every cell must reproduce the unobserved 1-shard
#: fingerprint bit for bit — counters, views, edges and post-run RNG states.

OBS_SHARD_CELLS = [(1, "inproc"), (2, "inproc"), (4, "inproc"),
                   (1, "mp"), (2, "mp"), (4, "mp")]


@pytest.mark.parametrize("shards,transport", OBS_SHARD_CELLS,
                         ids=[f"{k}shards-{t}" for k, t in OBS_SHARD_CELLS])
def test_sharded_obs_replay_is_bit_identical(sharded_reference, shards,
                                             transport):
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(shards), transport=transport, obs=True)
    assert result.fingerprint == sharded_reference, (
        f"observed sharded run diverged at {shards} shards over {transport}")
    assert "rng_state" in result.fingerprint
    merged = result.obs["merged"]
    assert len(result.obs["per_shard"]) == shards
    assert merged["counters"]["sim.events"] > 0
    assert merged["counters"]["shard.windows"] > 0
    assert "shard.outbox_entries" in merged["counters"]
    kinds = merged["events"]["kinds"]
    assert kinds.get("convergence.final") == 1


def test_sharded_obs_snapshot_restore_workers_observe(sharded_reference):
    """Snapshot-restored workers must re-capture the process-local context
    when the world is finalized — without it every restored
    component keeps the nulled handles from the pickled blob and the run
    is silently unobserved."""
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(2), obs=True)
    assert result.fingerprint == sharded_reference
    merged = result.obs["merged"]
    assert merged["counters"]["sim.events"] > 0
    assert merged["counters"]["net.delivered"] > 0
    assert merged["spans"].get("shard.snapshot_restore", {}).get("count") == 2
    for blob in result.obs["per_shard"]:
        assert blob["counters"].get("sim.events", 0) > 0, (
            "a snapshot-restored worker recorded nothing: the finalize "
            "re-capture is broken")


def test_sharded_obs_traffic_ledger_cell(sharded_traffic_reference):
    """Observability with an application workload attached: the merged
    ledger and fingerprint must still match the unobserved reference, and
    the per-shard blobs must carry the shard instruments."""
    from repro.shard import run_sharded

    result = run_sharded(shard_traffic_spec(2), obs=True)
    assert result.fingerprint == sharded_traffic_reference.fingerprint
    assert result.traffic == sharded_traffic_reference.traffic
    for blob in result.obs["per_shard"]:
        assert "shard.windows" in blob["counters"]
        assert "shard.outbox_entries" in blob["counters"]


def test_sharded_obs_merged_counters_reconcile(sharded_reference):
    """Merged per-shard counters must reconcile with the fingerprint:
    ``net.delivered`` sums exactly; ``sim.events`` counts the shared churn
    events once per shard, so the merged total exceeds the fingerprint by
    ``(k - 1) x shared``.  Every broadcast of a shard is either a halo send
    (its receiver batch holds a receiver owned by another shard) or an
    interior send."""
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(2), obs=True)
    merged = result.obs["merged"]
    assert merged["counters"]["net.delivered"] == result.fingerprint["delivered"]
    assert merged["counters"]["sim.events"] >= result.fingerprint["processed_events"]
    for blob in result.obs["per_shard"]:
        counters = blob["counters"]
        assert counters["shard.halo_sends"] > 0
        assert (counters["shard.halo_sends"] + counters["shard.interior_sends"]
                == counters["net.broadcasts"])
