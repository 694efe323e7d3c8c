"""Tests of the group-application traffic subsystem.

Covers the spec/registry value layer, the delivery ledger's accounting, the
generators' behaviour on live deployments, bit-exact replay across both
neighbour engines (CSR link state, brute-force scan), the campaign traffic axis
(task ids, seed streams, spec hashes, store roundtrip, serial vs pool
equality) and the CLI surface (``--traffic`` / ``--traffic-sweep`` /
``--list-traffic`` and the final campaign summary line).
"""

import pytest

from repro.campaign import CampaignSpec, ResultStore, deterministic_report, run_campaign
from repro.experiments.cli import main
from repro.experiments.suite import run_experiment
from repro.scenarios import ScenarioSpec, build
from repro.sim.randomness import derive_seed
from repro.traffic import (AppMessage, DeliveryLedger, TrafficSpec, attach_traffic,
                           get_traffic, normalize_traffic_spec, traffic_names)

from reference_backends import BRUTE_FORCE, PRODUCTION, use_backend

# --------------------------------------------------------------------- specs


class TestTrafficSpec:
    # The Spec methods themselves run on both spec classes in
    # tests/test_scenario_registry.py (TestScenarioSpec, TestTrafficSpecMethods).

    def test_scenario_and_traffic_specs_are_distinct_values(self):
        traffic = TrafficSpec.create("periodic_beacon", interval=1.0)
        scenario = ScenarioSpec.create("periodic_beacon", interval=1.0)
        assert traffic != scenario


class TestRegistry:
    def test_catalog_contains_the_four_patterns(self):
        assert set(traffic_names()) >= {"periodic_beacon", "bursty_pubsub",
                                        "request_reply", "state_sync"}

    def test_normalize_coerces_and_rejects_unknowns(self):
        # Unknown names and parameters: tests/test_scenario_registry.py runs
        # the registry tests over both catalogs.
        spec = normalize_traffic_spec(TrafficSpec.create("periodic_beacon",
                                                         interval="2", size="16"))
        assert spec.param_dict == {"interval": 2.0, "size": 16}

    def test_resolve_params_fills_defaults(self):
        definition = get_traffic("request_reply")
        resolved = definition.resolve_params({"interval": 1.0})
        assert resolved["interval"] == 1.0
        assert resolved["reply_delay"] == 0.05


# -------------------------------------------------------------------- ledger


def _msg(sender, seq, t, group, size=10, kind="k", data=None):
    return AppMessage(kind=kind, sender=sender, seq=seq, send_time=t,
                      group=frozenset(group), size=size, data=data)


class TestDeliveryLedger:
    def test_in_group_delivery_accounting(self):
        ledger = DeliveryLedger()
        msg = _msg("a", 1, 0.0, {"a", "b", "c"})
        ledger.record_send(msg)
        ledger.record_delivery("b", msg, 0.25)
        totals = ledger.totals(duration=1.0)
        assert totals["offered"] == 1
        assert totals["expected"] == 2
        assert totals["delivered"] == 1
        assert totals["delivery_ratio"] == 0.5
        assert totals["goodput_msgs_per_s"] == 1.0
        assert totals["goodput_bytes_per_s"] == 10.0
        assert totals["latency_mean"] == 0.25
        assert totals["leaked"] == 0

    def test_leakage_counts_non_members(self):
        ledger = DeliveryLedger()
        msg = _msg("a", 1, 0.0, {"a", "b"})
        ledger.record_send(msg)
        ledger.record_delivery("b", msg, 0.1)
        ledger.record_delivery("z", msg, 0.1)  # vicinity, not group
        totals = ledger.totals(duration=1.0)
        assert totals["delivered"] == 1
        assert totals["leaked"] == 1
        assert totals["leakage_ratio"] == 0.5

    def test_staleness_lags_against_latest_sent(self):
        ledger = DeliveryLedger()
        first = _msg("a", 1, 0.0, {"a", "b"})
        second = _msg("a", 2, 1.0, {"a", "b"})
        ledger.record_send(first)
        ledger.record_send(second)
        ledger.record_delivery("b", first, 1.5)   # one message behind
        ledger.record_delivery("b", second, 1.5)  # fresh
        totals = ledger.totals(duration=2.0)
        assert totals["staleness_max"] == 1
        assert totals["staleness_mean"] == 0.5

    def test_round_trip_matching_takes_first_reply(self):
        ledger = DeliveryLedger()
        ledger.record_request("a", 7, 1.0)
        ledger.record_reply("a", 7, 1.4)
        ledger.record_reply("a", 7, 9.0)  # duplicate reply ignored
        totals = ledger.totals(duration=1.0)
        assert totals["requests"] == 1
        assert totals["replies"] == 1
        assert abs(totals["rtt_mean"] - 0.4) < 1e-9

    def test_group_rows_sorted_by_group_key(self):
        ledger = DeliveryLedger()
        for sender, group in (("z", {"z", "y"}), ("a", {"a", "b"})):
            ledger.record_send(_msg(sender, 1, 0.0, group))
        rows = ledger.group_rows()
        assert [row["group"] for row in rows] == ["a", "y"]

    def test_empty_ledger_totals(self):
        totals = DeliveryLedger().totals()
        assert totals["offered"] == 0
        assert totals["delivery_ratio"] is None
        assert totals["latency_mean"] is None

    def test_percentile_single_sample_any_fraction(self):
        # Nearest-rank edge case: one sample is every percentile of itself,
        # and fractions at or beyond 1.0 must clamp to the maximum instead of
        # indexing past the end of the list.
        from repro.traffic.ledger import _percentile
        for fraction in (0.0, 0.5, 0.95, 1.0, 1.5):
            assert _percentile([0.42], fraction) == 0.42
        assert _percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert _percentile([1.0, 2.0, 3.0], 1.0) == 3.0
        assert _percentile([1.0, 2.0, 3.0], 2.0) == 3.0

    def test_single_delivery_latency_percentiles(self):
        ledger = DeliveryLedger()
        msg = _msg("a", 1, 0.0, {"a", "b"})
        ledger.record_send(msg)
        ledger.record_delivery("b", msg, 0.25)
        totals = ledger.totals(duration=1.0)
        assert totals["latency_p95"] == 0.25
        assert totals["latency_max"] == 0.25

    def test_totals_zero_duration_no_division(self):
        # duration=0.0 is a legitimate window (an instantaneous snapshot);
        # the rate columns degrade to None instead of dividing by zero.
        ledger = DeliveryLedger()
        msg = _msg("a", 1, 0.0, {"a", "b"})
        ledger.record_send(msg)
        ledger.record_delivery("b", msg, 0.0)
        totals = ledger.totals(duration=0.0)
        assert totals["goodput_msgs_per_s"] is None
        assert totals["goodput_bytes_per_s"] is None
        assert totals["delivered"] == 1
        # Same degradation when all events share one instant and the window
        # falls back to the (zero-width) observed span.
        assert ledger.observed_span() == 0.0
        assert ledger.totals()["goodput_msgs_per_s"] is None


# ------------------------------------------------- live deployments, replay

#: The production CSR engine and the test-only brute-force reference of
#: ``tests/reference_backends.py``.
BACKENDS = {
    "indexed+vectorized": PRODUCTION,
    "brute+scalar": BRUTE_FORCE,
}


def rng_states(deployment):
    """Post-run states of the root sim stream and the channel stream."""
    return (repr(deployment.sim.rng.bit_generator.state),
            repr(deployment.network.channel._rng.bit_generator.state))


def traffic_fingerprint(traffic_name, backend=PRODUCTION, n=40, duration=4.0,
                        traffic_seed=77):
    """Full observable state of one seeded traffic run (for equality checks)."""
    deployment = build(ScenarioSpec.create(
        "manet_waypoint", n=n, area=450.0, radio_range=110.0, dmax=3, speed=8.0,
        loss_probability=0.05), seed=33)
    use_backend(deployment.network, backend)
    driver = attach_traffic(deployment, TrafficSpec.create(traffic_name),
                            seed=traffic_seed)
    deployment.run(duration)
    network = deployment.network
    return {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "app_sent": driver.ledger.messages_sent,
        "app_receptions": driver.ledger.receptions,
        "group_rows": driver.ledger.group_rows(),
        "totals": driver.ledger.totals(duration),
        "rng_state": rng_states(deployment),
    }


class TestTrafficReplay:
    @pytest.mark.parametrize("traffic_name", ["request_reply", "state_sync"])
    def test_bit_identical_across_all_backends(self, traffic_name):
        reference = traffic_fingerprint(traffic_name)
        assert reference["app_sent"] > 0 and reference["app_receptions"] > 0
        for name, backend in BACKENDS.items():
            if backend == PRODUCTION:
                continue
            assert traffic_fingerprint(traffic_name, backend) == reference, (
                f"seeded {traffic_name} run diverged between "
                f"indexed+vectorized and {name}")

    def test_same_seed_reruns_identically(self):
        assert (traffic_fingerprint("bursty_pubsub")
                == traffic_fingerprint("bursty_pubsub"))

    def test_different_traffic_seed_changes_the_run(self):
        assert (traffic_fingerprint("periodic_beacon", traffic_seed=77)
                != traffic_fingerprint("periodic_beacon", traffic_seed=78))

    def test_messages_are_scoped_to_groups(self):
        deployment = build(ScenarioSpec.create("static_random", n=12, area=240.0,
                                               radio_range=110.0), seed=9)
        deployment.run(30.0)  # let groups stabilize first
        driver = attach_traffic(deployment, TrafficSpec.create("periodic_beacon"),
                                seed=5)
        deployment.run(10.0)
        assert driver.ledger.messages_sent > 0
        totals = driver.ledger.totals(10.0)
        assert totals["delivered"] > 0
        assert 0 < totals["delivery_ratio"] < 1
        # The field stabilizes into one all-covering group, so every
        # reception is in-group: scoping leaks nothing.
        assert totals["leaked"] == 0

    def test_inactive_nodes_send_nothing(self):
        deployment = build(ScenarioSpec.create("static_random", n=6, area=150.0,
                                               radio_range=100.0), seed=4)
        for node_id in deployment.nodes:
            deployment.network.deactivate_node(node_id)
        driver = attach_traffic(deployment, TrafficSpec.create("periodic_beacon"),
                                seed=5)
        deployment.run(5.0)
        assert driver.ledger.messages_sent == 0


# ----------------------------------------------------------------- suite/E11


class TestE11:
    def test_e11_produces_the_grid(self):
        result = run_experiment("E11", quick=True, seed=3)
        assert len(result.rows) == 4  # 2 speeds x 2 loads
        for row in result.rows:
            assert row["offered"] > 0
            assert row["delivered"] > 0
            assert 0 < row["delivery_ratio"] <= 1

    def test_e11_accepts_traffic_override(self):
        result = run_experiment("E11", quick=True, seed=3,
                                traffic=TrafficSpec.create("request_reply"))
        assert any("request_reply" in note for note in result.notes)
        assert all(row["requests"] > 0 for row in result.rows)

    def test_traffic_unaware_experiment_notes_the_ignore(self):
        result = run_experiment("E6", quick=True, seed=3,
                                traffic=TrafficSpec.create("periodic_beacon"))
        assert any("ignored by E6" in note for note in result.notes)

    def test_e11_is_seed_deterministic(self):
        rows_a = run_experiment("E11", quick=True, seed=5).rows
        rows_b = run_experiment("E11", quick=True, seed=5).rows
        assert rows_a == rows_b


# ------------------------------------------------------------- campaign axis


def _spec(**overrides):
    defaults = dict(name="t", experiments=("E11",), replicates=1, root_seed=7)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestCampaignTrafficAxis:
    def test_expansion_covers_the_traffic_axis(self):
        spec = _spec(replicates=2,
                     traffics=(TrafficSpec.create("periodic_beacon", interval=0.5),
                               TrafficSpec.create("request_reply")))
        tasks = spec.expand()
        assert [t.task_id for t in tasks] == [
            "E11/periodic_beacon[interval=0.5]/r0",
            "E11/periodic_beacon[interval=0.5]/r1",
            "E11/request_reply/r0",
            "E11/request_reply/r1",
        ]
        assert spec.task_count() == len(tasks) == 4
        assert len({t.seed for t in tasks}) == 4

    def test_traffic_less_campaigns_keep_ids_seeds_and_hash(self):
        spec = _spec(experiments=("E3", "E6"), replicates=2)
        tasks = spec.expand()
        assert [t.task_id for t in tasks] == ["E3/r0", "E3/r1", "E6/r0", "E6/r1"]
        for task in tasks:
            assert task.seed == derive_seed(
                7, f"campaign/{task.experiment}/rep{task.replicate}")
        assert "traffics" not in spec.as_dict()
        # The hash is the canonical JSON digest of exactly the historical keys.
        legacy = dict(spec.as_dict())
        assert set(legacy) == {"name", "experiments", "replicates", "root_seed",
                               "quick", "max_trace_records"}

    def test_spec_hash_sensitive_to_the_traffic_axis(self):
        plain = _spec()
        with_axis = _spec(traffics=(TrafficSpec.create("periodic_beacon"),))
        other_cell = _spec(traffics=(TrafficSpec.create("state_sync"),))
        assert len({plain.spec_hash(), with_axis.spec_hash(),
                    other_cell.spec_hash()}) == 3

    def test_equivalent_traffic_cells_normalize_and_duplicate(self):
        with pytest.raises(ValueError, match="duplicate traffic"):
            _spec(traffics=(TrafficSpec.create("periodic_beacon", interval=2),
                            TrafficSpec.create("periodic_beacon", interval="2")))

    def test_traffic_cells_accept_dict_form(self):
        spec = _spec(traffics=(TrafficSpec.create("state_sync").as_dict(),))
        assert spec.traffics[0] == TrafficSpec.create("state_sync")

    def test_invalid_traffic_cell_fails_at_spec_creation(self):
        with pytest.raises(KeyError):
            _spec(traffics=(TrafficSpec.create("no_such_traffic"),))
        with pytest.raises(ValueError):
            _spec(traffics=(TrafficSpec.create("state_sync", bogus=1),))


class TestSeedStreamCollisions:
    """Scenario cells and traffic cells must never share a derive_seed stream."""

    def test_scenario_and_traffic_cells_never_collide(self):
        # Same name, same params — one as a scenario cell, one as a traffic
        # cell.  The stream names (and therefore the seeds) must differ.
        scenario_spec = ScenarioSpec.create("static_random", n=8)
        traffic_spec = TrafficSpec.create("periodic_beacon", interval=2.0)
        base = _spec(experiments=("E6",))
        seed_scenario = base.task_seed("E6", 0, scenario=scenario_spec)
        seed_traffic = base.task_seed("E6", 0, traffic=traffic_spec)
        seed_both = base.task_seed("E6", 0, scenario=scenario_spec,
                                   traffic=traffic_spec)
        seed_neither = base.task_seed("E6", 0)
        assert len({seed_scenario, seed_traffic, seed_both, seed_neither}) == 4

    def test_identically_rendered_cells_stay_distinct(self):
        # A scenario and a traffic cell whose canonical JSON is identical
        # must still derive different seeds: the traffic segment carries a
        # "traffic=" prefix no scenario JSON (which starts with "{") can
        # produce.
        scenario_json = ScenarioSpec.create("manet_waypoint", n=8).canonical_json()
        assert scenario_json.startswith("{")
        assert not scenario_json.startswith("traffic=")
        name_scenario = f"campaign/E6/{scenario_json}/rep0"
        name_traffic = f"campaign/E6/traffic={scenario_json}/rep0"
        assert derive_seed(7, name_scenario) != derive_seed(7, name_traffic)

    def test_task_seed_matches_direct_derivation(self):
        traffic = TrafficSpec.create("periodic_beacon", interval=0.5)
        base = _spec(experiments=("E11",))
        expected = derive_seed(
            7, f"campaign/E11/traffic={traffic.canonical_json()}/rep1")
        assert base.task_seed("E11", 1, traffic=traffic) == expected


class TestCampaignExecutionWithTraffic:
    def test_serial_and_parallel_reports_identical(self, tmp_path):
        spec = _spec(replicates=2,
                     traffics=(TrafficSpec.create("periodic_beacon", interval=0.5),))
        serial = run_campaign(spec, store=ResultStore(str(tmp_path / "serial.jsonl")),
                              jobs=1)
        parallel = run_campaign(spec, store=ResultStore(str(tmp_path / "pool.jsonl")),
                                jobs=2)
        assert deterministic_report(serial) == deterministic_report(parallel)
        assert [o.rows for o in serial.outcomes] == [o.rows for o in parallel.outcomes]

    def test_store_roundtrips_the_traffic_cell_and_resumes(self, tmp_path):
        spec = _spec(traffics=(TrafficSpec.create("state_sync", relay=False),))
        store = ResultStore(str(tmp_path / "store.jsonl"))
        first = run_campaign(spec, store=store)
        assert first.executed == 1
        record = store.load(spec.spec_hash())[0]
        assert record.traffic == TrafficSpec.create("state_sync", relay=False).as_dict()
        assert record.attempts == 1
        resumed = run_campaign(spec, store=store)
        assert resumed.executed == 0 and resumed.skipped == 1
        # Identical metric rows; only the executed/resumed header counts move.
        assert [o.rows for o in resumed.outcomes] == [o.rows for o in first.outcomes]

    def test_report_renders_one_block_per_traffic_cell(self):
        spec = _spec(traffics=(TrafficSpec.create("periodic_beacon", interval=0.5),
                               TrafficSpec.create("periodic_beacon", interval=1.0)))
        report = deterministic_report(run_campaign(spec))
        assert "traffic axis (2 cells)" in report
        assert "traffic periodic_beacon[interval=0.5]," in report
        assert "traffic periodic_beacon[interval=1.0]," in report


# ---------------------------------------------------------------------- CLI


class TestTrafficCli:
    def test_list_traffic(self, capsys):
        assert main(["--list-traffic"]) == 0
        out = capsys.readouterr().out
        for name in traffic_names():
            assert name in out

    def test_single_run_with_traffic_override(self, capsys):
        assert main(["E11", "--traffic", "periodic_beacon",
                     "--traffic-set", "interval=0.5"]) == 0
        out = capsys.readouterr().out
        assert "periodic_beacon[interval=0.5,size=64]" in out or \
            "periodic_beacon[interval=0.5]" in out

    def test_traffic_set_requires_traffic(self, capsys):
        assert main(["E11", "--traffic-set", "interval=1"]) == 2
        assert "--traffic" in capsys.readouterr().err

    def test_unknown_traffic_parameter_exits_before_running(self, capsys):
        assert main(["E11", "--traffic", "periodic_beacon",
                     "--traffic-set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_traffic_sweep_campaign_and_summary_line(self, tmp_path, capsys):
        store = str(tmp_path / "sweep.jsonl")
        args = ["E11", "--traffic", "periodic_beacon",
                "--traffic-sweep", "interval=0.5,1.0", "--store", store]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "traffic axis (2 cells)" in captured.out
        assert ("campaign summary: 2 tasks (2 executed, 0 resumed, "
                "0 failed, 0 retried)") in captured.err
        # Rerun resumes everything; the summary reflects it.
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "executed 0, resumed 2" in captured.out
        assert ("campaign summary: 2 tasks (0 executed, 2 resumed, "
                "0 failed, 0 retried)") in captured.err

    def test_duplicate_traffic_sweep_cells_rejected(self, capsys):
        assert main(["E11", "--traffic", "periodic_beacon",
                     "--traffic-sweep", "interval=1,1"]) == 2
        assert "duplicate traffic" in capsys.readouterr().err
