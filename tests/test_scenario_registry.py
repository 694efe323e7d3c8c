"""Tests for the declarative scenario layer: specs, registry, builders."""

import json

import pytest

from repro.core.node import GRPConfig
from repro.mobility.manhattan import ManhattanGridMobility
from repro.net.channel import LossyChannel
from repro.campaign import CampaignSpec
from repro.scenarios import (SCENARIOS, Definition, ScenarioParameter, ScenarioSpec, build,
                             get_scenario, normalize_spec, scenario_names)
from repro.traffic import TRAFFIC, TrafficSpec, normalize_traffic_spec

#: Both catalogs, with a registered entry of each: the registry tests run
#: once per catalog.
CATALOGS = [pytest.param(SCENARIOS, "static_random", id="scenario"),
            pytest.param(TRAFFIC, "periodic_beacon", id="traffic")]


class TestScenarioSpec:
    """The :class:`~repro.scenarios.spec.Spec` methods, on a scenario spec.

    A spec knows nothing about its catalog, so the parameter names here need
    not be declared by ``name``; :class:`TestTrafficSpecMethods` reruns every
    case on a traffic spec.
    """

    catalog = SCENARIOS
    name = "static_random"
    int_param = "n"

    def create(self, **params):
        return self.catalog.spec_type.create(self.name, **params)

    def test_params_are_canonically_ordered(self):
        a = self.create(n=5, area=100.0)
        b = self.create(area=100.0, n=5)
        assert a == b
        assert hash(a) == hash(b)
        assert {a, b} == {a}
        assert a.params == (("area", 100.0), ("n", 5))

    def test_sequence_values_freeze_to_tuples(self):
        spec = self.create(group_sizes=[3, 2])
        assert spec.param_dict["group_sizes"] == (3, 2)
        hash(spec)  # hashable despite the sequence value

    def test_json_roundtrip_preserves_identity(self):
        spec = self.create(group_sizes=(4, 3), area=250.0, dmax=3)
        data = json.loads(json.dumps(spec.as_dict()))
        restored = self.catalog.spec_type.from_dict(data)
        assert restored == spec
        assert hash(restored) == hash(spec)
        assert restored.canonical_json() == spec.canonical_json()

    def test_with_params_merges_and_keeps_original(self):
        spec = self.create(n=10)
        merged = spec.with_params(n=20, speed=5.0)
        assert type(merged) is type(spec)
        assert merged.param_dict == {"n": 20, "speed": 5.0}
        assert spec.param_dict == {"n": 10}

    def test_label_is_unique_per_spec_and_readable(self):
        plain = self.create()
        assert plain.label() == self.name
        spec = self.create(group_sizes=(4, 3), area=250.0)
        assert spec.label() == f"{self.name}[area=250.0,group_sizes=4+3]"
        assert spec.label() != spec.with_params(area=300.0).label()

    def test_normalize_spec_canonicalizes_types(self):
        key = self.int_param
        a, b, c = (self.catalog.normalize(self.create(**{key: v})) for v in (8.0, "8", 8))
        assert a == b == c
        assert a.param_dict[key] == 8 and a.label() == f"{self.name}[{key}=8]"

    def test_spec_key_is_stable(self):
        spec = self.create(n=9)
        assert spec.spec_key() == self.create(n=9).spec_key()
        assert spec.spec_key() != self.create(n=10).spec_key()


class TestTrafficSpecMethods(TestScenarioSpec):
    """Every :class:`TestScenarioSpec` case, on a traffic spec."""

    catalog = TRAFFIC
    name = "periodic_beacon"
    int_param = "size"


class TestSpecIdentityPins:
    """Literal keys, labels, hashes and seeds: a spec's identity never moves.

    Campaign result stores resume against these values, so a refactor of the
    spec or catalog code must reproduce them byte for byte.
    """

    SCENARIO = ScenarioSpec.create("rpgm_scenario", group_sizes=(4, 4, 3), area=300)
    TRAFFIC = TrafficSpec.create("state_sync", relay="false", interval=1)

    def test_scenario_spec_key_and_label(self):
        spec = normalize_spec(self.SCENARIO)
        assert spec.spec_key() == "5b94c4cc8632"
        assert spec.label() == "rpgm_scenario[area=300.0,group_sizes=4+4+3]"

    def test_traffic_spec_key(self):
        assert normalize_traffic_spec(self.TRAFFIC).spec_key() == "eeb2bd88c876"

    def test_campaign_hash_and_first_task_seed(self):
        campaign = CampaignSpec(
            name="pin", experiments=("E11",), replicates=2, root_seed=7,
            scenarios=(normalize_spec(self.SCENARIO),),
            traffics=(normalize_traffic_spec(self.TRAFFIC),
                      TrafficSpec.create("periodic_beacon")))
        assert campaign.spec_hash() == "e28ecb3d93a252e5"
        assert campaign.expand()[0].seed == 5176796510659802171

    def test_scenario_and_traffic_specs_of_one_name_differ(self):
        assert ScenarioSpec.create("a") != TrafficSpec.create("a")
        assert type(SCENARIOS.normalize(ScenarioSpec.create("static_random"))) \
            is ScenarioSpec
        assert type(TRAFFIC.normalize(TrafficSpec.create("periodic_beacon"))) \
            is TrafficSpec


class TestParameterCoercion:
    def test_kinds_coerce_cli_strings(self):
        assert ScenarioParameter("x", "int", 0).coerce("42") == 42
        assert ScenarioParameter("x", "float", 0.0).coerce("2.5") == 2.5
        assert ScenarioParameter("x", "bool", False).coerce("yes") is True
        assert ScenarioParameter("x", "bool", False).coerce("off") is False
        assert ScenarioParameter("x", "int_tuple", ()).coerce("4+4+3") == (4, 4, 3)
        assert ScenarioParameter("x", "int_tuple", ()).coerce([1, 2]) == (1, 2)

    def test_bad_values_raise_with_context(self):
        with pytest.raises(ValueError, match="expects kind 'int'"):
            ScenarioParameter("n", "int", 0).coerce("many")
        with pytest.raises(ValueError):
            ScenarioParameter("flag", "bool", False).coerce("maybe")
        with pytest.raises(ValueError):
            ScenarioParameter("sizes", "int_tuple", ()).coerce("")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioParameter("x", "complex", 0)


class TestRegistry:
    def test_catalog_has_at_least_twelve_scenarios(self):
        names = scenario_names()
        assert len(names) >= 12
        for legacy in ("static_random", "line_topology", "two_cluster_topology",
                       "ring_of_clusters", "manet_waypoint", "vanet_highway",
                       "rpgm_scenario", "large_manet_waypoint", "dense_highway_convoy"):
            assert legacy in names
        for new in ("manhattan_grid", "flash_crowd", "sparse_lossy_field",
                    "city_scale"):
            assert new in names

    def test_every_scenario_declares_dmax_and_descriptions(self):
        for name in scenario_names():
            definition = get_scenario(name)
            assert definition.description
            assert "dmax" in [p.name for p in definition.parameters]
            for parameter in definition.parameters:
                assert not parameter.required  # the stock catalog is runnable as-is

    @pytest.mark.parametrize("catalog, name", CATALOGS)
    def test_unknown_name_and_parameter_raise(self, catalog, name):
        with pytest.raises(KeyError, match=f"unknown {catalog.kind} 'does_not_exist'"):
            catalog.get("does_not_exist")
        with pytest.raises(KeyError, match=f"unknown {catalog.kind}"):
            catalog.normalize(catalog.spec_type.create("does_not_exist"))
        with pytest.raises(ValueError, match=f"unknown parameter.*for {catalog.kind}"):
            catalog.normalize(catalog.spec_type.create(name, bogus=1))
        with pytest.raises(ValueError, match="unknown parameter"):
            catalog.get(name).resolve_params({"bogus": 1})
        with pytest.raises(KeyError, match=f"{catalog.kind} '{name}' has no parameter"):
            catalog.get(name).parameter("bogus")

    @pytest.mark.parametrize("catalog, name", CATALOGS)
    def test_required_parameter_enforced(self, catalog, name):
        definition = Definition(
            kind=catalog.kind, name="_required_demo", description="demo",
            parameters=(ScenarioParameter("n", "int"),), factory=lambda **kw: None)
        with pytest.raises(ValueError,
                           match=f"{catalog.kind} '_required_demo' requires parameter 'n'"):
            definition.resolve_params({})
        assert definition.resolve_params({"n": "3"}) == {"n": 3}

    @pytest.mark.parametrize("catalog, name", CATALOGS)
    def test_duplicate_registration_rejected(self, catalog, name):
        registered = catalog.get(name)
        with pytest.raises(ValueError, match=f"{catalog.kind} '{name}' is already registered"):
            catalog.register(name, "duplicate", [])(lambda **kw: None)
        assert catalog.get(name) is registered

    def test_resolve_params_fills_defaults_and_coerces(self):
        definition = get_scenario("static_random")
        params = definition.resolve_params({"n": "9"})
        assert params["n"] == 9
        assert params["area"] == 300.0  # registry default

    @pytest.mark.parametrize("catalog, name", CATALOGS)
    def test_format_lists_every_definition(self, catalog, name):
        text = catalog.format()
        for definition in catalog.definitions():
            assert f"{definition.name}: {definition.description}" in text
            for param in definition.parameters:
                assert f"    {param.name} ({param.kind}, " in text
        assert catalog.format(verbose=False).splitlines() == [
            f"{d.name}: {d.description}" for d in catalog.definitions()]


class TestBuild:
    def test_build_is_deterministic_per_seed(self):
        spec = ScenarioSpec.create("manhattan_grid", n=8, area=300.0, block_size=100.0)
        a = build(spec, seed=3)
        b = build(spec, seed=3)
        a.run(10.0)
        b.run(10.0)
        assert a.views() == b.views()
        assert a.network.positions == b.network.positions

    def test_config_override_wins_over_dmax_param(self):
        config = GRPConfig(dmax=4, quarantine_enabled=False)
        deployment = build(ScenarioSpec.create("static_random", n=5, dmax=2),
                           seed=1, config=config)
        assert deployment.config is config
        assert deployment.config.dmax == 4

    def test_structural_metadata_published(self):
        deployment = build(ScenarioSpec.create("two_cluster_topology", cluster_size=2),
                           seed=1)
        assert deployment.scenario_metadata["left"] == [0, 1]
        assert deployment.scenario_metadata["right"] == [2, 3]
        ring = build(ScenarioSpec.create("ring_of_clusters", cluster_count=3,
                                         cluster_size=2), seed=1)
        assert len(ring.scenario_metadata["clusters"]) == 3


class TestNewScenarios:
    def test_manhattan_positions_stay_on_streets(self):
        spec = ScenarioSpec.create("manhattan_grid", n=12, area=400.0, block_size=100.0,
                                   speed=10.0)
        deployment = build(spec, seed=2)
        deployment.run(25.0)
        for x, y in deployment.network.positions.values():
            assert -1e-6 <= x <= 400.0 + 1e-6 and -1e-6 <= y <= 400.0 + 1e-6
            on_street = (abs(x - round(x / 100.0) * 100.0) < 1e-6
                         or abs(y - round(y / 100.0) * 100.0) < 1e-6)
            assert on_street, f"({x}, {y}) is off the street grid"

    def test_manhattan_degenerate_border_state_terminates(self):
        # A travel coordinate a hair inside either border (reachable through
        # partial moves) must bounce inward, not hang step() forever.
        from repro.mobility.manhattan import _WalkerState
        import numpy as np
        m = ManhattanGridMobility(area=400.0, block_size=100.0, speed=10.0,
                                  rng=np.random.default_rng(0))
        m._states["low"] = _WalkerState(axis=0, direction=-1)
        m._states["high"] = _WalkerState(axis=0, direction=1)
        out = m.step({"low": (4e-13, 100.0), "high": (400.0 - 4e-13, 100.0)}, 1.0)
        assert out["low"] == (10.0, 100.0)
        assert out["high"] == (390.0, 100.0)

    def test_manhattan_grid_clamped_to_block_multiple(self):
        # area=250 has no street at 250: the grid spans [0, 200] and motion
        # stays continuous (no re-snap teleports).
        import numpy as np
        m = ManhattanGridMobility(area=250.0, block_size=100.0, speed=10.0,
                                  rng=np.random.default_rng(1))
        assert m.extent == 200.0
        positions = m.initial_positions(range(6))
        for _ in range(30):
            new = m.step(positions, 1.0)
            for node in new:
                dx = abs(new[node][0] - positions[node][0])
                dy = abs(new[node][1] - positions[node][1])
                assert dx + dy <= 10.0 + 1e-9
                assert 0.0 <= new[node][0] <= 200.0 and 0.0 <= new[node][1] <= 200.0
            positions = new

    def test_manhattan_mobility_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ManhattanGridMobility(area=100.0, block_size=200.0, speed=1.0)
        with pytest.raises(ValueError):
            ManhattanGridMobility(area=100.0, block_size=50.0, speed=-1.0)
        with pytest.raises(ValueError):
            ManhattanGridMobility(area=100.0, block_size=50.0, speed=1.0,
                                  turn_probability=1.5)

    def test_flash_crowd_bursts_deactivate_and_restore(self):
        spec = ScenarioSpec.create("flash_crowd", n=12, burst_fraction=0.5,
                                   first_burst=20.0, burst_period=60.0, off_time=15.0,
                                   horizon=70.0, speed=0.0)
        deployment = build(spec, seed=4)
        deployment.run(25.0)  # inside the first burst's off window
        away = 12 - len(deployment.network.active_nodes())
        assert away == deployment.scenario_metadata["burst_size"] == 6
        deployment.run(20.0)  # past the burst's return
        assert len(deployment.network.active_nodes()) == 12

    def test_flash_crowd_validates_fraction(self):
        with pytest.raises(ValueError):
            build(ScenarioSpec.create("flash_crowd", burst_fraction=1.5), seed=0)

    def test_sparse_lossy_field_uses_lossy_delayed_channel(self):
        deployment = build(ScenarioSpec.create("sparse_lossy_field", n=8,
                                               loss_probability=0.4), seed=1)
        channel = deployment.network.channel
        assert isinstance(channel, LossyChannel)
        assert channel.loss_probability == 0.4
        assert channel.max_delay > 0
        deployment.run(10.0)


class TestSuiteOverrides:
    def test_run_experiment_accepts_scenario_override(self):
        from repro.experiments.suite import run_experiment
        spec = ScenarioSpec.create("manet_waypoint", n=8, area=200.0)
        result = run_experiment("E6", quick=True, seed=6, scenario=spec)
        assert result.rows
        default = run_experiment("E6", quick=True, seed=6)
        assert result.rows != default.rows  # the override really changed the workload

    def test_override_reapplies_internal_grid_values(self):
        from repro.experiments.suite import run_experiment
        spec = ScenarioSpec.create("static_random", n=30, area=200.0)
        result = run_experiment("E8", quick=True, seed=8, scenario=spec)
        # E8's n/dmax loop is re-applied onto the override: the row labels and
        # the workloads vary together, overriding the spec's own n.
        assert sorted({row["n"] for row in result.rows}) == [8, 16]
        assert sorted({row["dmax"] for row in result.rows}) == [2, 4]

    def test_override_undeclared_grid_parameter_noted(self):
        from repro.experiments.suite import run_experiment
        spec = ScenarioSpec.create("vanet_highway", n=8)
        result = run_experiment("E3", quick=True, seed=3, scenario=spec)
        assert any("does not declare" in note for note in result.notes)

    def test_structural_experiment_notes_ignored_override(self):
        from repro.experiments.suite import run_experiment
        spec = ScenarioSpec.create("manet_waypoint", n=6)
        result = run_experiment("E9", quick=True, seed=9, scenario=spec)
        assert any("ignored" in note for note in result.notes)

    def test_scenario_dict_form_accepted(self):
        from repro.experiments.suite import run_experiment
        spec = ScenarioSpec.create("static_random", n=8)
        by_spec = run_experiment("E6", quick=True, seed=6, scenario=spec)
        by_dict = run_experiment("E6", quick=True, seed=6, scenario=spec.as_dict())
        assert by_spec.rows == by_dict.rows
