"""Tests for the experiment scenarios, runner helpers and the CLI."""

import pytest

from repro.baselines.lowest_id import LowestIdClustering
from repro.experiments.cli import build_parser, main
from repro.experiments.runner import ExperimentResult, attach_baseline, run_with_sampler
from repro.experiments.suite import ALL_EXPERIMENTS, run_experiment
from repro.scenarios import ScenarioSpec, build


def scenario(name, seed, **params):
    """Build the registered scenario ``name`` with explicit ``params``."""
    return build(ScenarioSpec.create(name, **params), seed=seed)


class TestScenarios:
    def test_static_random_builds_requested_size(self):
        deployment = scenario("static_random", 1, n=7, area=100.0, radio_range=40.0, dmax=2)
        assert len(deployment.nodes) == 7
        assert deployment.config.dmax == 2

    def test_line_topology_is_a_chain(self):
        deployment = scenario("line_topology", 1, n=4, spacing=30.0, radio_range=35.0,
                              dmax=2)
        graph = deployment.topology()
        assert graph.number_of_edges() == 3

    def test_two_cluster_topology_starts_disconnected(self):
        deployment = scenario("two_cluster_topology", 1, cluster_size=2, gap=300.0,
                              spacing=20.0, radio_range=50.0, dmax=2)
        left = deployment.scenario_metadata["left"]
        right = deployment.scenario_metadata["right"]
        graph = deployment.topology()
        assert not any(graph.has_edge(a, b) for a in left for b in right)

    def test_ring_of_clusters_structure(self):
        deployment = scenario("ring_of_clusters", 1, cluster_count=3, cluster_size=2,
                              ring_radius=80.0, cluster_radius=10.0, radio_range=60.0,
                              dmax=2)
        clusters = deployment.scenario_metadata["clusters"]
        assert len(clusters) == 3
        assert len(deployment.nodes) == 6

    def test_mobile_scenarios_build_and_run(self):
        for deployment in (
            scenario("manet_waypoint", 1, n=5, area=120.0, radio_range=60.0, dmax=2,
                     speed=2.0),
            scenario("vanet_highway", 1, n=5, road_length=500.0, radio_range=120.0,
                     dmax=2),
            scenario("rpgm_scenario", 1, group_sizes=(3, 2), area=200.0,
                     radio_range=80.0, dmax=2),
        ):
            deployment.run(5.0)
            assert deployment.sim.now >= 5.0

    def test_large_scale_scenarios_build_and_run(self):
        # Shrunk sizes: the defaults (1000 / 600 nodes) are exercised by the
        # spatial-index benchmark, not the unit tests.
        for deployment in (
            scenario("large_manet_waypoint", 1, n=40, area=400.0, radio_range=80.0,
                     dmax=2),
            scenario("dense_highway_convoy", 1, n=30, road_length=600.0,
                     radio_range=100.0, dmax=2),
        ):
            # Uniform-radius radios run on the production CSR link state.
            assert deployment.network._link_state() is not None
            deployment.run(3.0)
            assert deployment.sim.now >= 3.0

    @pytest.mark.parametrize("name", ["large_manet_waypoint", "dense_highway_convoy",
                                      "city_scale", "city_scale_mobile"])
    def test_removed_spatial_index_parameter_is_rejected(self, name):
        # The neighbour engine follows the radio; a spec naming the removed
        # parameter fails like any unknown parameter instead of silently
        # running a path it did not ask for.
        with pytest.raises(ValueError, match="use_spatial_index"):
            scenario(name, 1, n=10, use_spatial_index=False)

    def test_deterministic_given_seed(self):
        a = scenario("static_random", 5, n=6, area=100.0, radio_range=40.0, dmax=2)
        b = scenario("static_random", 5, n=6, area=100.0, radio_range=40.0, dmax=2)
        a.run(15.0)
        b.run(15.0)
        assert a.views() == b.views()


class TestRunner:
    def test_run_with_sampler_produces_samples(self):
        deployment = scenario("static_random", 2, n=5, area=100.0, radio_range=60.0, dmax=2)
        sampler = run_with_sampler(deployment, duration=10.0, sample_interval=2.0)
        assert len(sampler.samples) >= 5
        assert sampler.last.time >= 10.0

    def test_attach_baseline_views_cover_all_nodes(self):
        deployment = scenario("static_random", 3, n=6, area=120.0, radio_range=60.0, dmax=2)
        driver = attach_baseline(deployment, LowestIdClustering(), period=1.0)
        deployment.run(3.0)
        views = driver.views()
        assert set(views) == set(deployment.nodes)

    def test_experiment_result_rendering(self):
        result = ExperimentResult("EX", "demo experiment")
        result.add_row(metric=1.0, ok=True)
        result.add_note("a note")
        text = result.to_text()
        assert "EX" in text and "a note" in text and "metric" in text


class TestSuiteAndCli:
    def test_registry_contains_eleven_experiments(self):
        assert len(ALL_EXPERIMENTS) == 11
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 12)}

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_cli_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_cli_unknown_experiment_returns_error_code(self, capsys):
        assert main(["E99"]) == 2

    def test_cli_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert not args.full
