"""Integration tests: full GRP deployments on the simulated wireless network.

These are the executable counterparts of the paper's propositions on small
(hence fast) topologies; the full-scale versions live in the benchmark harness.
"""


from repro.core.node import GRPConfig
from repro.core.predicates import agreement, legitimate, safety
from repro.core.protocol import build_grp_network
from repro.experiments.runner import run_with_sampler
from repro.metrics.continuity import continuity_summary
from repro.metrics.convergence import stabilization_time
from repro.metrics.groups import max_group_diameter
from repro.net.geometry import line_positions
from repro.scenarios import ScenarioSpec, build


def scenario(name, seed, **params):
    """Build the registered scenario ``name`` with explicit ``params``."""
    return build(ScenarioSpec.create(name, **params), seed=seed)


class TestTwoNodes:
    def test_pair_forms_a_group(self):
        deployment = build_grp_network({0: (0, 0), 1: (30, 0)}, GRPConfig(dmax=2),
                                       radio_range=50, seed=1)
        deployment.run(20.0)
        views = deployment.views()
        assert views[0] == views[1] == frozenset({0, 1})
        assert legitimate(views, deployment.link_snapshot(), 2)

    def test_out_of_range_nodes_stay_singletons(self):
        deployment = build_grp_network({0: (0, 0), 1: (500, 0)}, GRPConfig(dmax=2),
                                       radio_range=50, seed=1)
        deployment.run(20.0)
        views = deployment.views()
        assert views[0] == frozenset({0})
        assert views[1] == frozenset({1})


class TestChainTopologies:
    def test_three_node_chain_dmax_one_splits(self):
        deployment = scenario("line_topology", 7, n=3, spacing=40.0, radio_range=50.0, dmax=1)
        sampler = run_with_sampler(deployment, duration=40.0)
        final = sampler.last
        assert final.report.legitimate
        sizes = sorted(len(g) for g in set(final.groups.values()))
        assert sizes == [1, 2]

    def test_chain_of_five_respects_dmax(self):
        deployment = scenario("line_topology", 3, n=5, spacing=40.0, radio_range=50.0, dmax=2)
        sampler = run_with_sampler(deployment, duration=60.0)
        final = sampler.last
        assert final.report.legitimate
        assert max_group_diameter([final]) <= 2

    def test_whole_chain_groups_when_dmax_large_enough(self):
        deployment = scenario("line_topology", 5, n=4, spacing=40.0, radio_range=50.0, dmax=3)
        deployment.run(50.0)
        views = deployment.views()
        assert legitimate(views, deployment.link_snapshot(), 3)
        assert views[0] == frozenset({0, 1, 2, 3})


class TestSelfStabilization:
    def test_random_graph_reaches_legitimate_configuration(self):
        deployment = scenario("static_random", 11, n=10, area=220.0, radio_range=100.0, dmax=3)
        sampler = run_with_sampler(deployment, duration=70.0)
        assert stabilization_time(sampler.samples) is not None
        final = sampler.last
        assert final.report.legitimate

    def test_group_diameter_never_exceeds_dmax_after_convergence(self):
        deployment = scenario("static_random", 13, n=10, area=220.0, radio_range=100.0, dmax=2)
        sampler = run_with_sampler(deployment, duration=60.0, warmup=40.0)
        assert max_group_diameter(sampler.samples) <= 2

    def test_recovery_after_memory_corruption(self):
        from repro.net.faults import FaultInjector
        deployment = scenario("static_random", 17, n=8, area=200.0, radio_range=100.0, dmax=2)
        deployment.run(40.0)
        injector = FaultInjector(deployment.network, rng=deployment.sim.spawn_rng())
        injector.random_memory_corruption(fraction=0.5, ghost_pool=["ghost-a", "ghost-b"])
        deployment.run(60.0)
        views = deployment.views()
        links = deployment.link_snapshot()
        assert not any(node.alist.contains("ghost-a") or node.alist.contains("ghost-b")
                       for node in deployment.nodes.values())
        assert agreement(views) and safety(views, links, 2)


class TestMergingAndContinuity:
    def test_two_clusters_merge_when_brought_into_range(self):
        deployment = scenario("two_cluster_topology", 19, cluster_size=2, gap=400.0,
                              spacing=30.0, radio_range=60.0, dmax=3)
        left = deployment.scenario_metadata["left"]
        right = deployment.scenario_metadata["right"]
        deployment.run(30.0)
        views = deployment.views()
        assert views[left[0]] == frozenset(left)
        assert views[right[0]] == frozenset(right)
        # Teleport the right cluster next to the left one.
        shift = 400.0 - 60.0
        new_positions = {node: (pos[0] - shift, pos[1])
                         for node, pos in deployment.network.positions.items()
                         if node in right}
        deployment.network.set_positions(new_positions)
        deployment.run(40.0)
        views = deployment.views()
        assert views[left[0]] == frozenset(left + right)
        assert legitimate(views, deployment.link_snapshot(), 3)

    def test_no_member_lost_on_static_topology_after_formation(self):
        deployment = scenario("static_random", 23, n=10, area=220.0, radio_range=100.0, dmax=3)
        sampler = run_with_sampler(deployment, duration=60.0, warmup=20.0)
        summary = continuity_summary(sampler.transitions)
        assert summary.violations_under_topological == 0

    def test_group_splits_when_member_moves_too_far(self):
        deployment = build_grp_network(line_positions(range(3), spacing=40.0),
                                       GRPConfig(dmax=2), radio_range=50.0, seed=29)
        deployment.run(40.0)
        assert deployment.views()[0] == frozenset({0, 1, 2})
        # Node 2 drives away: the group must shrink back to {0, 1}.
        deployment.network.set_position(2, (1000.0, 0.0))
        deployment.run(40.0)
        views = deployment.views()
        assert views[0] == frozenset({0, 1})
        assert views[2] == frozenset({2})
        assert legitimate(views, deployment.link_snapshot(), 2)


class TestChurn:
    def test_node_reappearing_rejoins_its_group(self):
        deployment = build_grp_network(line_positions(range(3), spacing=30.0),
                                       GRPConfig(dmax=2), radio_range=40.0, seed=31)
        deployment.run(40.0)
        assert deployment.views()[1] == frozenset({0, 1, 2})
        deployment.network.deactivate_node(2)
        deployment.run(30.0)
        assert 2 not in deployment.views()
        assert deployment.views()[0] == frozenset({0, 1})
        deployment.network.activate_node(2)
        deployment.run(40.0)
        views = deployment.views()
        assert views[2] == frozenset({0, 1, 2})
        assert legitimate(views, deployment.link_snapshot(), 2)


class TestLossyChannel:
    def test_convergence_with_moderate_message_loss(self):
        deployment = scenario("static_random", 37, n=8, area=200.0, radio_range=100.0,
                              dmax=3, loss_probability=0.2)
        deployment.run(80.0)
        views = deployment.views()
        links = deployment.link_snapshot()
        assert agreement(views)
        assert safety(views, links, 3)
