"""Self-test of the end-to-end benchmark on shrunken worlds (a few seconds).

Runs every workload once untraced and once traced, the sharded one on two
spawned workers, and checks what the benchmark promises: every metric
``BENCHMARK.json`` names is emitted with its unit, tracing does not change
the output digest, the layer self times cover the traced wall time, and a
removed entry point reads ``null`` instead of failing the run.
"""

from __future__ import annotations

import pytest

import bench_e2e
import compare
from bench_e2e import WORKLOADS, contract_line, load_json, measure

SPEC = load_json(bench_e2e.BENCHMARK_FILE)


@pytest.fixture(scope="module")
def runs():
    results = {}
    try:
        with bench_e2e.local_tempdir():
            for name, workload in WORKLOADS.items():
                tiny = workload.shrunk()
                results[name] = (measure(tiny, 1, 0.0, False), measure(tiny, 1, 0.0, True))
    finally:
        bench_e2e.stop_resource_tracker()
    return results


def test_workloads_match_benchmark_file():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


def test_reference_digests_cover_every_world():
    references = load_json(bench_e2e.REFERENCE_FILE)
    assert set(references) == set(WORKLOADS)
    for name, per_seed in references.items():
        assert {len(digests) for digests in per_seed.values()} == {WORKLOADS[name].worlds}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(runs, name):
    for m, key in zip(runs[name], ("end_to_end", "per_layer")):
        assert m.correct, m.problems
        line = contract_line(m, SPEC)
        assert set(line["metrics"]) == {entry["name"] for entry in SPEC[key]}
        for entry in SPEC[key]:
            emitted = line["metrics"][entry["name"]]
            assert emitted["unit"] == entry["unit"]
            assert isinstance(emitted["value"], (int, float)), entry["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_only_observes(runs, name):
    untraced, traced = runs[name]
    assert None not in untraced.digests
    assert traced.digests[0] == untraced.digests[0]
    assert traced.metrics["bench.layer_sum_frac"] >= 0.98


def test_removed_entry_point_reads_null(monkeypatch):
    from repro.net.network import Network

    monkeypatch.delattr(Network, "topology")
    m = measure(WORKLOADS["manet_dense"].shrunk(), 1, 0.0, True)
    assert m.correct, m.problems
    assert m.metrics["net.topology_calls"] is None
    assert m.metrics["net.topology_self_s"] is None
    assert m.metrics["core.compute_calls"] > 0
    assert contract_line(m, SPEC)["metrics"]["net.topology_calls"]["value"] is None


@pytest.mark.parametrize("base, new, expected", [
    ([10.0, 10.1, 10.2], [10.0, 10.1, 10.3], "unchanged"),
    ([10.0, 10.1, 10.2], [13.0, 13.1, 13.2], "worse"),
    ([10.0, 10.1, 10.2], [7.0, 7.1, 7.2], "better"),
    ([5.0, 10.0, 15.0], [6.0, 11.0, 16.0], "unresolved"),
    ([5.0, 10.0, 15.0], [16.0, 17.0, 18.0], "worse"),
])
def test_compare_verdicts(base, new, expected):
    assert compare.verdict(base, new, 0.2, "lower") == expected
