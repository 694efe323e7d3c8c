"""Broadcast-path benchmark: CSR link state vs brute-force neighbour scans.

Measures the raw network substrate (no protocol on top): every node broadcasts
a dummy payload into a no-op process, so the timing isolates the neighbour
query + channel decision path that the CSR link state accelerates.  A second
table times full topology-snapshot rebuilds (cache deliberately invalidated
before each rebuild) and snapshot reads served from the generation-stamped
cache, both through ``Network.link_snapshot()``.

Run with ``PYTHONPATH=src python benchmarks/bench_spatial_index.py``;
``--quick`` shrinks the scenario for CI smoke runs.  The dense-field row is
the acceptance scenario: the indexed broadcast path must be >= 15.7x faster
than brute force at 1000 nodes (>= 4.4x in quick mode), about one third of
the measured ratio, so a real slowdown of the CSR path fails it.  The
"indexed" side is the production path (a unit disk is served from the CSR
link state); the brute side runs the unit disk subclass from the test
suite's ``reference_backends.reference_class``, which reports no
``max_range()`` and so selects the brute-force scan.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import _emit

from repro.metrics.report import print_table
from repro.net.geometry import random_positions
from repro.net.network import Network
from repro.net.radio import UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.randomness import SeedSequenceFactory

# The brute-force baseline is the test suite's reference engine.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_backends import reference_class  # noqa: E402


class NullProcess(Process):
    """Receiver that does nothing (keeps protocol cost out of the timing)."""

    def on_message(self, sender, payload):
        pass


def hello() -> str:
    """Payload source of every timed broadcast."""
    return "x"


def build_network(n: int, area: float, radio_range: float, seed: int,
                  indexed: bool) -> Tuple[Simulator, Network]:
    seeds = SeedSequenceFactory(seed)
    positions = random_positions(range(n), area=(area, area), rng=seeds.stream("placement"))
    sim = Simulator(seed=seed)
    radio_cls = UnitDiskRadio if indexed else reference_class(UnitDiskRadio)
    network = Network(sim, radio=radio_cls(radio_range))
    for node, pos in positions.items():
        network.add_node(NullProcess(node), pos)
    return sim, network


def time_broadcasts(network: Network, rounds: int) -> Tuple[float, int]:
    """Seconds and broadcast count for ``rounds`` all-node broadcast sweeps."""
    nodes = network.node_ids
    count = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for sender in nodes:
            network.broadcast(sender, hello)
            count += 1
    return time.perf_counter() - start, count


def time_snapshots(network: Network, iterations: int) -> Tuple[float, float]:
    """(cold, warm) seconds per link snapshot.

    Cold rebuilds invalidate the cache first; warm reads hit the
    generation-stamped cache and return the cached immutable snapshot.
    Neither side exports a networkx graph, so the columns time the snapshot
    build and the cache, not the export.
    """
    start = time.perf_counter()
    for _ in range(iterations):
        network.invalidate_topology()
        network.link_snapshot()
    cold = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        network.link_snapshot()
    warm = (time.perf_counter() - start) / iterations
    return cold, warm


def run_scenario(name: str, n: int, area: float, radio_range: float,
                 rounds: int, snapshot_iterations: int, seed: int = 7) -> Dict[str, object]:
    row: Dict[str, object] = {"scenario": name, "nodes": n}
    rates = {}
    for label, use_index in (("indexed", True), ("brute", False)):
        sim, network = build_network(n, area, radio_range, seed, use_index)
        elapsed, count = time_broadcasts(network, rounds)
        delivered = network.messages_delivered
        rates[label] = count / elapsed if elapsed > 0 else float("inf")
        row[f"{label} bcast/s"] = round(rates[label])
        cold, warm = time_snapshots(network, snapshot_iterations)
        row[f"{label} snap ms"] = round(cold * 1e3, 2)
        if label == "indexed":
            row["warm snap ms"] = round(warm * 1e3, 3)
            row["avg degree"] = round(delivered / count, 1)
    row["speedup"] = round(rates["indexed"] / rates["brute"], 1)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--rounds", type=int, default=None,
                        help="all-node broadcast sweeps per scenario")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write a bench-emit/v1 envelope "
                             "(see benchmarks/_emit.py)")
    args = parser.parse_args()

    if args.quick:
        rounds = args.rounds or 2
        scenarios = [
            ("dense field (quick)", 250, 800.0, 100.0, rounds, 5),
            ("sparse field (quick)", 250, 2000.0, 100.0, rounds, 5),
        ]
    else:
        rounds = args.rounds or 3
        scenarios = [
            ("dense field", 1000, 1000.0, 100.0, rounds, 5),
            ("dense convoy", 1000, 400.0, 60.0, rounds, 5),
            ("sparse field", 1000, 5000.0, 100.0, rounds, 5),
        ]

    rows = [run_scenario(name, n, area, r, rnds, snaps)
            for name, n, area, r, rnds, snaps in scenarios]
    print_table(rows, title="CSR link state (indexed) vs brute force "
                            "(broadcast path + snapshots)")
    headline = rows[0]["speedup"]
    target = 4.4 if args.quick else 15.7
    print(f"\nheadline broadcast speedup: {headline}x (target >= {target}x)")

    if args.json:
        emit_rows = [_emit.row("index_speedup_dense", headline, "x",
                               budget=target)]
        emit_rows += [_emit.row(f"indexed_broadcast_per_s_{r['scenario']}",
                                r["indexed bcast/s"], "bcast/s") for r in rows]
        _emit.emit(args.json, bench="spatial_index", quick=args.quick,
                   rows=emit_rows, meta={"rows": rows})

    if headline < target:
        print("WARNING: CSR broadcast path below target speedup")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
