"""Traffic-subsystem benchmark: application messages through the group layer.

Measures the end-to-end application-message path of :mod:`repro.traffic` —
generator timers → group-scoped injection → network broadcast (batched CSR
pipeline) → app-handler dispatch → delivery-ledger accounting —
over a dense mobile field with a static grid-cell group partition and no
protocol on top, so the timing isolates the traffic subsystem itself.

Two pipelines run the identical seeded workload:

* ``vectorized`` — the CSR receiver batches + batched channel decisions
  (the production path of a unit-disk radio);
* ``scan`` — the per-receiver brute-force scan (every other node is a
  candidate), reached through the test suite's
  ``reference_backends.reference_class`` (a unit disk that reports no
  ``max_range()``).

The ledgers of both runs must agree bit-exactly (sends, receptions, per-group
rows) — the benchmark asserts it, making every CI run a determinism check.

Run with ``PYTHONPATH=src python benchmarks/bench_traffic.py``; ``--quick``
shrinks the field for CI smoke runs and ``--json PATH`` writes a
``bench-emit/v1`` envelope (see ``benchmarks/_emit.py``; the legacy payload
rides in its ``meta`` key) for artifact tracking.  Full-mode target:
>= 50k delivered application messages per second on the 1000-node dense
field with the vectorized pipeline on.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import _emit

from repro.metrics.report import print_table
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.net.channel import LossyChannel
from repro.net.geometry import random_positions
from repro.net.network import Network
from repro.net.radio import UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.randomness import SeedSequenceFactory
from repro.traffic import TrafficDriver, TrafficSpec

# The brute-force baseline is the test suite's reference engine.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_backends import reference_class  # noqa: E402

RADIO_RANGE = 100.0


class AppHost(Process):
    """Receiver that runs no protocol (keeps protocol cost out of the timing)."""

    def on_message(self, sender, payload):
        pass


def grid_groups(positions: Dict, cell: float) -> Dict:
    """Static group partition: nodes sharing a grid cell form one group."""
    cells: Dict[Tuple[int, int], List] = {}
    for node, (x, y) in positions.items():
        cells.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(node)
    groups = {}
    for members in cells.values():
        group = frozenset(members)
        for node in members:
            groups[node] = group
    return groups


def build(n: int, area: float, seed: int, vectorized: bool) -> Tuple[Simulator, Network,
                                                                     Dict]:
    seeds = SeedSequenceFactory(seed)
    positions = random_positions(range(n), area=(area, area),
                                 rng=seeds.stream("placement"))
    sim = Simulator(seed=seeds.seed_for("simulator"))
    channel = LossyChannel(loss_probability=0.05, min_delay=0.001, max_delay=0.001,
                           rng=seeds.stream("channel"))
    mobility = RandomWaypointMobility((area, area), min_speed=5.0, max_speed=15.0,
                                      rng=seeds.stream("mobility"))
    radio_cls = UnitDiskRadio if vectorized else reference_class(UnitDiskRadio)
    network = Network(sim, radio=radio_cls(RADIO_RANGE), channel=channel,
                      mobility=mobility)
    for node, pos in positions.items():
        network.add_node(AppHost(node), pos)
    groups = grid_groups(positions, RADIO_RANGE)
    return sim, network, groups


def time_traffic(spec: TrafficSpec, n: int, area: float, duration: float,
                 vectorized: bool, seed: int = 17) -> Tuple[float, Dict[str, object]]:
    """(wall seconds, ledger fingerprint) for one seeded traffic run."""
    sim, network, groups = build(n, area, seed, vectorized)
    driver = TrafficDriver(sim=sim, network=network, processes=network.processes,
                           spec=spec, seed=seed, group_of=groups.__getitem__)
    network.start_mobility(1.0)
    driver.start()
    start = time.perf_counter()
    sim.run(until=duration)
    elapsed = time.perf_counter() - start
    ledger = driver.ledger
    fingerprint = {
        "sent": ledger.messages_sent,
        "receptions": ledger.receptions,
        "groups": ledger.group_rows(),
        "totals": ledger.totals(duration),
    }
    return elapsed, fingerprint


def traffic_rows(n: int, area: float, duration: float,
                 repeats: int) -> List[Dict[str, object]]:
    workloads = [
        ("periodic_beacon", TrafficSpec.create("periodic_beacon", interval=0.2)),
        ("bursty_pubsub", TrafficSpec.create("bursty_pubsub", mean_gap=1.0,
                                             burst_size=16)),
        ("request_reply", TrafficSpec.create("request_reply", interval=0.5)),
    ]
    rows = []
    for name, spec in workloads:
        best = {"vectorized": float("inf"), "scan": float("inf")}
        fingerprints: Dict[str, Dict[str, object]] = {}
        # Interleave the two pipelines within each repeat so transient
        # machine load penalizes both sides equally.
        for _ in range(repeats):
            for label, vectorized in (("vectorized", True), ("scan", False)):
                elapsed, fingerprint = time_traffic(spec, n, area, duration,
                                                    vectorized)
                best[label] = min(best[label], elapsed)
                fingerprints[label] = fingerprint
        # The two pipelines must be *the same workload*, not merely similar.
        assert fingerprints["vectorized"] == fingerprints["scan"], (
            f"{name}: ledger diverged between delivery pipelines")
        delivered = fingerprints["vectorized"]["receptions"]
        rows.append({
            "workload": name,
            "nodes": n,
            "app messages": delivered,
            "vectorized msg/s": round(delivered / best["vectorized"]),
            "scan msg/s": round(delivered / best["scan"]),
            "speedup": round(best["scan"] / best["vectorized"], 2),
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small field for CI smoke runs")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the result rows as JSON")
    args = parser.parse_args()

    if args.quick:
        n, area, duration, repeats, target = 250, 500.0, 1.0, 1, 20_000
    else:
        n, area, duration, repeats, target = 1000, 1000.0, 2.0, 3, 50_000

    rows = traffic_rows(n, area, duration, repeats)
    print_table(rows, title="application-message throughput: traffic subsystem "
                            "over the vectorized delivery pipeline vs the "
                            "brute-force scan")

    headline = max(row["vectorized msg/s"] for row in rows)
    print(f"\nheadline application throughput: {headline} msg/s "
          f"(target >= {target} msg/s, {'quick' if args.quick else 'full'} mode)")

    if args.json:
        emit_rows = [_emit.row("app_throughput", headline, "msg/s",
                               budget=target)]
        emit_rows += [_emit.row(f"app_throughput_{r['workload']}",
                                r["vectorized msg/s"], "msg/s") for r in rows]
        # Legacy payload in meta: pre-v1 consumers keep parsing after a
        # one-key hop (perf_trajectory.py reads both shapes).
        _emit.emit(args.json, bench="traffic", quick=args.quick,
                   rows=emit_rows,
                   meta={
                       "nodes": n,
                       "rows": rows,
                       "headline_app_msgs_per_s": headline,
                       "target_app_msgs_per_s": target,
                   })

    if headline < target:
        print("WARNING: traffic subsystem below target application throughput")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
