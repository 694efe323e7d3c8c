"""Delivery-pipeline benchmark: CSR batched vs brute-force scan broadcast path.

Two measurements over the raw network substrate (no protocol on top):

* **Broadcast-step throughput** — every node broadcasts into no-op receivers
  over a churning 1000-node dense field (mobility steps interleaved with
  hello-beacon rounds, the regime that dominates the paper's experiments).
  The vectorized pipeline serves receiver lists from the CSR link state,
  decides whole batches through ``decide_batch`` and bulk-schedules delayed
  deliveries; the baseline is the per-receiver brute-force scan (every
  other node is a candidate), reached through the test suite's
  ``reference_backends.reference_class`` (a unit disk that reports no
  ``max_range()``).  Both paths replay seeded
  runs bit-identically — the benchmark asserts identical delivery counters.
* **Topology refresh under mobility** — per mobility step, move a mobile
  subset of the field and re-read the neighbourhoods of the movers (what a
  protocol reacting to mobility inspects).  The CSR link state patches only
  the movers' links; the baseline (the same scan radio) recomputes the
  snapshot by testing every pair of nodes.
  A full-sweep row (query *every* node) and an all-mobile row are included
  for transparency — when every node moves every step, patching every link
  from both endpoints approaches the cost of one rebuild and the incremental
  advantage fades; the win lives exactly where the ISSUE/ROADMAP motivate it
  (most links stable between steps).

A third table scales the CSR path alone to a 10,000-node field at the
same density (the scan path is O(n) per broadcast and would take minutes
there): the row must finish inside a wall-clock budget of about ten times
its measured time (5 s quick, 7 s full).

Run with ``PYTHONPATH=src python benchmarks/bench_delivery.py``; ``--quick``
shrinks the scenarios for CI smoke runs, ``--json PATH`` writes a
``bench-emit/v1`` envelope (see ``benchmarks/_emit.py``; the legacy payload
rides in its ``meta`` key) for artifact tracking.  Each floor is about one third of the
measured ratio (lowest of five quick runs; one full run on a 2-core VM), so
a real slowdown of the CSR path fails it.  Full-mode targets: >= 9.4x
broadcast-step throughput on the lossy dense mobile field, >= 18x topology
refresh with the 10% mobile subset, and the 10k-node row under budget.
Quick-mode targets: >= 3.3x and >= 4.6x.
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
from repro.net.channel import LossyChannel, PerfectChannel
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
                  vectorized: bool, channel_kind: str) -> Tuple[Simulator, Network,
                                                                RandomWaypointMobility]:
    seeds = SeedSequenceFactory(seed)
    positions = random_positions(range(n), area=(area, area), rng=seeds.stream("placement"))
    sim = Simulator(seed=seed)
    if channel_kind == "lossy":
        channel = LossyChannel(loss_probability=0.05, rng=seeds.stream("channel"))
    elif channel_kind == "delayed":
        channel = LossyChannel(min_delay=0.01, max_delay=0.05,
                               rng=seeds.stream("channel"))
    else:
        channel = PerfectChannel()
    radio_cls = UnitDiskRadio if vectorized else reference_class(UnitDiskRadio)
    network = Network(sim, radio=radio_cls(radio_range), channel=channel)
    for node, pos in positions.items():
        network.add_node(NullProcess(node), pos)
    mobility = RandomWaypointMobility((area, area), min_speed=5.0, max_speed=15.0,
                                      rng=seeds.stream("mobility"))
    return sim, network, mobility


# ------------------------------------------------------------------ broadcast

def time_broadcast_steps(vectorized: bool, channel_kind: str, n: int, area: float,
                         steps: int, rounds_per_step: int,
                         seed: int = 7) -> Tuple[float, int]:
    """(broadcasts/second, messages_delivered) over a churning field.

    One "step" = one mobility step followed by ``rounds_per_step`` hello
    rounds (every node broadcasts once per round); delayed deliveries are
    drained through the simulator after each step.
    """
    sim, network, mobility = build_network(n, area, 100.0, seed, vectorized,
                                           channel_kind)
    nodes = network.node_ids
    count = 0
    start = time.perf_counter()
    for _ in range(steps):
        network.set_positions(mobility.step(network.positions, 1.0))
        for _ in range(rounds_per_step):
            for sender in nodes:
                network.broadcast(sender, hello)
                count += 1
        sim.run()
    elapsed = time.perf_counter() - start
    return count / elapsed if elapsed > 0 else float("inf"), network.messages_delivered


def broadcast_rows(n: int, area: float, steps: int, rounds_per_step: int,
                   repeats: int) -> List[Dict[str, object]]:
    rows = []
    for kind in ("lossy", "perfect", "delayed"):
        best = {"vectorized": 0.0, "scan": 0.0}
        delivered: Dict[str, int] = {}
        # Interleave the two pipelines within each repeat so transient
        # machine load penalizes both sides equally.
        for _ in range(repeats):
            for label, vectorized in (("vectorized", True), ("scan", False)):
                rate, count = time_broadcast_steps(
                    vectorized, kind, n, area, steps, rounds_per_step)
                best[label] = max(best[label], rate)
                delivered[label] = count
        # The two paths must be *the same simulation*, not merely similar.
        assert delivered["vectorized"] == delivered["scan"], (
            f"{kind}: delivery diverged between pipelines "
            f"({delivered['vectorized']} != {delivered['scan']})")
        rows.append({
            "scenario": f"dense mobile field / {kind}",
            "nodes": n,
            "vectorized bcast/s": round(best["vectorized"]),
            "scan bcast/s": round(best["scan"]),
            "speedup": round(best["vectorized"] / best["scan"], 2),
        })
    return rows


# -------------------------------------------------------------------- refresh

def time_refresh_steps(vectorized: bool, n: int, area: float, movers: int,
                       steps: int, query: str, seed: int = 11) -> Tuple[float, int]:
    """(mobility steps/second, total neighbour count) for one refresh regime.

    ``query`` selects the per-step read load: ``"movers"`` re-reads the
    neighbourhoods of the nodes that moved, ``"all"`` sweeps every node.
    """
    sim, network, mobility = build_network(n, area, 100.0, seed, vectorized,
                                           "perfect")
    mobile = list(range(movers))
    network.topology()
    network.neighbors_of(0)  # warm both pipelines
    queried = mobile if query == "movers" else network.node_ids
    total = 0
    start = time.perf_counter()
    for _ in range(steps):
        subset = {m: network.position_of(m) for m in mobile}
        network.set_positions(mobility.step(subset, 1.0))
        for node in queried:
            total += len(network.neighbors_of(node))
    elapsed = time.perf_counter() - start
    return steps / elapsed if elapsed > 0 else float("inf"), total


def refresh_rows(n: int, area: float, steps: int,
                 repeats: int) -> List[Dict[str, object]]:
    regimes = [
        ("10% mobile, read movers", max(1, n // 10), "movers"),
        ("10% mobile, read all", max(1, n // 10), "all"),
        ("all mobile, read all", n, "all"),
    ]
    rows = []
    for name, movers, query in regimes:
        best = {"incremental": 0.0, "rebuild": 0.0}
        totals: Dict[str, int] = {}
        for _ in range(repeats):
            for label, vectorized in (("incremental", True), ("rebuild", False)):
                rate, total = time_refresh_steps(
                    vectorized, n, area, movers, steps, query)
                best[label] = max(best[label], rate)
                totals[label] = total
        assert totals["incremental"] == totals["rebuild"], (
            f"{name}: neighbour sets diverged between pipelines")
        rows.append({
            "scenario": name,
            "nodes": n,
            "incremental steps/s": round(best["incremental"], 1),
            "rebuild steps/s": round(best["rebuild"], 1),
            "speedup": round(best["incremental"] / best["rebuild"], 2),
        })
    return rows


# ---------------------------------------------------------------- scale (10k)

def scale_row(n: int, steps: int, rounds_per_step: int,
              budget_s: float) -> Dict[str, object]:
    """One CSR-path row at large ``n``, same density as the 1000-node field.

    The per-receiver scan is O(n) per broadcast, so no scan baseline is run
    here (it would take minutes at 10k nodes — which is the point).  The row
    reports wall time against ``budget_s`` instead of a speedup.
    """
    area = 1000.0 * math.sqrt(n / 1000.0)  # constant density: ~31 neighbours
    start = time.perf_counter()
    rate, delivered = time_broadcast_steps(True, "lossy", n, area, steps,
                                           rounds_per_step)
    wall = time.perf_counter() - start
    return {
        "scenario": "dense mobile field / lossy (array backend)",
        "nodes": n,
        "broadcasts": n * steps * rounds_per_step,
        "delivered": delivered,
        "bcast/s": round(rate),
        "wall_s": round(wall, 2),
        "budget_s": budget_s,
    }


# ----------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the result rows as JSON")
    parser.add_argument("--no-scale", action="store_true",
                        help="skip the 10,000-node array-backend row")
    args = parser.parse_args()

    if args.quick:
        n, area, steps, rounds, refresh_steps, repeats = 250, 500.0, 2, 2, 4, 1
        bcast_target, refresh_target = 3.3, 4.6
        scale_steps, scale_rounds, scale_budget = 1, 1, 5.0
    else:
        n, area, steps, rounds, refresh_steps, repeats = 1000, 1000.0, 3, 3, 10, 3
        bcast_target, refresh_target = 9.4, 18.0
        scale_steps, scale_rounds, scale_budget = 2, 2, 7.0

    bcast = broadcast_rows(n, area, steps, rounds, repeats)
    print_table(bcast, title="broadcast-step throughput: CSR batched pipeline "
                             "vs per-receiver brute-force scan")
    refresh = refresh_rows(n, area, refresh_steps, repeats)
    print_table(refresh, title="topology refresh under mobility: incremental "
                               "CSR link state vs brute-force recompute")
    scale = None
    if not args.no_scale:
        scale = scale_row(10_000, scale_steps, scale_rounds, scale_budget)
        print_table([scale], title="scale: 10,000-node dense mobile field "
                                   "(array backend, no scan baseline)")

    bcast_headline = bcast[0]["speedup"]       # lossy dense mobile field
    refresh_headline = refresh[0]["speedup"]   # 10% mobile, read movers
    print(f"\nheadline broadcast speedup: {bcast_headline}x "
          f"(target >= {bcast_target}x)")
    print(f"headline refresh speedup: {refresh_headline}x "
          f"(target >= {refresh_target}x)")
    if scale is not None:
        print(f"10k-node row: {scale['wall_s']}s wall "
              f"(budget {scale['budget_s']}s)")

    if args.json:
        rows = [
            _emit.row("broadcast_speedup_lossy", bcast_headline, "x",
                      budget=bcast_target),
            _emit.row("refresh_speedup_10pct_movers", refresh_headline, "x",
                      budget=refresh_target),
        ]
        rows += [_emit.row(f"broadcast_per_s_{r['scenario'].split('/ ')[-1]}",
                           r["vectorized bcast/s"], "bcast/s") for r in bcast]
        if scale is not None:
            rows.append(_emit.row("scale_10k_wall", scale["wall_s"], "s",
                                  budget=scale["budget_s"], direction="max"))
            rows.append(_emit.row("scale_10k_broadcast_per_s",
                                  scale["bcast/s"], "bcast/s"))
        # The legacy payload rides in meta so pre-v1 consumers keep parsing
        # (perf_trajectory.py reads both shapes).
        _emit.emit(args.json, bench="delivery", quick=args.quick, rows=rows,
                   meta={
                       "broadcast": bcast,
                       "refresh": refresh,
                       "scale": scale,
                       "headline_broadcast_speedup": bcast_headline,
                       "headline_refresh_speedup": refresh_headline,
                   })

    status = 0
    if bcast_headline < bcast_target:
        print("WARNING: vectorized broadcast pipeline below target speedup")
        status = 1
    if refresh_headline < refresh_target:
        print("WARNING: incremental link-state refresh below target speedup")
        status = 1
    if scale is not None and scale["wall_s"] > scale["budget_s"]:
        print("WARNING: 10k-node row exceeded its wall-clock budget")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
