"""Micro-benchmarks of the protocol hot paths.

These do not correspond to a paper experiment; they track the cost of the two
operations executed on every node at every timer expiration — the ``ant``
combination of the received lists and the full ``compute()`` procedure — so
performance regressions of the core data structures are caught early.

Three rows:

* ``ant_fold_us`` — one n-way fold ``v ant l1 ant … ant l8``
  (:meth:`AncestorList.ant_fold`) over eight neighbour lists;
* ``compute_us`` — one ``GRPNode.compute()`` of a fresh node holding eight
  freshly built messages (so the decode of each message is included);
* ``fold_vs_pairwise_speedup`` — the public pairwise chain
  ``singleton(v).ant(l1).ant(l2)…`` over the same lists divided by the fold;
  the two results are checked equal in the run.  Budget: >= 2x.

Run with ``PYTHONPATH=src python benchmarks/bench_core_microbenchmarks.py``;
``--quick`` takes fewer samples for CI smoke runs and ``--json PATH`` writes a
``bench-emit/v1`` envelope (see ``benchmarks/_emit.py``).  Exits non-zero when
the fold misses its speedup budget or disagrees with the pairwise chain.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Callable, List

import _emit

from repro.core.ancestor_list import AncestorList
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig, GRPNode

FANOUT = 8
SPEEDUP_BUDGET = 2.0


def build_neighbour_lists(fanout: int = FANOUT, depth: int = 4) -> List[AncestorList]:
    """Lists of ``fanout`` neighbours of ``v``: each sees ``v`` one hop away,
    its two ring neighbours two hops away and a private subtree below."""
    lists = []
    for neighbour in range(fanout):
        ring = {f"n{(neighbour - 1) % fanout}", f"n{(neighbour + 1) % fanout}"}
        levels = [{f"n{neighbour}"}, {"v"} | ring]
        for level in range(depth - 2):
            levels.append({f"n{neighbour}-{level}-{k}" for k in range(3)})
        lists.append(AncestorList.from_levels(levels))
    return lists


def pairwise(lists: List[AncestorList]) -> AncestorList:
    result = AncestorList.singleton("v")
    for lst in lists:
        result = result.ant(lst)
    return result


def fold(lists: List[AncestorList]) -> AncestorList:
    return AncestorList.singleton("v").ant_fold(lists)


def loaded_node(config: GRPConfig, lists: List[AncestorList]) -> GRPNode:
    """A fresh node ``v`` that has received one new message per list."""
    node = GRPNode("v", config)
    for lst in lists:
        sender = next(iter(lst.level_nodes(0)))
        node.on_message(sender, GRPMessage.build(sender, lst, priorities={sender: 0}))
    return node


def compute_us(config: GRPConfig, lists: List[AncestorList], calls: int,
               samples: int) -> float:
    """Median over ``samples`` of the mean ``compute()`` time of ``calls`` nodes."""
    times = []
    for _ in range(samples):
        nodes = [loaded_node(config, lists) for _ in range(calls)]
        t0 = time.perf_counter()
        for node in nodes:
            node.compute()
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def mean_call_us(func: Callable[[], object], calls: int) -> float:
    """Mean time of ``calls`` back-to-back calls, in microseconds."""
    t0 = time.perf_counter()
    for _ in range(calls):
        func()
    return (time.perf_counter() - t0) / calls * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer samples for CI smoke runs")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the result rows as JSON")
    args = parser.parse_args()
    calls, samples = (200, 5) if args.quick else (1000, 15)

    lists = build_neighbour_lists()
    folded, chained = fold(lists), pairwise(lists)
    identical = folded.to_wire() == chained.to_wire() and folded.levels == chained.levels
    config = GRPConfig(dmax=4)

    # Interleave the two sides so a host slowdown hits both alike.
    fold_us, pairwise_us = [], []
    for _ in range(samples):
        fold_us.append(mean_call_us(lambda: fold(lists), calls))
        pairwise_us.append(mean_call_us(lambda: pairwise(lists), calls))
    ant_fold_us = statistics.median(fold_us)
    speedup = statistics.median(pairwise_us) / ant_fold_us
    compute_cost = compute_us(config, lists, calls // 4, samples)

    print(f"ant fold ({FANOUT} neighbours):      {ant_fold_us:9.2f} us")
    print(f"pairwise ant chain ({FANOUT} lists): {statistics.median(pairwise_us):9.2f} us")
    print(f"fold vs pairwise speedup:        {speedup:9.2f} x "
          f"(budget >= {SPEEDUP_BUDGET}x; results identical: {identical})")
    print(f"compute() with {FANOUT} messages:     {compute_cost:9.2f} us")

    if args.json:
        _emit.emit(args.json, bench="core", quick=args.quick, rows=[
            _emit.row("ant_fold_us", round(ant_fold_us, 3), "us", direction="max"),
            _emit.row("compute_us", round(compute_cost, 3), "us", direction="max"),
            _emit.row("fold_vs_pairwise_speedup", round(speedup, 3), "x",
                      budget=SPEEDUP_BUDGET),
        ], meta={"fanout": FANOUT, "calls": calls, "samples": samples,
                 "pairwise_us": round(statistics.median(pairwise_us), 3),
                 "fold_matches_pairwise": identical})

    if not identical:
        print("ERROR: the n-way fold disagrees with the pairwise ant chain")
        return 1
    if speedup < SPEEDUP_BUDGET:
        print("WARNING: n-way fold below its speedup budget over the pairwise chain")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
