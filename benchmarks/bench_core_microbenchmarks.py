"""Micro-benchmarks of the protocol hot paths.

These do not correspond to a paper experiment; they track the cost of the two
operations executed on every node at every timer expiration — the ``ant``
combination of the received lists and the full ``compute()`` procedure — and
of the per-node timer streams every node gets at start, so performance
regressions of the core data structures are caught early.

Six rows:

* ``ant_fold_us`` — one n-way fold ``v ant l1 ant … ant l8``
  (:meth:`AncestorList.ant_fold`) over eight neighbour lists;
* ``compute_us`` — one ``GRPNode.compute()`` of a fresh node holding eight
  freshly built messages (so the receiver-side work on each message is
  included);
* ``fold_vs_pairwise_speedup`` — the public pairwise chain
  ``singleton(v).ant(l1).ant(l2)…`` over the same lists divided by the fold;
  the two results are checked equal in the run.  Budget: >= 2x;
* ``build_us`` — one ``GRPMessage.build`` of the folded list with its
  priorities and view (wire fields encoded on demand, so not here);
* ``build_vs_eager_speedup`` — the eagerly encoded message (every wire field
  built up front, as a receiver in another process needs it) divided by
  ``build``; the two messages are checked equal and pickled to the same
  bytes in the run.  Budget: >= 3x;
* ``stream_batch_speedup`` — 1,000 node streams spawned as a node start
  without a reservation does (``Simulator.spawn_rng``: one root draw, then
  ``np.random.default_rng``) divided by the same streams from one
  ``Simulator.spawn_rngs`` batch; every stream state and the root's
  post-state are checked equal in the run.  Budget: >= 1.8x (a third of
  the 5.0-5.5x measured on a 2-core x86-64 VM, Python 3.11, numpy 2.4).

Run with ``PYTHONPATH=src python benchmarks/bench_core_microbenchmarks.py``;
``--quick`` takes fewer samples for CI smoke runs and ``--json PATH`` writes a
``bench-emit/v1`` envelope (see ``benchmarks/_emit.py``).  Exits non-zero when
a speedup misses its budget or a fast result disagrees with its reference.
"""

from __future__ import annotations

import argparse
import pickle
import statistics
import time
from typing import Callable, List

import _emit

from repro.core.ancestor_list import AncestorList
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig, GRPNode
from repro.sim.engine import Simulator

FANOUT = 8
SPEEDUP_BUDGET = 2.0
BUILD_SPEEDUP_BUDGET = 3.0
STREAMS = 1000
STREAM_SPEEDUP_BUDGET = 1.8


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


def message_state(folded: AncestorList):
    """Arguments of one send of ``v`` holding ``folded``: every listed node's
    priority and a view of the first two levels."""
    priorities = {node: index for index, node in enumerate(sorted(folded.nodes()))}
    view = frozenset(folded.level_nodes(0) | folded.level_nodes(1))
    return "v", folded, priorities, (0, "v"), view


def eager_build(sender, alist, priorities, group_priority, view) -> GRPMessage:
    """The message with every wire field encoded up front (the reference)."""
    prio = tuple(sorted(((node, int(value)) for node, value in priorities.items()),
                        key=lambda item: str(item[0])))
    return GRPMessage(sender, wire_list=alist.to_wire(), priorities=prio,
                      group_priority=group_priority, view=tuple(sorted(view, key=str)))


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


def stream_states(sim: Simulator, streams) -> List[object]:
    """Every stream's state, then the root's: what a node start leaves."""
    return ([rng.bit_generator.state for rng in streams]
            + [sim.rng.bit_generator.state])


def stream_spawn_ms(samples: int):
    """Median ms of ``STREAMS`` spawns, batched and one by one, and whether
    the two gave equal streams (interleaved, fresh simulators each sample)."""
    batched_ms, single_ms, equal = [], [], True
    for sample in range(samples):
        batched, single = Simulator(seed=sample), Simulator(seed=sample)
        t0 = time.perf_counter()
        batch = batched.spawn_rngs(STREAMS)
        t1 = time.perf_counter()
        one_by_one = [single.spawn_rng() for _ in range(STREAMS)]
        t2 = time.perf_counter()
        batched_ms.append((t1 - t0) * 1e3)
        single_ms.append((t2 - t1) * 1e3)
        equal = equal and (stream_states(batched, batch)
                           == stream_states(single, one_by_one))
    return statistics.median(batched_ms), statistics.median(single_ms), equal


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

    state = message_state(folded)
    built, eager = GRPMessage.build(*state), eager_build(*state)
    build_identical = built == eager and pickle.dumps(built) == pickle.dumps(eager)
    build_us, eager_us = [], []
    for _ in range(samples):
        build_us.append(mean_call_us(lambda: GRPMessage.build(*state), calls))
        eager_us.append(mean_call_us(lambda: eager_build(*state), calls))
    build_cost = statistics.median(build_us)
    build_speedup = statistics.median(eager_us) / build_cost

    batch_ms, single_ms, streams_equal = stream_spawn_ms(samples)
    stream_speedup = single_ms / batch_ms

    print(f"ant fold ({FANOUT} neighbours):      {ant_fold_us:9.2f} us")
    print(f"pairwise ant chain ({FANOUT} lists): {statistics.median(pairwise_us):9.2f} us")
    print(f"fold vs pairwise speedup:        {speedup:9.2f} x "
          f"(budget >= {SPEEDUP_BUDGET}x; results identical: {identical})")
    print(f"compute() with {FANOUT} messages:     {compute_cost:9.2f} us")
    print(f"message build ({folded.size()} ids):      {build_cost:9.2f} us")
    print(f"eagerly encoded message:         {statistics.median(eager_us):9.2f} us")
    print(f"build vs eager speedup:          {build_speedup:9.2f} x "
          f"(budget >= {BUILD_SPEEDUP_BUDGET}x; equal, same pickle: {build_identical})")
    print(f"{STREAMS} streams, one batch:        {batch_ms:9.2f} ms")
    print(f"{STREAMS} streams, one by one:       {single_ms:9.2f} ms")
    print(f"stream batch speedup:            {stream_speedup:9.2f} x "
          f"(budget >= {STREAM_SPEEDUP_BUDGET}x; states equal: {streams_equal})")

    if args.json:
        _emit.emit(args.json, bench="core", quick=args.quick, rows=[
            _emit.row("ant_fold_us", round(ant_fold_us, 3), "us", direction="max"),
            _emit.row("compute_us", round(compute_cost, 3), "us", direction="max"),
            _emit.row("fold_vs_pairwise_speedup", round(speedup, 3), "x",
                      budget=SPEEDUP_BUDGET),
            _emit.row("build_us", round(build_cost, 3), "us", direction="max"),
            _emit.row("build_vs_eager_speedup", round(build_speedup, 3), "x",
                      budget=BUILD_SPEEDUP_BUDGET),
            _emit.row("stream_batch_speedup", round(stream_speedup, 3), "x",
                      budget=STREAM_SPEEDUP_BUDGET),
        ], meta={"fanout": FANOUT, "calls": calls, "samples": samples,
                 "pairwise_us": round(statistics.median(pairwise_us), 3),
                 "fold_matches_pairwise": identical,
                 "eager_build_us": round(statistics.median(eager_us), 3),
                 "build_matches_eager": build_identical,
                 "streams": STREAMS,
                 "stream_batch_ms": round(batch_ms, 3),
                 "stream_single_ms": round(single_ms, 3),
                 "streams_match_single": streams_equal})

    status = 0
    if not identical:
        print("ERROR: the n-way fold disagrees with the pairwise ant chain")
        status = 1
    if not build_identical:
        print("ERROR: the built message differs from the eagerly encoded one")
        status = 1
    if not streams_equal:
        print("ERROR: the batched streams differ from the ones spawned one by one")
        status = 1
    if speedup < SPEEDUP_BUDGET:
        print("WARNING: n-way fold below its speedup budget over the pairwise chain")
        status = 1
    if build_speedup < BUILD_SPEEDUP_BUDGET:
        print("WARNING: message build below its speedup budget over eager encoding")
        status = 1
    if stream_speedup < STREAM_SPEEDUP_BUDGET:
        print("WARNING: batched streams below their speedup budget over single spawns")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
