#!/usr/bin/env python
"""Self-stabilization demo: transient memory corruption and recovery.

The protocol is self-stabilizing: whatever the initial (or corrupted) state,
it converges back to a legitimate configuration.  This example lets a static
network stabilize, then corrupts half of the nodes — ghost identities inserted
into their lists, oversized lists, scrambled quarantines, wrong priorities —
and reports how long the system takes to clean up and re-stabilize.

Run with::

    python examples/fault_recovery.py

``REPRO_QUICK=1`` shrinks the simulated durations (used by the CI smoke test).
"""

from __future__ import annotations

import os

from repro.core.predicates import evaluate_configuration
from repro.experiments.runner import run_with_sampler
from repro.metrics.convergence import stabilization_time
from repro.net.faults import FaultInjector
from repro.scenarios import ScenarioSpec, build

QUICK = os.environ.get("REPRO_QUICK", "") == "1"


def legitimate_now(deployment) -> bool:
    report = evaluate_configuration(deployment.sim.now, deployment.views(),
                                    deployment.link_snapshot(), deployment.config.dmax)
    return report.legitimate


def main() -> None:
    deployment = build(ScenarioSpec.create("static_random", n=16, area=300.0,
                                           radio_range=120.0, dmax=3), seed=5)
    print("Fault-recovery demo — 16 static nodes, Dmax = 3\n")

    sampler = run_with_sampler(deployment, duration=40.0 if QUICK else 60.0)
    initial_stab = stabilization_time(sampler.samples)
    print(f"initial stabilization time ........ "
          f"{'not reached' if initial_stab is None else f'{initial_stab:.0f} s'}")
    print(f"legitimate before faults .......... {legitimate_now(deployment)}")

    ghosts = ["ghost-a", "ghost-b", "ghost-c"]
    injector = FaultInjector(deployment.network, rng=deployment.sim.spawn_rng())
    corrupted = injector.random_memory_corruption(fraction=0.5, ghost_pool=ghosts)
    injector.oversized_list(corrupted[0], extra_ids=["ghost-deep-1", "ghost-deep-2"])
    injector.corrupt_priority(corrupted[-1], value=999)
    print(f"\ninjected faults on nodes .......... {sorted(map(str, corrupted))}")
    print(f"ghost identities inserted ......... {ghosts + ['ghost-deep-1', 'ghost-deep-2']}")

    fault_time = deployment.sim.now
    all_ghosts = ghosts + ["ghost-deep-1", "ghost-deep-2"]

    def ghosts_remaining() -> int:
        return sum(1 for node in deployment.nodes.values()
                   for g in all_ghosts if node.alist.contains(g))

    print(f"ghost occurrences right after ..... {ghosts_remaining()}")
    cleanup_at = None
    while deployment.sim.now < fault_time + (30.0 if QUICK else 60.0):
        deployment.sim.run(until=deployment.sim.now + 1.0)
        if cleanup_at is None and ghosts_remaining() == 0:
            cleanup_at = deployment.sim.now
    print(f"ghost cleanup completed after ..... "
          f"{(cleanup_at - fault_time) if cleanup_at else float('nan'):.0f} s")

    recovery_sampler = run_with_sampler(deployment, duration=30.0 if QUICK else 40.0)
    restab = stabilization_time(recovery_sampler.samples)
    print(f"re-stabilization time ............. "
          f"{restab:.0f} s" if restab is not None else "re-stabilization not reached")
    print(f"legitimate at the end ............. {legitimate_now(deployment)}")


if __name__ == "__main__":
    main()
