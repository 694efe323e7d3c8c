#!/usr/bin/env python
"""MANET chat scenario: an application consuming GRP views before stabilization.

A "chat" application runs on every node: through the traffic subsystem
(:mod:`repro.traffic`) each node periodically sends a message scoped to its
current group, the messages ride the same simulated radio channel as the
protocol's own traffic, and the delivery ledger records what the group
actually delivered.  The point of the best-effort property is that the
application can rely on the view *while* the protocol is still converging: as
long as the mobility does not break the diameter constraint (ΠT), nobody it
has been chatting with disappears from the group (ΠC).  The example reports
whether that held on its run; it does not always (ROADMAP.md, item 3).

The example runs a random-waypoint MANET at pedestrian speed with a
``periodic_beacon`` chat workload attached, then reports (a) the ledger's
delivery accounting — goodput, delivery ratio, latency, cross-group leakage —
and (b) the continuity summary measured by the metrics package.

Run with::

    python examples/manet_chat.py

``REPRO_QUICK=1`` shrinks the simulated duration (used by the CI smoke test).
"""

from __future__ import annotations

import os

from repro.experiments.runner import run_with_sampler
from repro.metrics.continuity import continuity_summary
from repro.scenarios import ScenarioSpec, build
from repro.traffic import TrafficSpec, attach_traffic

QUICK = os.environ.get("REPRO_QUICK", "") == "1"


def main() -> None:
    duration = 50.0 if QUICK else 150.0
    deployment = build(ScenarioSpec.create(
        "manet_waypoint", n=16, area=350.0, radio_range=130.0, dmax=3, speed=1.5),
        seed=11)
    # Chat = one group-scoped message every 5 seconds per node.
    driver = attach_traffic(deployment,
                            TrafficSpec.create("periodic_beacon", interval=5.0,
                                               size=120),
                            seed=11)

    sampler = run_with_sampler(deployment, duration=duration, sample_interval=1.0)

    summary = continuity_summary(sampler.transitions)
    totals = driver.ledger.totals(duration)

    print("MANET chat scenario — 16 nodes, random waypoint at 1.5 m/s, Dmax = 3\n")
    print(f"chat messages sent ................ {driver.ledger.messages_sent}")
    print(f"in-group deliveries ............... {totals['delivered']}")
    print(f"delivery ratio .................... {totals['delivery_ratio']}")
    print(f"goodput (messages/s) .............. {totals['goodput_msgs_per_s']}")
    print(f"cross-group leakage ratio ......... {totals['leakage_ratio']}")
    print(f"sampled transitions ............... {summary.transitions}")
    print(f"transitions where ΠT held ......... {summary.topological_held}")
    print(f"continuity violations (total) ..... {summary.violations_total}")
    print(f"violations while ΠT held .......... {summary.violations_under_topological}")
    print(f"best-effort property respected .... {summary.best_effort_respected}")
    if summary.best_effort_respected:
        print("\nWith slow mobility the diameter constraint is preserved, so the "
              "chat application never loses a partner it was talking to — even "
              "though the protocol keeps converging in the background.")
    else:
        print(f"\nThe chat application lost a partner {summary.violations_under_topological} "
              "time(s) while the diameter constraint held, which the best-effort "
              "property forbids.  This is the open E3 continuity finding "
              "(ROADMAP.md, item 3): groups can lose members on an unbroken "
              "topology.")
    print("The ledger shows the best-effort gap directly: single broadcasts only "
          "reach 1-hop members, so the delivery ratio over a Dmax=3 group stays "
          "below one.")


if __name__ == "__main__":
    main()
