#!/usr/bin/env python
"""Quickstart: build a small static GRP network and watch the groups form.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import GRPConfig, build_grp_network, evaluate_configuration, omega
from repro.net.geometry import random_positions


def main() -> None:
    dmax = 3
    # 15 nodes scattered over a 300 m x 300 m area, 110 m radio range.
    positions = random_positions(range(15), area=(300.0, 300.0),
                                 rng=np.random.default_rng(7))
    deployment = build_grp_network(positions, GRPConfig(dmax=dmax),
                                   radio_range=110.0, seed=7)

    print(f"GRP quickstart — {len(positions)} nodes, Dmax = {dmax}")
    print(f"{'time':>6} | {'groups':>6} | {'largest':>7} | legitimate")
    print("-" * 40)
    deployment.start()
    for step in range(0, 41, 5):
        deployment.sim.run(until=step)
        views = deployment.views()
        report = evaluate_configuration(deployment.sim.now, views,
                                        deployment.link_snapshot(), dmax)
        print(f"{deployment.sim.now:6.0f} | {report.group_count:6d} | "
              f"{report.largest_group:7d} | {report.legitimate}")

    print("\nFinal groups (the views used by applications):")
    for group in sorted(set(omega(deployment.views()).values()),
                        key=lambda g: (-len(g), sorted(map(str, g)))):
        print("  ", sorted(group))
    print(f"\nMessages broadcast: {deployment.network.messages_sent}")


if __name__ == "__main__":
    main()
