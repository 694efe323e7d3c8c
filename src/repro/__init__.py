"""Reproduction of "Best-effort Group Service in Dynamic Networks" (SPAA 2010).

The package is organised around the paper's structure:

* :mod:`repro.core` — the GRP protocol (ancestor lists, the ``ant`` r-operator,
  marks, priorities, quarantine, the node state machine) and the formal
  predicates of the Dynamic Group Service specification;
* :mod:`repro.sim` — the discrete-event simulation kernel;
* :mod:`repro.net` — the wireless-network substrate (radios, channels,
  topology snapshots, fault injection);
* :mod:`repro.mobility` — synthetic mobility models (VANET highway, random
  waypoint, RPGM, …) and churn;
* :mod:`repro.baselines` — clustering comparators (lowest-ID, Max-Min
  d-cluster, k-hop clustering);
* :mod:`repro.metrics` — convergence, continuity, group and overhead metrics;
* :mod:`repro.scenarios` — the declarative scenario registry and builder;
* :mod:`repro.traffic` — seeded group-application workloads and their ledger;
* :mod:`repro.shard` — one world split across shard workers, bit-identical;
* :mod:`repro.obs` — runtime observability, free when off;
* :mod:`repro.experiments` — the experiment runner and the E1…E11
  reproduction suite (:mod:`repro.experiments.suite`);
* :mod:`repro.campaign` — parallel, resumable campaigns over the suite.

Quick start::

    from repro import GRPConfig, build_grp_network
    from repro.net.geometry import random_positions
    import numpy as np

    positions = random_positions(range(20), area=(300, 300), rng=np.random.default_rng(1))
    deployment = build_grp_network(positions, GRPConfig(dmax=3), radio_range=120, seed=1)
    deployment.run(30.0)
    print(deployment.views())
"""

from .core import (AncestorList, GRPConfig, GRPDeployment, GRPMessage, GRPNode, Mark,
                   agreement, build_grp_network, continuity, evaluate_configuration,
                   legitimate, maximality, omega, safety, topological)

__version__ = "1.0.0"

__all__ = [
    "AncestorList",
    "GRPConfig",
    "GRPDeployment",
    "GRPMessage",
    "GRPNode",
    "Mark",
    "agreement",
    "build_grp_network",
    "continuity",
    "evaluate_configuration",
    "legitimate",
    "maximality",
    "omega",
    "safety",
    "topological",
    "__version__",
]
