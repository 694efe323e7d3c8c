"""Group-application traffic subsystem.

A new layer on top of the group service: pluggable, seeded workload
generators (:mod:`~repro.traffic.generators`) inject application payloads
scoped to each node's current group through the network's delivery pipeline,
and a :class:`~repro.traffic.ledger.DeliveryLedger` measures what the groups
actually delivered — per-group goodput, end-to-end latency distributions,
delivery ratio, staleness and cross-group leakage.

Traffic workloads are values: a :class:`~repro.traffic.spec.TrafficSpec`
(a ``Spec`` like ``ScenarioSpec``, hashable and JSON-roundtrippable) names a
pattern of the :data:`TRAFFIC` catalog plus parameter overrides, and is
usable as a campaign grid axis (``CampaignSpec.traffics``), an experiment
override (E11) and a CLI surface (``--traffic`` / ``--traffic-set`` /
``--traffic-sweep`` / ``--list-traffic``).  ``TRAFFIC`` is a
:class:`repro.scenarios.Catalog`, the same mechanism as the scenario catalog.
"""

from .generators import TrafficDriver, TrafficGenerator, attach_traffic
from .ledger import AppMessage, DeliveryLedger
from .registry import (TRAFFIC, format_traffic_catalog, get_traffic, normalize_traffic_spec,
                       traffic_names, traffic_pattern)
from .spec import TrafficSpec

__all__ = [
    "AppMessage",
    "DeliveryLedger",
    "TRAFFIC",
    "TrafficDriver",
    "TrafficGenerator",
    "TrafficSpec",
    "attach_traffic",
    "format_traffic_catalog",
    "get_traffic",
    "normalize_traffic_spec",
    "traffic_names",
    "traffic_pattern",
]
