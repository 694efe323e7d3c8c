"""The traffic catalog: named workload generators with declared schemas.

:data:`TRAFFIC` is the second instance of :class:`repro.scenarios.Catalog`
(the first is ``SCENARIOS``): each entry is a
:class:`~repro.scenarios.Definition` whose factory is a generator class,
instantiated as ``factory(driver, **params)`` with every declared parameter
resolved (see :class:`repro.traffic.generators.TrafficGenerator`).  Scenario
and traffic parameters share one schema type and one set of coercion rules.
The catalog is the single source of truth consumed by

* the experiment suite (E11's default workload and ``--traffic`` overrides),
* the campaign layer (traffic axes of a result grid),
* the CLIs (``--traffic`` / ``--traffic-set`` / ``--traffic-sweep`` /
  ``--list-traffic``),
* the documentation (the README traffic catalog is rendered from it).

Determinism contract: attaching a normalized spec with a given seed to a
given deployment always injects the bit-identical message sequence, whatever
process runs the simulation — every random stream derives from the seed
through :func:`repro.sim.randomness.derive_seed` with a stream name that
includes the spec digest.
"""

from __future__ import annotations

from repro.scenarios.registry import Catalog

from .spec import TrafficSpec

__all__ = ["TRAFFIC", "traffic_pattern", "get_traffic", "traffic_names",
           "normalize_traffic_spec", "format_traffic_catalog"]

TRAFFIC = Catalog("traffic", TrafficSpec)

traffic_pattern = TRAFFIC.register
get_traffic = TRAFFIC.get
traffic_names = TRAFFIC.names
normalize_traffic_spec = TRAFFIC.normalize
format_traffic_catalog = TRAFFIC.format
