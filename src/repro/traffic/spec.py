"""Declarative traffic specifications.

A :class:`TrafficSpec` names a registered workload generator plus the
parameter values that differ from the catalog defaults.  It is a
:class:`repro.scenarios.spec.Spec`, like ``ScenarioSpec``: hashable,
JSON-roundtrippable and ignorant of the catalog, which validates, resolves
defaults and coerces types when the workload is attached.

The class exists to stay distinct from ``ScenarioSpec``: a scenario describes
*where the nodes are and how they move*, a traffic spec describes *what the
application sends over the groups*, and the two never compare equal.
"""

from __future__ import annotations

from repro.scenarios.spec import Spec

__all__ = ["TrafficSpec"]


class TrafficSpec(Spec):
    """A registered traffic pattern plus its explicit parameters."""

    kind = "traffic"
