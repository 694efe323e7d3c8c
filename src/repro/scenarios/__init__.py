"""Declarative scenario layer: registry, parameterized specs, build entry point.

Usage::

    from repro.scenarios import ScenarioSpec, build

    spec = ScenarioSpec.create("manet_waypoint", n=30, speed=8.0)
    deployment = build(spec, seed=42)

Scenario names, parameter schemas and defaults live in the :data:`SCENARIOS`
catalog (:func:`scenario_names`, :func:`get_scenario`, :func:`format_catalog`
are its bound methods); :class:`Catalog` is the same mechanism the traffic
layer's ``TRAFFIC`` catalog uses.  Specs are hashable and JSON-roundtrippable
so the campaign layer can use them as grid axes and persist them in result
stores.
"""

from .registry import (REQUIRED, SCENARIOS, Catalog, Definition, ScenarioParameter,
                       build, format_catalog, get_scenario, normalize_spec, scenario,
                       scenario_definitions, scenario_names)
from .spec import ScenarioSpec, Spec

# Importing the builders module populates the registry with the stock catalog.
from . import builders  # noqa: F401  (imported for its registration side effect)

__all__ = [
    "REQUIRED",
    "SCENARIOS",
    "Catalog",
    "Definition",
    "ScenarioParameter",
    "ScenarioSpec",
    "Spec",
    "build",
    "format_catalog",
    "get_scenario",
    "normalize_spec",
    "scenario",
    "scenario_definitions",
    "scenario_names",
]
