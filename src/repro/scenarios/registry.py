"""The workload catalogs: named factories with declared parameter schemas.

A :class:`Catalog` holds the :class:`Definition` entries of one kind of
workload: a name, a one-line description, a typed parameter schema with
defaults, and a factory.  It has two instances:

* :data:`SCENARIOS` — where the nodes are and how they move; the factory
  (registered with :func:`scenario`) is a builder returning a ready-to-run
  :class:`~repro.core.protocol.GRPDeployment`;
* :data:`repro.traffic.TRAFFIC` — what the application sends over the groups;
  the factory is a generator class (see :mod:`repro.traffic.registry`).

Each catalog is the single source of truth consumed by the experiment suite
(default workloads and overrides), the campaign layer (grid axes), the CLIs
(``--scenario`` / ``--set`` / ``--sweep`` / ``--list-scenarios`` and their
``--traffic`` counterparts) and the documentation (the README catalogs are
rendered from :meth:`Catalog.format`).

Determinism contract: :func:`build` is a pure function of
``(spec, seed, config)`` — the same arguments always produce a bit-identical
deployment, whatever process builds it.  Builders must derive every random
stream from the given seed (conventionally through
:class:`repro.sim.randomness.SeedSequenceFactory`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.sim.collector import collector_paused

from .spec import ScenarioSpec, Spec

__all__ = ["REQUIRED", "ScenarioParameter", "Definition", "Catalog", "SCENARIOS",
           "scenario", "get_scenario", "scenario_names", "scenario_definitions",
           "build", "normalize_spec", "format_catalog"]

#: Sentinel default marking a parameter that every spec must provide.
REQUIRED = object()

_TRUE_STRINGS = frozenset(("1", "true", "yes", "on"))
_FALSE_STRINGS = frozenset(("0", "false", "no", "off"))


@dataclass(frozen=True)
class ScenarioParameter:
    """One declared catalog parameter: name, kind, default, description.

    Scenario and traffic definitions share this type and its coercion rules.

    ``kind`` is one of ``"int"``, ``"float"``, ``"bool"``, ``"str"`` and
    ``"int_tuple"`` (a ``+``-separated list on the command line, e.g.
    ``group_sizes=4+4+3``).
    """

    name: str
    kind: str
    default: object = REQUIRED
    description: str = ""

    KINDS = ("int", "float", "bool", "str", "int_tuple")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}; valid: {self.KINDS}")

    @property
    def required(self) -> bool:
        """Whether the parameter has no default."""
        return self.default is REQUIRED

    def coerce(self, value: object) -> object:
        """Coerce ``value`` (possibly a CLI string) to the declared kind."""
        try:
            if self.kind == "int":
                if isinstance(value, bool):
                    raise ValueError("bool is not an int")
                return int(value)
            if self.kind == "float":
                if isinstance(value, bool):
                    raise ValueError("bool is not a float")
                return float(value)
            if self.kind == "bool":
                if isinstance(value, bool):
                    return value
                text = str(value).strip().lower()
                if text in _TRUE_STRINGS:
                    return True
                if text in _FALSE_STRINGS:
                    return False
                raise ValueError(f"not a boolean: {value!r}")
            if self.kind == "int_tuple":
                if isinstance(value, str):
                    parts = [p for p in value.split("+") if p]
                else:
                    parts = list(value)
                result = tuple(int(p) for p in parts)
                if not result:
                    raise ValueError("empty tuple")
                return result
            return str(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"parameter {self.name!r} expects kind {self.kind!r}, "
                f"got {value!r} ({exc})") from None


@dataclass(frozen=True)
class Definition:
    """A catalog entry: factory plus declared parameter schema.

    ``kind`` names the catalog (``"scenario"`` or ``"traffic"``) in error
    messages; ``factory`` is a scenario's builder or a traffic pattern's
    generator class.
    """

    kind: str
    name: str
    description: str
    parameters: Tuple[ScenarioParameter, ...]
    factory: Callable[..., object]

    def parameter(self, name: str) -> ScenarioParameter:
        """The declared parameter called ``name``."""
        for param in self.parameters:
            if param.name == name:
                return param
        raise KeyError(f"{self.kind} {self.name!r} has no parameter {name!r}; "
                       f"valid: {[p.name for p in self.parameters]}")

    def defaults(self) -> Dict[str, object]:
        """Default value of every optional parameter."""
        return {p.name: p.default for p in self.parameters if not p.required}

    def coerce_params(self, explicit: Mapping[str, object]) -> Dict[str, object]:
        """Coerce ``explicit`` through the schema, without filling defaults.

        Unknown parameters raise ``ValueError``.
        """
        declared = {p.name: p for p in self.parameters}
        unknown = sorted(set(explicit) - set(declared))
        if unknown:
            raise ValueError(f"unknown parameter(s) {unknown} for {self.kind} "
                             f"{self.name!r}; valid: {sorted(declared)}")
        return {name: declared[name].coerce(value) for name, value in explicit.items()}

    @staticmethod
    def split_assignment(text: str, flag: str) -> Tuple[str, str]:
        """Split a command-line ``PARAM=VALUE`` given to ``flag``.

        ``VALUE`` may hold further ``=`` signs; an empty ``PARAM`` or a
        missing ``=`` raises ``ValueError``.
        """
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects PARAM=VALUE, got {text!r}")
        return key, value

    def resolve_params(self, explicit: Mapping[str, object]) -> Dict[str, object]:
        """Merge ``explicit`` over the defaults, validating and coercing.

        Unknown and missing-required parameters raise ``ValueError`` so a
        typo'd ``--set`` flag fails before any simulation runs.
        """
        coerced = self.coerce_params(explicit)
        resolved: Dict[str, object] = {}
        for param in self.parameters:
            if param.name in coerced:
                resolved[param.name] = coerced[param.name]
            elif param.required:
                raise ValueError(
                    f"{self.kind} {self.name!r} requires parameter {param.name!r}")
            else:
                resolved[param.name] = param.default
        return resolved


class Catalog:
    """The registered definitions of one kind of workload, by name.

    ``spec_type`` is the :class:`~repro.scenarios.spec.Spec` subclass that
    :meth:`normalize` returns.
    """

    def __init__(self, kind: str, spec_type: type):
        self.kind = kind
        self.spec_type = spec_type
        self._definitions: Dict[str, Definition] = {}

    def register(self, name: str, description: str,
                 parameters: List[ScenarioParameter]) -> Callable:
        """Decorator registering ``factory`` under ``name`` (duplicates raise)."""
        def decorate(factory: Callable) -> Callable:
            if name in self._definitions:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._definitions[name] = Definition(
                kind=self.kind, name=name, description=description,
                parameters=tuple(parameters), factory=factory)
            return factory
        return decorate

    def get(self, name: str) -> Definition:
        """Look a definition up by name."""
        try:
            return self._definitions[name]
        except KeyError:
            raise KeyError(f"unknown {self.kind} {name!r}; "
                           f"valid: {self.names()}") from None

    def names(self) -> List[str]:
        """Sorted names of every registered definition."""
        return sorted(self._definitions)

    def definitions(self) -> List[Definition]:
        """Every registered definition, sorted by name."""
        return [self._definitions[name] for name in self.names()]

    def normalize(self, spec: Spec) -> Spec:
        """Coerce the spec's explicit parameters through the catalog schema.

        Defaults are *not* filled in (specs stay minimal, labels stay
        compact), but every explicit value takes its canonical type — so
        ``create("static_random", n=8.0)``, ``n="8"`` and ``n=8`` normalize to
        the same spec, and label / seed-derivation / hash always describe the
        workload that actually runs.  Unknown names or parameters raise.
        """
        coerced = self.get(spec.name).coerce_params(spec.param_dict)
        return self.spec_type(name=spec.name, params=tuple(coerced.items()))

    def format(self, verbose: bool = True) -> str:
        """Human-readable catalog of every registered definition.

        Printed by ``--list-scenarios`` / ``--list-traffic`` and pasted
        (regenerated) into the README.
        """
        lines: List[str] = []
        for definition in self.definitions():
            lines.append(f"{definition.name}: {definition.description}")
            if not verbose:
                continue
            for param in definition.parameters:
                default = "required" if param.required else f"default {param.default!r}"
                detail = f" — {param.description}" if param.description else ""
                lines.append(f"    {param.name} ({param.kind}, {default}){detail}")
        return "\n".join(lines)


SCENARIOS = Catalog("scenario", ScenarioSpec)

#: Decorator registering a builder function as a scenario.  The builder is
#: called as ``builder(seed=..., config=..., **params)`` with every declared
#: parameter resolved, and must return a
#: :class:`~repro.core.protocol.GRPDeployment`.
scenario = SCENARIOS.register
get_scenario = SCENARIOS.get
scenario_names = SCENARIOS.names
scenario_definitions = SCENARIOS.definitions
normalize_spec = SCENARIOS.normalize
format_catalog = SCENARIOS.format


def build(spec: ScenarioSpec, seed: int = 0, config: Optional[object] = None):
    """Build the deployment described by ``spec``.

    Parameters declared by the scenario but absent from the spec take their
    registry defaults; unknown parameters raise ``ValueError``.  ``config``
    optionally forces the :class:`~repro.core.node.GRPConfig` shared by all
    nodes (experiments use it for protocol ablations); builders fall back to
    ``GRPConfig(dmax=dmax)`` when it is ``None``, exactly like the historical
    ad-hoc builder functions.  The builder runs with the cyclic collector
    paused (:class:`~repro.sim.collector.collector_paused`): it keeps nearly
    everything it allocates, so scanning for garbage would find none.
    """
    definition = get_scenario(spec.name)
    params = definition.resolve_params(spec.param_dict)
    with collector_paused():
        return definition.factory(seed=int(seed), config=config, **params)
