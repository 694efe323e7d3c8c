"""Declarative workload specifications.

A :class:`Spec` names a registered catalog entry plus the parameter values
that differ from the catalog defaults.  Like
:class:`repro.campaign.CampaignSpec` it is hashable (so specs can key caches
and set-like containers) and JSON-roundtrippable (so campaign result stores
can persist the workload a task ran under and resume against it).

:class:`ScenarioSpec` (where the nodes are and how they move) and
:class:`repro.traffic.TrafficSpec` (what the application sends over the
groups) are its two subclasses.  They stay distinct classes on purpose:
dataclass equality compares classes, so a scenario and a traffic spec never
compare equal, and campaign task ids, seed-stream names and spec hashes never
confuse one for the other (see ``CampaignSpec.task_seed``).

A spec deliberately knows nothing about its catalog: validation, default
resolution and type coercion happen in :mod:`repro.scenarios.registry` when
the workload is built.  This keeps specs cheap to create, compare and
serialize.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Mapping, Tuple, Type, TypeVar

__all__ = ["Spec", "ScenarioSpec"]

_S = TypeVar("_S", bound="Spec")


def _freeze_value(value: object) -> object:
    """Make a parameter value hashable (sequences become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _thaw_value(value: object) -> object:
    """JSON-friendly form of a frozen value (tuples become lists)."""
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


@dataclass(frozen=True)
class Spec:
    """An immutable (catalog entry name, explicit parameters) pair.

    ``params`` is stored as a tuple of ``(name, value)`` pairs sorted by
    parameter name, so two specs with the same parameters compare and hash
    equal whatever order they were created with.  Sequence values are frozen
    to tuples so the whole spec stays hashable.
    """

    #: Catalog kind named in error messages (``"scenario"``, ``"traffic"``).
    kind: ClassVar[str] = "spec"

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        pairs = dict(self.params)
        frozen = tuple(sorted((str(k), _freeze_value(v)) for k, v in pairs.items()))
        object.__setattr__(self, "params", frozen)

    # --------------------------------------------------------- construction

    @classmethod
    def create(cls: Type[_S], name: str, **params: object) -> _S:
        """Build a spec from keyword parameters."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def from_dict(cls: Type[_S], data: Mapping[str, object]) -> _S:
        """Inverse of :meth:`as_dict` (JSON lists are re-frozen to tuples)."""
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"{cls.kind} params must be a mapping, got {params!r}")
        return cls(name=str(data["name"]), params=tuple(params.items()))

    def with_params(self: _S, **overrides: object) -> _S:
        """A new spec with ``overrides`` merged over the current parameters."""
        merged = dict(self.params)
        merged.update(overrides)
        return type(self)(name=self.name, params=tuple(merged.items()))

    # --------------------------------------------------------------- access

    @property
    def param_dict(self) -> Dict[str, object]:
        """Explicit parameters as a plain dict (copy)."""
        return dict(self.params)

    # ------------------------------------------------------------- identity

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form; see :meth:`from_dict` for the inverse."""
        return {"name": self.name,
                "params": {k: _thaw_value(v) for k, v in self.params}}

    def canonical_json(self) -> str:
        """Canonical JSON rendering (stable across processes and platforms)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def spec_key(self) -> str:
        """Short stable digest of the spec (used in derived seed names)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:12]

    def label(self) -> str:
        """Compact human-readable identifier, unique per distinct spec.

        Used in campaign task ids and report headers, e.g.
        ``manet_waypoint[n=30,speed=8]``.  Tuple values render ``+``-joined
        (``group_sizes=4+4+3``) to stay free of the separators the campaign
        layer and the CLI use.
        """
        if not self.params:
            return self.name
        parts = []
        for key, value in self.params:
            if isinstance(value, tuple):
                rendered = "+".join(str(v) for v in value)
            else:
                rendered = str(value)
            parts.append(f"{key}={rendered}")
        return f"{self.name}[{','.join(parts)}]"


class ScenarioSpec(Spec):
    """A registered scenario plus its explicit parameters."""

    kind = "scenario"
