"""Wire format of GRP messages.

Each node periodically broadcasts its ancestor list *with priorities* (paper,
pseudo-code line 8).  A message therefore carries:

* the sender identity,
* the sender's ancestor list (wire representation, marks included),
* the sender's priority table restricted to the identities of the list,
* the sender's current *group priority* (minimum key over its view), used by
  the receiver for group-versus-group arbitration during merges,
* the sender's current view (its established group), used by the receiver's
  ``compatibleList`` to evaluate the prospective merged diameter of the two
  established groups and to attribute group priorities to far candidates.

Messages are plain frozen dataclasses: they can be copied, compared, hashed
and — importantly for fault-injection experiments — corrupted.

A broadcast hands the same message object to every receiver, so the decoded
ancestor list and priority map are computed once per message, on first use,
and shared.  Both are immutable (the priority map is a read-only view).  The
decoded forms are a cache, not state: they take no part in equality, hashing,
``repr`` or pickling, so a message crossing a process boundary ships only its
wire fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .ancestor_list import AncestorList, WireList
from .identity import NodeId

__all__ = ["GRPMessage"]


@dataclass(frozen=True)
class GRPMessage:
    """One GRP broadcast."""

    sender: NodeId
    wire_list: WireList
    priorities: Tuple[Tuple[NodeId, int], ...] = field(default_factory=tuple)
    group_priority: Optional[Tuple[int, str]] = None
    view: Tuple[NodeId, ...] = field(default_factory=tuple)

    @classmethod
    def build(cls, sender: NodeId, alist: AncestorList,
              priorities: Mapping[NodeId, int],
              group_priority: Optional[Tuple[int, str]] = None,
              view: Optional[FrozenSet[NodeId]] = None) -> "GRPMessage":
        """Build a message from live protocol state."""
        prio = tuple(sorted(((node, int(value)) for node, value in priorities.items()),
                            key=lambda item: str(item[0])))
        view_tuple = tuple(sorted(view, key=str)) if view is not None else (sender,)
        return cls(sender=sender, wire_list=alist.to_wire(), priorities=prio,
                   group_priority=group_priority, view=view_tuple)

    @cached_property
    def ancestor_list(self) -> AncestorList:
        """The carried ancestor list, decoded once."""
        return AncestorList.from_wire(self.wire_list)

    @cached_property
    def priority_map(self) -> Mapping[NodeId, int]:
        """Priorities as a read-only mapping node -> int oldness.

        The ``int`` conversion happens here, once per message, so every
        receiver can merge the map into its table without converting again.
        """
        return MappingProxyType({node: int(value) for node, value in self.priorities})

    @cached_property
    def view_set(self) -> FrozenSet[NodeId]:
        """The sender's view as a frozenset."""
        return frozenset(self.view) if self.view else frozenset({self.sender})

    def __getstate__(self) -> Dict[str, object]:
        # Only the wire fields travel; the decoded caches are rebuilt on use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def size_estimate(self) -> int:
        """Rough payload size in "identity slots" (used by the overhead metrics).

        Counts one slot per identity occurrence in the list, one per priority
        entry, one per view member and one for the group priority — a portable
        proxy for bytes on the air that does not depend on identity encoding.
        """
        list_slots = sum(len(level) for level in self.wire_list)
        return (list_slots + len(self.priorities) + len(self.view)
                + (1 if self.group_priority else 0))
