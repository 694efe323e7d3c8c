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

A message's value is its wire fields, but inside one process they are encoded
on demand.  :meth:`GRPMessage.build` keeps the sender's live state — the
immutable :class:`~repro.core.ancestor_list.AncestorList`, an owned int-valued
copy of the priorities and the view frozenset — as the message's
:attr:`~GRPMessage.ancestor_list`, :attr:`~GRPMessage.priority_map` and
:attr:`~GRPMessage.view_set`, which is all an in-process receiver reads.  The
wire fields (``wire_list``, ``priorities``, ``view``) are produced from that
state on first use and cached; they alone decide equality, hashing, ``repr``,
pickling, :meth:`~GRPMessage.size_estimate` and ``dataclasses.replace``, so a
built message is indistinguishable from one constructed from its wire fields
(pickled bytes included).  A message constructed from wire fields — a pickled
copy, a ``dataclasses.replace`` result — decodes them once, on first use.

A broadcast hands the same message object to every receiver, so the decoded
forms are shared, and so is the receiver-side candidate list
(:meth:`GRPMessage.candidate_for`).  All of them are immutable (the priority
map is a read-only view).  Per-level insertion order of a received list is the
sender's fold order for a built message and sorted order for a decoded one;
no protocol outcome depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .ancestor_list import AncestorList, WireList
from .identity import Mark, NodeId

__all__ = ["GRPMessage"]


def _node_key(item: Tuple[NodeId, int]) -> str:
    return str(item[0])


@dataclass(frozen=True)
class GRPMessage:
    """One GRP broadcast."""

    # Not a field (unannotated): the delivery path tests this marker on every
    # payload, and a class attribute answers before ``__getattr__`` raises.
    is_app_payload = False

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
        """Build a message from live protocol state; wire fields are encoded on demand.

        ``priorities`` is copied (later changes to the caller's mapping do not
        reach the message); ``alist`` and ``view`` are immutable and kept.
        """
        message = object.__new__(cls)
        state = message.__dict__
        state["sender"] = sender
        state["group_priority"] = group_priority
        state["ancestor_list"] = alist
        owned = dict(priorities)
        if set(map(type, owned.values())) - {int}:
            owned = {node: int(value) for node, value in owned.items()}
        state["priority_map"] = MappingProxyType(owned)
        if view is None:
            state["view_set"] = frozenset({sender})
        elif view:
            state["view_set"] = frozenset(view)
        else:
            # An empty view travels as an empty tuple; receivers read the sender.
            state["view"] = ()
        return message

    def __getattr__(self, name: str):
        # Only reached when ``name`` is not in the instance dict: a wire field
        # of a built message not encoded yet.  Encode it once and keep it.
        state = self.__dict__
        if name == "wire_list" and "ancestor_list" in state:
            value = state["ancestor_list"].to_wire()
        elif name == "priorities" and "priority_map" in state:
            value = tuple(sorted(state["priority_map"].items(), key=_node_key))
        elif name == "view" and "view_set" in state:
            value = tuple(sorted(state["view_set"], key=str))
        else:
            raise AttributeError(name)
        state[name] = value
        return value

    @cached_property
    def ancestor_list(self) -> AncestorList:
        """The carried ancestor list (decoded once when built from wire fields)."""
        return AncestorList.from_wire(self.wire_list)

    @cached_property
    def priority_map(self) -> Mapping[NodeId, int]:
        """Priorities as a read-only mapping node -> int oldness.

        The ``int`` conversion happens once per message, so every receiver
        can merge the map into its table without converting again.
        """
        return MappingProxyType({node: int(value) for node, value in self.priorities})

    @cached_property
    def view_set(self) -> FrozenSet[NodeId]:
        """The sender's view as a frozenset."""
        return frozenset(self.view) if self.view else frozenset({self.sender})

    def candidate_for(self, receiver: NodeId) -> AncestorList:
        """The carried list as ``receiver`` must see it (pseudo-code line 2).

        Equal to ``ancestor_list.sanitized_for(receiver)``, per-level insertion
        order included.  For every receiver the list does not single-mark that
        is the list with every marked entry removed, computed once per message
        and shared; a single-marked receiver gets its own sanitized copy.
        """
        shared, single_marked = self._shared_candidate
        if receiver in single_marked:
            return self.ancestor_list.sanitized_for(receiver)
        return shared

    @cached_property
    def _shared_candidate(self) -> Tuple[AncestorList, FrozenSet[NodeId]]:
        alist = self.ancestor_list
        single_marked = frozenset(node for node in alist.marked_nodes()
                                  if alist.mark_of(node) is Mark.SINGLE)
        return alist.without_marked(), single_marked

    def __getstate__(self) -> Dict[str, object]:
        # Only the wire fields travel (encoded if need be); the live and
        # decoded forms are rebuilt on use.
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
