"""Node and group priorities.

GRP uses priorities to arbitrate which node must be excluded when the diameter
constraint would be violated, and which of two neighbouring groups absorbs the
other during a merge (paper Section 4.1).

The paper suggests implementing priorities as *oldness in the group*: each node
carries a logical counter that grows while the node is alone and is frozen
while the node belongs to a group of more than one member.  Therefore nodes
that have been in a group the longest carry the *smallest* value and win every
arbitration; freshly arrived nodes lose and leave, preserving the existing
group — which is exactly the continuity behaviour the protocol is after.

:class:`PriorityTable` tracks the local node's own counter plus the latest
counters learned from neighbours' messages, and exposes the two comparisons
used by ``compute()``:

* node-versus-node (same group): compare the two oldness counters;
* group-versus-group (merge arbitration): compare the minimum counter over
  each group's known members.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from .identity import NodeId, priority_key

__all__ = ["PriorityTable"]

PriorityKey = Tuple[int, str]


class PriorityTable:
    """Priority bookkeeping for one GRP node.

    :attr:`revision` versions the table's content, the own counter and the
    known counters: every change of content bumps it, and a call that
    changes nothing (learning values already known, a ``forget_except``
    that drops nothing, a tick while in a group) leaves it as it was.
    """

    def __init__(self, owner: NodeId, initial: int = 0):
        self.owner = owner
        self._own = int(initial)
        self._known: Dict[NodeId, int] = {}
        #: Content version (see the class docstring); keys the owner's
        #: outgoing-message cache
        #: (:meth:`repro.core.node.GRPNode.outgoing_message`).
        self.revision = 0

    # ----------------------------------------------------------------- state

    @property
    def own_oldness(self) -> int:
        """The local node's oldness counter."""
        return self._own

    def set_own(self, value: int) -> None:
        """Overwrite the local counter (fault injection / initialisation)."""
        value = int(value)
        if value != self._own:
            self._own = value
            self.revision += 1

    def oldness_of(self, node: NodeId) -> Optional[int]:
        """Last known counter of ``node`` (``None`` when unknown)."""
        if node == self.owner:
            return self._own
        return self._known.get(node)

    def key_of(self, node: NodeId, default_oldness: Optional[int] = None) -> Optional[PriorityKey]:
        """Total-order key of ``node``; ``None`` when unknown and no default is given."""
        oldness = self.oldness_of(node)
        if oldness is None:
            if default_oldness is None:
                return None
            oldness = default_oldness
        return priority_key(oldness, node)

    def own_key(self) -> PriorityKey:
        """Total-order key of the local node."""
        return priority_key(self._own, self.owner)

    # --------------------------------------------------------------- updates

    def learn(self, *priorities: Mapping[NodeId, int]) -> None:
        """Merge the counters carried by received messages (latest value wins).

        All maps are merged in one pass, in the order given.  Values are
        stored as given: callers pass int counters (a message's
        :attr:`repro.core.messages.GRPMessage.priority_map` is int-valued).
        The owner's own entry is never learned.
        """
        if not priorities:
            return
        known = self._known
        before = known.copy()
        for mapping in priorities:
            known.update(mapping)
        known.pop(self.owner, None)
        if known != before:
            self.revision += 1

    def forget_except(self, keep: Iterable[NodeId]) -> None:
        """Drop counters of identities no longer relevant (keeps memory bounded)."""
        keep = set(keep)
        kept = {node: value for node, value in self._known.items() if node in keep}
        if len(kept) != len(self._known):
            self._known = kept
            self.revision += 1

    def tick(self, in_group: bool) -> None:
        """Pseudo-code line 32: the counter grows only while the node is alone."""
        if not in_group:
            self._own += 1
            self.revision += 1

    # ----------------------------------------------------------- comparisons

    def node_has_priority_over_self(self, node: NodeId,
                                    default_oldness: Optional[int] = None) -> bool:
        """Whether ``node`` wins a node-versus-node arbitration against the owner.

        Unknown nodes lose by default (they are newcomers the local node has no
        information about), unless ``default_oldness`` provides their counter.
        """
        other = self.key_of(node, default_oldness)
        if other is None:
            return False
        return other < self.own_key()

    def group_priority(self, members: Iterable[NodeId],
                       extra: Optional[Mapping[NodeId, int]] = None) -> PriorityKey:
        """Group priority = smallest member key (paper: min of members' priorities)."""
        best: Optional[PriorityKey] = None
        for member in members:
            oldness = None
            if extra is not None and member in extra:
                oldness = extra[member]
            if oldness is None:
                oldness = self.oldness_of(member)
            if oldness is None:
                continue
            key = priority_key(oldness, member)
            if best is None or key < best:
                best = key
        if best is None:
            best = self.own_key()
        return best

    def snapshot(self, nodes: Iterable[NodeId]) -> Dict[NodeId, int]:
        """Counters for the given identities (used to build outgoing messages)."""
        known = self._known  # never holds the owner (see learn)
        out = {node: known[node] for node in nodes if node in known}
        out[self.owner] = self._own
        return out
