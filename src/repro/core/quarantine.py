"""Quarantine bookkeeping.

A node entering a group is not immediately added to the *view*: it is placed in
quarantine for ``Dmax`` computation rounds (paper Section 4.1 and pseudo-code
line 30).  Because a group's diameter is at most ``Dmax``, the news of the
arrival reaches every current member — and any conflict (a member that must
reject the newcomer) is detected — before the quarantine expires.  This is the
mechanism that makes the continuity property ΠT ⇒ ΠC possible: views only ever
gain members that the whole group has implicitly approved.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from .identity import NodeId

__all__ = ["QuarantineTracker"]


class QuarantineTracker:
    """Per-identity quarantine counters for one GRP node."""

    def __init__(self, owner: NodeId, dmax: int):
        if dmax < 1:
            raise ValueError("dmax must be >= 1")
        self.owner = owner
        self.dmax = int(dmax)
        self._counters: Dict[NodeId, int] = {owner: 0}

    # ----------------------------------------------------------------- state

    def counter(self, node: NodeId) -> int:
        """Remaining quarantine of ``node`` (``dmax`` when unknown)."""
        return self._counters.get(node, self.dmax)

    def counters(self) -> Dict[NodeId, int]:
        """Copy of the full quarantine table."""
        return dict(self._counters)

    def is_cleared(self, node: NodeId) -> bool:
        """Whether ``node`` has finished its quarantine."""
        return self._counters.get(node, self.dmax) == 0

    def cleared(self) -> Set[NodeId]:
        """All identities with a null quarantine."""
        return {node for node, value in self._counters.items() if value == 0}

    # --------------------------------------------------------------- updates

    def update(self, current_members: Iterable[NodeId]) -> Set[NodeId]:
        """One computation round (pseudo-code line 30); returns :meth:`cleared`.

        New identities get a counter of ``Dmax``; already tracked identities
        with a non-null counter are decremented; identities that left the list
        are forgotten.  The owner always stays at zero.
        """
        current = set(current_members) | {self.owner}
        owner, dmax, old = self.owner, self.dmax, self._counters
        new_counters: Dict[NodeId, int] = {}
        cleared: Set[NodeId] = set()
        for node in current:
            value = old.get(node) if node != owner else 0
            value = dmax if value is None else max(0, value - 1)
            new_counters[node] = value
            if not value:
                cleared.add(node)
        self._counters = new_counters
        return cleared

    def force(self, node: NodeId, value: int) -> None:
        """Force a counter value (fault injection / tests)."""
        if node == self.owner:
            return
        self._counters[node] = max(0, int(value))

    def clear_all(self) -> None:
        """Forget every tracked identity except the owner."""
        self._counters = {self.owner: 0}
