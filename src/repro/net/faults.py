"""Transient-fault injection.

Self-stabilization is about recovering from *arbitrary* transient faults:
corrupted memories and corrupted messages.  The paper treats topology changes
as transient faults too, but those are exercised by the mobility models; this
module provides the memory/message corruption used by the stabilization
experiments (E6) and the recovery tests, plus :meth:`FaultInjector.partition`
/ :meth:`FaultInjector.heal` power-off/power-on batches for campaign-driven
churn sequences.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.obs import current as _obs_current

__all__ = ["FaultInjector"]


class FaultInjector:
    """Inject transient faults into GRP nodes of a network.

    The injector works against the public state-mutation API of
    :class:`repro.core.node.GRPNode` (``corrupt_state``) so it stays decoupled
    from the node internals.  :attr:`injected` counts the injections; when
    observability is enabled at construction (:func:`repro.obs.current`),
    each one is also recorded as a ``fault.<kind>`` event, node ids as
    strings.
    """

    def __init__(self, network, rng: Optional[np.random.Generator] = None):
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng()
        self._obs = _obs_current()
        self.injected = 0
        self._partitioned: List[Hashable] = []

    # ----------------------------------------------------------- primitives

    def _record(self, kind: str, **data: Any) -> None:
        self.injected += 1
        if self._obs is not None:
            self._obs.record_event(f"fault.{kind}", self.network.sim.now, **data)

    def inject_ghost_identity(self, node_id: Hashable, ghost_id: Hashable,
                              position: int = 1) -> None:
        """Insert a non-existent identity into a node's ancestor list.

        This reproduces the initial condition of Proposition 2 (Exist): the
        ghost must eventually disappear from every list.
        """
        node = self.network.process(node_id)
        node.corrupt_state(ghost_nodes={ghost_id: position})
        self._record("ghost", node=str(node_id), ghost=str(ghost_id), position=position)

    def corrupt_view(self, node_id: Hashable, fake_members: Iterable[Hashable]) -> None:
        """Force arbitrary members into a node's view (agreement violation)."""
        members = list(fake_members)
        node = self.network.process(node_id)
        node.corrupt_state(view=set(members))
        self._record("view", node=str(node_id), members=sorted(map(str, members)))

    def corrupt_priority(self, node_id: Hashable, value: int) -> None:
        """Overwrite a node's own priority counter."""
        node = self.network.process(node_id)
        node.corrupt_state(priority=value)
        self._record("priority", node=str(node_id), value=value)

    def scramble_quarantines(self, node_id: Hashable, max_value: Optional[int] = None) -> None:
        """Randomize every quarantine counter of a node."""
        node = self.network.process(node_id)
        limit = max_value if max_value is not None else node.config.dmax
        node.corrupt_state(quarantine_noise=(self.rng, limit))
        self._record("quarantine", node=str(node_id))

    def oversized_list(self, node_id: Hashable, extra_ids: Sequence[Hashable]) -> None:
        """Make a node's list longer than Dmax + 1 (initial condition of Prop. 1)."""
        node = self.network.process(node_id)
        node.corrupt_state(append_levels=list(extra_ids))
        self._record("oversize", node=str(node_id), extra=len(extra_ids))

    # ------------------------------------------------------- partition/heal

    def partition(self, node_ids: Iterable[Hashable]) -> List[Hashable]:
        """Power off ``node_ids``, simulating a network partition.

        Deactivation goes through :meth:`Network.deactivate_node`, so each
        node that actually flips bumps the network's topology generation once
        (snapshot caches invalidate).  Already-inactive nodes are ignored.
        Returns the nodes that flipped, in the order given; they are
        remembered for a later no-argument :meth:`heal`.
        """
        affected: List[Hashable] = []
        for node_id in node_ids:
            if not self.network.process(node_id).active:
                continue
            self.network.deactivate_node(node_id)
            affected.append(node_id)
            if node_id not in self._partitioned:
                self._partitioned.append(node_id)
        if affected:
            self._record("partition", nodes=[str(n) for n in affected])
        return affected

    def heal(self, node_ids: Optional[Iterable[Hashable]] = None) -> List[Hashable]:
        """Power nodes back on after a :meth:`partition`.

        With no argument, heals every node still tracked from previous
        partitions; otherwise only the given nodes.  Each node that actually
        flips bumps the topology generation once.  Returns the nodes that
        flipped.
        """
        targets = list(self._partitioned) if node_ids is None else list(node_ids)
        healed: List[Hashable] = []
        for node_id in targets:
            if node_id in self._partitioned:
                self._partitioned.remove(node_id)
            if self.network.process(node_id).active:
                continue
            self.network.activate_node(node_id)
            healed.append(node_id)
        if healed:
            self._record("heal", nodes=[str(n) for n in healed])
        return healed

    # -------------------------------------------------------------- batches

    def random_memory_corruption(self, fraction: float = 0.3,
                                 ghost_pool: Optional[Sequence[Hashable]] = None,
                                 ) -> List[Hashable]:
        """Corrupt a random fraction of the nodes in one shot.

        Each selected node gets a ghost identity (when a pool is provided) and a
        scrambled quarantine table.  Returns the list of corrupted node ids.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        node_ids = list(self.network.node_ids)
        count = max(1, int(round(fraction * len(node_ids))))
        chosen_idx = self.rng.choice(len(node_ids), size=count, replace=False)
        chosen = [node_ids[i] for i in chosen_idx]
        for node_id in chosen:
            if ghost_pool:
                ghost = ghost_pool[int(self.rng.integers(0, len(ghost_pool)))]
                self.inject_ghost_identity(node_id, ghost)
            self.scramble_quarantines(node_id)
        return chosen
