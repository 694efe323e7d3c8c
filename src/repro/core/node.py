"""The GRP protocol node.

Implements the three event handlers of the paper's Algorithm GRP (message
reception, computation timer ``Tc``, send timer ``Ts``) and the ``compute()``
procedure, faithfully following the pseudo-code of Section 4.3:

1. *Check the received lists*: strip marked identities (except the local one),
   reject malformed lists (``goodList``) by replacing them with a single-marked
   sender singleton, reject incompatible lists from non-members
   (``compatibleList``) by replacing them with a double-marked sender singleton.
2. *Compute the ancestor list* with the ``ant`` r-operator over all (possibly
   replaced) received lists.
3. *Too-far arbitration*: if the computed list has ``Dmax + 2`` levels, every
   identity at the last level with priority over the local node causes the
   lists that provided it to be replaced by double-marked singletons; the list
   is recomputed and truncated to ``Dmax + 1`` levels.
4. *Quarantine update* and *view extraction* (unmarked identities with a null
   quarantine).
5. *Priority update* (oldness grows only while the node is alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.obs import current as _obs_current
from repro.sim.process import Process
from repro.sim.timers import PeriodicTimer

from .ancestor_list import AncestorList
from .checks import compatible_list, good_list
from .identity import Mark, NodeId, priority_key
from .messages import GRPMessage
from .priority import PriorityTable
from .quarantine import QuarantineTracker

__all__ = ["GRPConfig", "GRPNode"]


@dataclass(frozen=True)
class GRPConfig:
    """Static configuration of a GRP node.

    Parameters
    ----------
    dmax:
        Application-chosen bound on the group diameter (``Dmax`` in the paper).
    tc:
        Period of the computation timer (τ1 of the fair-channel hypothesis).
    ts:
        Period of the send timer (τ2 ≤ τ1).
    timer_jitter:
        Relative jitter applied to both timers to desynchronize nodes.
    quarantine_enabled:
        Disable to run the quarantine ablation (experiment E7).
    optimized_compatibility:
        Disable to run the naive ``compatibleList`` ablation (experiment E10).
    use_group_priorities:
        Disable to arbitrate merges with plain node priorities (experiment E9
        ablation).
    exclusion_patience:
        Number of consecutive computations a too-far identity must persist at
        level ``Dmax + 1`` before its providers are double-marked.  Transient
        distance over-estimates produced while the ``ant`` computation is still
        converging disappear within a round or two; acting only on persistent
        observations prevents spurious group cuts (see DESIGN.md).
    neighbor_timeout_rounds:
        Number of consecutive computations a neighbour may stay silent before
        its last message is discarded.  The paper resets the message set at
        every computation (equivalent to ``1``); the default of ``2`` tolerates
        a single missed send window (e.g. a link flapping at the radio-range
        boundary) before declaring that the neighbour left, which is what real
        beaconing implementations do.
    view_reconciliation:
        Experimental repair of stuck disagreements: when two members of the
        local view persistently double-mark each other, the younger one is
        evicted.  Disabled by default — it helps dense graphs with a tight
        ``Dmax`` escape middle-node disagreement deadlocks, but can delay
        convergence elsewhere (see the "known limitations" section of
        DESIGN.md).
    initial_oldness:
        Initial value of the oldness counter.
    """

    dmax: int
    tc: float = 1.0
    ts: float = 0.5
    timer_jitter: float = 0.05
    quarantine_enabled: bool = True
    optimized_compatibility: bool = True
    use_group_priorities: bool = True
    exclusion_patience: int = 2
    neighbor_timeout_rounds: int = 2
    view_reconciliation: bool = False
    initial_oldness: int = 0

    def __post_init__(self) -> None:
        if self.dmax < 1:
            raise ValueError("dmax must be >= 1")
        if self.ts > self.tc:
            raise ValueError("the send period ts must not exceed the compute period tc "
                             "(fair-channel hypothesis: τ2 <= τ1)")
        if self.tc <= 0 or self.ts <= 0:
            raise ValueError("timer periods must be positive")
        if self.exclusion_patience < 1:
            raise ValueError("exclusion_patience must be >= 1")
        if self.neighbor_timeout_rounds < 1:
            raise ValueError("neighbor_timeout_rounds must be >= 1")


class GRPNode(Process):
    """One node running the GRP protocol."""

    def __init__(self, node_id: NodeId, config: GRPConfig):
        super().__init__(node_id)
        self.config = config
        self.alist: AncestorList = AncestorList.singleton(node_id)
        self.view: FrozenSet[NodeId] = frozenset({node_id})
        self.msg_set: Dict[NodeId, GRPMessage] = {}
        self._msg_age: Dict[NodeId, int] = {}
        self.priorities = PriorityTable(node_id, config.initial_oldness)
        self.quarantine = QuarantineTracker(node_id, config.dmax)
        self.computations = 0
        self.sends = 0
        self.receptions = 0
        self._far_streaks: Dict[NodeId, int] = {}
        self._conflict_streaks: Dict[NodeId, int] = {}
        self._tc_timer: Optional[PeriodicTimer] = None
        self._ts_timer: Optional[PeriodicTimer] = None
        # Protocol observatory hook, captured once (PR-7 contract: with obs
        # off, compute() pays exactly one attribute check).
        self._obs = _obs_current()
        self._obs_head: Optional[str] = None

    # --------------------------------------------------------------- outputs

    @property
    def dmax(self) -> int:
        """The configured diameter bound."""
        return self.config.dmax

    def current_view(self) -> FrozenSet[NodeId]:
        """The protocol output used by applications (the node's view of its group)."""
        return self.view

    def group_priority(self) -> Tuple[int, str]:
        """Priority of the node's group (minimum key over the view members)."""
        return self.priorities.group_priority(self.view)

    def in_group(self) -> bool:
        """Whether the node currently belongs to a group of more than one member."""
        return len(self.view) > 1

    # -------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        rng = self.sim.spawn_rng()
        self._tc_timer = PeriodicTimer(self.sim, self.config.tc, self._on_tc_expired,
                                       jitter=self.config.timer_jitter, rng=rng)
        self._ts_timer = PeriodicTimer(self.sim, self.config.ts, self._on_ts_expired,
                                       jitter=self.config.timer_jitter, rng=rng)
        self._tc_timer.start()
        self._ts_timer.start()

    def on_deactivate(self) -> None:
        if self._tc_timer is not None:
            self._tc_timer.stop()
        if self._ts_timer is not None:
            self._ts_timer.stop()

    def on_activate(self) -> None:
        # A node coming back keeps no stale neighbourhood knowledge: it restarts
        # from its own identity (its memory may have been lost while powered off).
        if self._obs is not None and len(self.view) > 1:
            self._obs.record_event("group.dissolved", self.sim.now,
                                   node=str(self.node_id),
                                   prev_size=len(self.view),
                                   reason="reactivated")
        self._obs_head = None
        self.msg_set.clear()
        self._msg_age.clear()
        self.alist = AncestorList.singleton(self.node_id)
        self.view = frozenset({self.node_id})
        self.quarantine.clear_all()
        if self._tc_timer is not None:
            self._tc_timer.start()
        if self._ts_timer is not None:
            self._ts_timer.start()

    # --------------------------------------------------------------- handlers

    def on_message(self, sender: NodeId, payload: object) -> None:
        """Paper lines 1-2: keep only the last message per neighbour."""
        if not isinstance(payload, GRPMessage):
            return
        self.receptions += 1
        self.msg_set[payload.sender] = payload
        self._msg_age[payload.sender] = 0

    def _on_ts_expired(self) -> None:
        """Paper lines 7-9: broadcast the current list with priorities."""
        message = GRPMessage.build(
            sender=self.node_id,
            alist=self.alist,
            priorities=self.priorities.snapshot(self.alist.nodes() | {self.node_id}),
            group_priority=self.group_priority(),
            view=self.view,
        )
        self.sends += 1
        self.broadcast(message)

    def _on_tc_expired(self) -> None:
        """Paper lines 3-6: compute, then expire stale neighbour messages.

        The paper resets the whole message set after every computation so that
        departed neighbours are detected; we age messages instead and drop them
        after ``neighbor_timeout_rounds`` silent computations (the paper's
        behaviour is recovered with a timeout of 1).
        """
        self.compute()
        timeout = self.config.neighbor_timeout_rounds
        for sender in list(self.msg_set):
            age = self._msg_age.get(sender, 0) + 1
            if age >= timeout:
                del self.msg_set[sender]
                self._msg_age.pop(sender, None)
            else:
                self._msg_age[sender] = age

    # ----------------------------------------------------------- computation

    def compute(self) -> None:
        """One execution of the paper's ``compute()`` procedure."""
        dmax = self.config.dmax
        obs = self._obs
        old_view = self.view if obs is not None else None

        # Learn the priorities carried by the received messages.
        for message in self.msg_set.values():
            self.priorities.learn(message.priority_map)

        # Step 1 — check the received lists (pseudo-code lines 1-9).
        accepted: Dict[NodeId, AncestorList] = {}
        for sender in sorted(self.msg_set, key=str):
            message = self.msg_set[sender]
            candidate = message.ancestor_list.sanitized_for(self.node_id)
            if not good_list(candidate, self.node_id, dmax):
                candidate = AncestorList.singleton(sender, Mark.SINGLE)
            elif sender not in self.view and not compatible_list(
                    self.alist, candidate, self.node_id, dmax,
                    optimized=self.config.optimized_compatibility,
                    local_members=self.view,
                    sender_members=message.view_set):
                candidate = AncestorList.singleton(sender, Mark.DOUBLE)
            accepted[sender] = candidate

        # Step 2 — ant computation (lines 10-13).
        new_list = self._combine(accepted)

        # Step 3 — too-far arbitration (lines 14-29).
        if len(new_list) == dmax + 2:
            far_nodes = new_list.level_nodes(dmax + 1)
            for far_node in sorted(far_nodes, key=str):
                self._far_streaks[far_node] = self._far_streaks.get(far_node, 0) + 1
                persistent = self._far_streaks[far_node] >= self.config.exclusion_patience
                if persistent and self._far_node_has_priority(far_node):
                    # The far identity wins the arbitration: the local node backs
                    # off by double-marking every neighbour whose list provided
                    # the far identity at the last admissible level (paper lines
                    # 16-21).  This is what guarantees that two nodes farther
                    # apart than Dmax end up on opposite sides of a double-marked
                    # edge (Proposition 5), at the cost of the local node leaving
                    # the providers' group.
                    for sender in sorted(accepted, key=str):
                        provider = accepted[sender]
                        if far_node not in provider.level_nodes(dmax):
                            continue
                        accepted[sender] = AncestorList.singleton(sender, Mark.DOUBLE)
                    self._far_streaks.pop(far_node, None)
            # Identities that are no longer observed at the forbidden level stop
            # accumulating their exclusion streak.
            for node in list(self._far_streaks):
                if node not in far_nodes:
                    del self._far_streaks[node]
            new_list = self._combine(accepted).truncated(dmax + 1)
        else:
            self._far_streaks.clear()

        self.alist = new_list

        # Step 3b — view-conflict reconciliation.  Two members of the local view
        # that have double-marked each other can never be in the same group; a
        # view containing both can never satisfy the agreement predicate ΠA.
        # The member with the lower priority (the younger one) is evicted; when
        # it is a direct neighbour the eviction is materialised as a double mark
        # so that the cut propagates, otherwise it is kept out of the view until
        # the conflict evidence disappears.  (See DESIGN.md: the paper's
        # conservative growth makes such conflicts impossible by construction;
        # with liberal growth they are rare but must be repaired.)
        vetoed = (self._persistent_conflict_losers() if self.config.view_reconciliation
                  else set())
        if vetoed:
            changed = False
            for loser in vetoed:
                if loser in accepted:
                    accepted[loser] = AncestorList.singleton(loser, Mark.DOUBLE)
                    changed = True
                self.quarantine.reset(loser)
            if changed:
                self.alist = self._combine(accepted).truncated(dmax + 1)

        # Step 4 — quarantine update and view extraction (lines 30-31).
        candidates = (self.alist.unmarked_nodes() | {self.node_id}) - vetoed
        if self.config.quarantine_enabled:
            self.quarantine.update(candidates)
            eligible = {node for node in candidates if self.quarantine.is_cleared(node)}
        else:
            self.quarantine.update(candidates)
            eligible = set(candidates)
        self.view = frozenset(eligible | {self.node_id})

        # Step 5 — priority update (line 32).
        self.priorities.tick(in_group=self.in_group())
        self.priorities.forget_except(self.alist.nodes() | self.view)
        self.computations += 1
        if obs is not None and self.view != old_view:
            self._emit_view_events(old_view)

    def _emit_view_events(self, old_view: FrozenSet[NodeId]) -> None:
        """Protocol hook: report this node's view transition to the observatory.

        Node-scoped group-lifecycle events (payloads carry ``node``, unlike
        the sampler's partition-level events), derived purely from the old
        and new views — observation only, no protocol state is touched.
        """
        obs = self._obs
        now = self.sim.now
        new_view = self.view
        node = str(self.node_id)
        if len(old_view) == 1:
            self._obs_head = head = self.group_priority()[1]
            obs.record_event("group.formed", now, node=node,
                             size=len(new_view), head=head)
            return
        if len(new_view) == 1:
            obs.record_event("group.dissolved", now, node=node,
                             prev_size=len(old_view))
            self._obs_head = None
            return
        joined = len(new_view - old_view)
        left = len(old_view - new_view)
        if left == 0:
            obs.record_event("group.merged", now, node=node,
                             size=len(new_view), joined=joined)
        elif joined == 0:
            obs.record_event("group.split", now, node=node,
                             prev_size=len(old_view), size=len(new_view),
                             left=left)
        else:
            obs.record_event("group.changed", now, node=node,
                             size=len(new_view), joined=joined, left=left)
        head = self.group_priority()[1]
        if head != self._obs_head:
            obs.record_event("group.head_changed", now, node=node,
                             head=head, previous=self._obs_head,
                             size=len(new_view))
            self._obs_head = head

    def _combine(self, accepted: Mapping[NodeId, AncestorList]) -> AncestorList:
        """Fold the accepted lists with ``ant`` starting from the local singleton."""
        return AncestorList.singleton(self.node_id).ant_fold(
            accepted[sender] for sender in sorted(accepted, key=str))

    def _view_conflict_losers(self) -> Set[NodeId]:
        """Members of the local view evicted because another member double-marked them.

        For every received message whose sender belongs to the view, every view
        member appearing double-marked in that message is in conflict with the
        sender; the conflict is resolved in favour of the member with the
        smaller priority key (the older one).
        """
        losers: Set[NodeId] = set()
        for sender, message in self.msg_set.items():
            if sender not in self.view or sender == self.node_id:
                continue
            raw = message.ancestor_list
            for member in self.view:
                if member == self.node_id or member == sender:
                    continue
                if raw.mark_of(member) is Mark.DOUBLE:
                    sender_key = self.priorities.key_of(sender)
                    member_key = self.priorities.key_of(member)
                    if sender_key is None or member_key is None:
                        continue
                    losers.add(member if member_key > sender_key else sender)
        losers.discard(self.node_id)
        return losers

    def _persistent_conflict_losers(self) -> Set[NodeId]:
        """Conflict losers that have been implicated for several consecutive computations.

        Transient double-marks routinely appear while two sides of a forming
        group negotiate; evicting a member on first sight would churn.  Only a
        conflict that keeps being advertised (the marks are still there after
        ``exclusion_patience + 1`` computations) is acted upon — a genuinely
        incompatible pair keeps advertising it forever, so the repair still
        happens in bounded time.
        """
        current = self._view_conflict_losers()
        patience = self.config.exclusion_patience + 1
        for node in list(self._conflict_streaks):
            if node not in current:
                del self._conflict_streaks[node]
        vetoed: Set[NodeId] = set()
        for node in current:
            self._conflict_streaks[node] = self._conflict_streaks.get(node, 0) + 1
            if self._conflict_streaks[node] >= patience:
                vetoed.add(node)
        return vetoed

    def _far_node_has_priority(self, far_node: NodeId) -> bool:
        """Arbitration of pseudo-code line 16.

        Node-versus-node priorities are used when the far node already belongs
        to the local group; otherwise this is a group merge and group
        priorities are compared (unless disabled by configuration).
        """
        if far_node in self.view or not self.config.use_group_priorities:
            return self.priorities.node_has_priority_over_self(far_node)

        local_group_key = self.group_priority()
        far_group_key = self._estimated_group_priority(far_node)
        if far_group_key is None:
            # Unknown challenger: the local node keeps its group (the newcomer
            # will be truncated away), preserving continuity.
            return False
        return far_group_key < local_group_key

    def _estimated_group_priority(self, far_node: NodeId) -> Optional[Tuple[int, str]]:
        """Best known priority of the group the far node belongs to.

        When a received message advertises the far node as a member of the
        sender's *view*, the sender's advertised group priority is used;
        otherwise the far node's own priority (from the shipped priority
        tables) stands in for its group's priority.
        """
        candidates: List[Tuple[int, str]] = []
        for message in self.msg_set.values():
            if far_node in message.view_set and message.group_priority is not None:
                candidates.append(tuple(message.group_priority))  # type: ignore[arg-type]
            oldness = message.priority_map.get(far_node)
            if oldness is not None:
                candidates.append(priority_key(oldness, far_node))
        local_oldness = self.priorities.oldness_of(far_node)
        if local_oldness is not None:
            candidates.append(priority_key(local_oldness, far_node))
        if not candidates:
            return None
        return min(candidates)

    # -------------------------------------------------------- fault injection

    def corrupt_state(self, ghost_nodes: Optional[Mapping[NodeId, int]] = None,
                      view: Optional[Iterable[NodeId]] = None,
                      priority: Optional[int] = None,
                      quarantine_noise: Optional[Tuple[object, int]] = None,
                      append_levels: Optional[Iterable[NodeId]] = None) -> None:
        """Apply a transient memory corruption (used by :class:`repro.net.faults.FaultInjector`).

        Parameters
        ----------
        ghost_nodes:
            Mapping ``identity -> level``: each identity is inserted (unmarked)
            at the given level of the ancestor list, extending it if needed.
        view:
            Replace the view with an arbitrary member set.
        priority:
            Overwrite the local oldness counter.
        quarantine_noise:
            Pair ``(rng, limit)``: every tracked quarantine counter is replaced
            by a random value in ``[0, limit]``.
        append_levels:
            Identities appended as extra levels at the end of the list (makes
            it longer than ``Dmax + 1``).
        """
        if ghost_nodes:
            levels = [dict(level) for level in self.alist.levels]
            for ghost, position in ghost_nodes.items():
                position = max(0, int(position))
                while len(levels) <= position:
                    levels.append({})
                levels[position][ghost] = Mark.NONE
            self.alist = AncestorList(levels)
        if append_levels:
            levels = [dict(level) for level in self.alist.levels]
            for ghost in append_levels:
                levels.append({ghost: Mark.NONE})
            self.alist = AncestorList(levels)
        if view is not None:
            self.view = frozenset(set(view) | {self.node_id})
        if priority is not None:
            self.priorities.set_own(int(priority))
        if quarantine_noise is not None:
            rng, limit = quarantine_noise
            # alist.nodes() is a set; a fixed iteration order keeps the rng
            # draws — and hence the whole corrupted run — independent of
            # PYTHONHASHSEED, so campaign replicates reproduce across
            # interpreter invocations.
            for node in sorted(self.alist.nodes(), key=str):
                if node != self.node_id:
                    self.quarantine.force(node, int(rng.integers(0, max(1, limit) + 1)))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"GRPNode(id={self.node_id!r}, view={sorted(map(str, self.view))}, "
                f"list_len={len(self.alist)})")
