"""List admission tests: ``goodList`` and ``compatibleList``.

``goodList`` (paper, Function goodList) rejects malformed lists: lists that do
not witness the symmetric-link handshake (the receiver must appear — possibly
marked — among the sender's distance-1 identities), lists longer than
``Dmax + 1`` and lists containing an empty level.

``compatibleList`` (paper, Function compatibleList and Proposition 13) decides
whether accepting a new neighbour's list could force the group diameter past
``Dmax``.  Its role in the protocol is to *protect established groups*: a list
is rejected — and its sender double-marked — exactly when merging the sender's
group with the local group cannot be shown to respect the diameter bound.

Interpretation notes (see DESIGN.md for the full discussion)
------------------------------------------------------------
* The pseudo-code printed in the arXiv version compares the *entire* candidate
  lists of both nodes.  Taken literally this makes every boundary pair reject
  each other during the initial transient (both candidate lists already span
  the whole connected component), producing a livelock that the paper's proofs
  implicitly exclude by reasoning from already-safe configurations.  We
  therefore evaluate compatibility between the two **established groups** (the
  views, whose span is what continuity must protect); growth beyond the views
  is regulated by the quarantine and by the priority-based too-far arbitration.
* Proposition 13 bounds merged distances by path counting through the local
  node and through shortcut members adjacent to the sender.  We generalise the
  same idea into *pairwise position bounds*: for a local exclusive member ``x``
  and a remote exclusive member ``y``, every route whose length can be bounded
  from the two lists gives an upper bound on ``d(x, y)`` —

  - through the local node and the (symmetric, handshaked) local-sender edge:
    ``pos_local(x) + 1 + pos_received(y)``;
  - through the local node only, when ``y`` already appears in the local list:
    ``pos_local(x) + pos_local(y)``;
  - through the sender only, when ``x`` already appears in the received list:
    ``pos_received(x) + pos_received(y)``.

  The merge is accepted when every cross pair admits a bound ≤ ``Dmax``.
  Positions are lengths of real propagation paths, hence valid upper bounds on
  the corresponding graph distances; acceptance therefore never violates ΠS
  (validated empirically by experiment E10).  The *naive* variant used as the
  E10 ablation only applies the first route with whole-list spans, which is the
  ``s(listv) + s(list) <= Dmax + 1`` test of the paper's pseudo-code.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from .ancestor_list import AncestorList
from .identity import Mark, NodeId

__all__ = ["good_list", "compatible_list", "merged_pair_bound", "group_span"]

_INF = float("inf")


def good_list(received: AncestorList, receiver: NodeId, dmax: int) -> bool:
    """Paper's ``goodList``: handshake witnessed, not too long, no empty level.

    Following the prose of Section 4.1 ("when v receives a list from u that
    contains either v or v̄, then it adds u in its list"), the handshake is
    witnessed when the receiver appears *anywhere* in the list — either marked
    among the sender's direct neighbours (first leg of the handshake) or
    unmarked at any level (the sender already counts the receiver among its
    group candidates, e.g. through an alternate path while the direct link is
    re-forming).  Restricting the test to level 1 only — as the printed
    pseudo-code does — makes every radio-range boundary flap demote an
    established member and breaks continuity in situations where ΠT holds.
    """
    if len(received) > dmax + 1:
        return False
    if received.has_empty_level():
        return False
    if received.position_of(receiver) == 1:
        return True
    return received.mark_of(receiver) is Mark.NONE


def group_span(alist: AncestorList, members: Optional[Iterable[NodeId]] = None,
               exclude: Iterable[NodeId] = ()) -> int:
    """Largest occupied level of ``alist`` restricted to ``members`` (0 when empty).

    This is the quantity ``p`` (resp. ``q``) of Proposition 13: the distance of
    the farthest established-group member known through the list.
    """
    restricted = alist.stripped()
    if members is not None:
        restricted = restricted.restricted_to(members)
    exclude = set(exclude)
    if exclude:
        restricted = restricted.without_nodes(exclude)
    return max(len(restricted) - 1, 0)


def merged_pair_bound(pos_local: Dict[NodeId, int], pos_received: Dict[NodeId, int],
                      x: NodeId, y: NodeId) -> float:
    """Best available upper bound on d(x, y) after the merge (see module docstring)."""
    best = _INF
    px_local = pos_local.get(x)
    py_local = pos_local.get(y)
    px_recv = pos_received.get(x)
    py_recv = pos_received.get(y)
    if px_local is not None and py_recv is not None:
        best = min(best, px_local + 1 + py_recv)
    if px_local is not None and py_local is not None:
        best = min(best, px_local + py_local)
    if px_recv is not None and py_recv is not None:
        best = min(best, px_recv + py_recv)
    if py_local is not None and px_recv is not None:
        best = min(best, py_local + 1 + px_recv)
    return best


def compatible_list(local: AncestorList, received: AncestorList, receiver: NodeId,
                    dmax: int, optimized: bool = True,
                    local_members: Optional[Iterable[NodeId]] = None,
                    sender_members: Optional[Iterable[NodeId]] = None) -> bool:
    """Paper's ``compatibleList``: can the sender's group merge with ours?

    Parameters
    ----------
    local:
        The receiver's current ancestor list.
    received:
        The (goodList-approved) list sent by the candidate neighbour.
    receiver:
        Identity of the local node.
    dmax:
        Group diameter bound.
    optimized:
        When ``False``, only the naive whole-span length test is applied — the
        ablation of experiment E10.
    local_members:
        Members of the local established group (the view).  ``None`` means the
        whole unmarked content of ``local`` (the paper's literal reading).
    sender_members:
        Members of the sender's established group (shipped in the message).
        ``None`` means the whole unmarked content of ``received``.
    """
    local_view: Set[NodeId] = (set(local_members) if local_members is not None
                               else set(local.unmarked_nodes()) | {receiver})
    sender_view: Set[NodeId] = (set(sender_members) if sender_members is not None
                                else set(received.stripped(receiver=receiver).nodes()))
    local_exclusive = local_view - sender_view
    sender_exclusive = sender_view - local_view - {receiver}
    if not sender_exclusive or not local_exclusive:
        # Nothing new on one of the sides: the merged group is contained in a
        # group that already satisfies the diameter bound.
        return True

    if not optimized:
        # Naive test of the pseudo-code: sum of the whole-group spans.
        p = group_span(local, local_exclusive)
        q = group_span(received, sender_exclusive, exclude={receiver})
        return p + 1 + q <= dmax

    # Marks are included: a marked direct neighbour still witnesses a one-hop path.
    pos_local = local.positions()
    pos_received = received.positions()
    # The local node is at distance 0 from itself whatever (possibly corrupted)
    # occurrence of its identity the list contains.
    pos_local[receiver] = 0
    for x in local_exclusive:
        for y in sender_exclusive:
            if x == y:
                continue
            bound = merged_pair_bound(pos_local, pos_received, x, y)
            if bound > dmax:
                return False
    return True
