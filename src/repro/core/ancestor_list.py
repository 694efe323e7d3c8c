"""Ordered lists of ancestors' sets and the ``ant`` r-operator.

The central data structure of GRP (paper Section 4.2).  A node ``v`` maintains
an ordered list ``(a0, a1, ..., ap)`` where ``ai`` is the set of identities
believed to be at distance ``i`` from ``v`` (``a0 = {v}``).  Lists are combined
with:

* ``⊕`` (:meth:`AncestorList.merge`): level-wise union followed by duplicate
  removal — an identity is kept only at its smallest level — and removal of
  trailing empty levels;
* ``r`` (:meth:`AncestorList.shifted`): prepend an empty level (one more hop);
* ``ant(l1, l2) = l1 ⊕ r(l2)`` (:meth:`AncestorList.ant`), the strictly
  idempotent r-operator the stabilization proofs rely on.

Every identity occurrence carries a :class:`~repro.core.identity.Mark`.
Instances are immutable; all operations return new lists.

Internally a list is a tuple of ``{node: mark}`` dicts holding marks as plain
ints (``Mark`` values): the ``⊕`` folds run once per neighbour per round, and
enum construction dominated their cost.  The public accessors (:attr:`levels`,
:meth:`level`, :meth:`mark_of`, iteration, ``repr``) hand out
:class:`~repro.core.identity.Mark` members, so identity tests such as
``mark is Mark.NONE`` keep working.  Only untrusted input (the constructor and
:meth:`AncestorList.from_wire`) is canonicalized; every operation builds its
result canonical by construction and skips that pass.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .identity import Mark, NodeId

__all__ = ["AncestorList", "WireList"]

#: Wire representation: a tuple of levels, each level a tuple of (node, mark-int)
#: pairs sorted by ``str(node)`` — hashable, comparable and JSON-friendly.
WireList = Tuple[Tuple[Tuple[NodeId, int], ...], ...]

#: Internal level: identity -> mark value (0, 1 or 2).
_Level = Dict[NodeId, int]

#: Mark members indexed by their value.
_MARKS: Tuple[Mark, ...] = tuple(Mark)
#: Accepted mark spellings (members, ints, anything equal to them) -> plain int.
_MARK_VALUES: Dict[Mark, int] = {mark: int(mark) for mark in Mark}


def _mark_value(mark: object) -> int:
    """Validate an untrusted mark and return its plain int value."""
    value = _MARK_VALUES.get(mark)
    if value is None:
        value = int(Mark(mark))  # raises ValueError for a non-mark
    return value


def _normalize(levels: Sequence[Mapping[NodeId, Mark]]) -> Tuple[_Level, ...]:
    """Canonicalize untrusted levels: int marks, cross-level dedup, no trailing empties."""
    cleaned: List[_Level] = []
    seen: Dict[NodeId, int] = {}
    for index, level in enumerate(levels):
        new_level: _Level = {}
        for node, mark in level.items():
            mark = _mark_value(mark)
            if node in seen:
                # Keep the occurrence at the smallest level; if the duplicate is
                # at the same level, keep the strongest mark.
                if seen[node] == index:
                    new_level[node] = max(new_level[node], mark)
                continue
            new_level[node] = mark
            seen[node] = index
        cleaned.append(new_level)
    while cleaned and not cleaned[-1]:
        cleaned.pop()
    return tuple(cleaned)


def _fold(head: Sequence[_Level], tails: Iterable[Sequence[_Level]],
          shift: int) -> List[_Level]:
    """``head ⊕ rᵏ(tail₁) ⊕ rᵏ(tail₂) ⊕ …`` with ``k = shift``, in one pass.

    A level-wise union keeping each identity's strongest mark, followed by a
    single dedupe (an identity stays only at its smallest level).  Identities
    enter each level in first-appearance order, which is the order the
    pairwise chain of ``⊕`` produces too.  Inputs must be canonical and are
    not modified; trailing empty levels are left to the caller.
    """
    merged: List[_Level] = []
    # Marks are rare: levels are unioned with dict.update (last mark wins)
    # and the strongest non-zero mark of each (level, identity) is restored
    # afterwards — assigning an existing key keeps its position.
    strongest: Dict[Tuple[int, NodeId], int] = {}
    for levels, offset in chain(((head, 0),), ((tail, shift) for tail in tails)):
        missing = len(levels) + offset - len(merged)
        if missing > 0:
            merged.extend({} for _ in range(missing))
        for index, level in enumerate(levels, offset):
            merged[index].update(level)
            if any(level.values()):
                for node, mark in level.items():
                    if mark > strongest.get((index, node), 0):
                        strongest[index, node] = mark
    for (index, node), mark in strongest.items():
        merged[index][node] = mark
    seen: Set[NodeId] = set()
    for index, level in enumerate(merged):
        if not seen.isdisjoint(level):
            merged[index] = level = {node: mark for node, mark in level.items()
                                     if node not in seen}
        seen.update(level)
    return merged


class AncestorList:
    """Immutable ordered list of ancestors' sets.

    Parameters
    ----------
    levels:
        Sequence of mappings ``{node: mark}``; duplicates across levels are
        removed (smallest level wins) and trailing empty levels are dropped.
    """

    __slots__ = ("_levels", "_hash", "_positions")

    def __init__(self, levels: Sequence[Mapping[NodeId, Mark]] = ()):
        self._levels = _normalize(levels)
        self._hash: Optional[int] = None
        self._positions: Optional[Dict[NodeId, int]] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(cls, levels: Sequence[_Level]) -> "AncestorList":
        """Wrap canonical int-mark levels, dropping trailing empty levels.

        The levels must hold no identity twice and are shared, not copied:
        callers hand over dicts nothing else mutates.
        """
        end = len(levels)
        while end and not levels[end - 1]:
            end -= 1
        alist = object.__new__(cls)
        alist._levels = tuple(levels[:end])
        alist._hash = None
        alist._positions = None
        return alist

    @classmethod
    def singleton(cls, node: NodeId, mark: Mark = Mark.NONE) -> "AncestorList":
        """The list ``({node})`` — a node's initial knowledge, or a rejected sender."""
        return cls._trusted(({node: _mark_value(mark)},))

    @classmethod
    def from_levels(cls, levels: Sequence[Iterable[NodeId]]) -> "AncestorList":
        """Build an unmarked list from plain sets of identities per level."""
        return cls(tuple(dict.fromkeys(level, 0) for level in levels))

    @classmethod
    def from_wire(cls, wire: WireList) -> "AncestorList":
        """Rebuild a list from its wire representation."""
        return cls(tuple(dict(level) for level in wire))

    # ----------------------------------------------------------------- queries

    @property
    def levels(self) -> Tuple[Dict[NodeId, Mark], ...]:
        """Levels as a tuple of ``{node: mark}`` dict copies."""
        return tuple({node: _MARKS[mark] for node, mark in level.items()}
                     for level in self._levels)

    def __len__(self) -> int:
        """Number of levels — ``s(list)`` in the paper's pseudo-code."""
        return len(self._levels)

    def __bool__(self) -> bool:
        return bool(self._levels)

    def level(self, index: int) -> Dict[NodeId, Mark]:
        """The set of identities (with marks) at distance ``index``; empty if absent."""
        if 0 <= index < len(self._levels):
            return {node: _MARKS[mark] for node, mark in self._levels[index].items()}
        return {}

    def level_nodes(self, index: int) -> Set[NodeId]:
        """Identities at distance ``index`` regardless of mark."""
        if 0 <= index < len(self._levels):
            return set(self._levels[index])
        return set()

    def nodes(self) -> Set[NodeId]:
        """All identities appearing in the list."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(level)
        return out

    def unmarked_nodes(self) -> Set[NodeId]:
        """Identities appearing with :attr:`Mark.NONE` (the view candidates)."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(node for node, mark in level.items() if not mark)
        return out

    def marked_nodes(self) -> Set[NodeId]:
        """Identities carrying a single or double mark."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(node for node, mark in level.items() if mark)
        return out

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` appears (marked or not)."""
        return any(node in level for level in self._levels)

    def __contains__(self, node: NodeId) -> bool:
        return self.contains(node)

    def position_of(self, node: NodeId) -> Optional[int]:
        """Level index of ``node`` or ``None`` when absent."""
        return self.positions().get(node)

    def positions(self) -> Dict[NodeId, int]:
        """Mapping identity -> level index (marked identities included).

        Built once per list and shared by every caller: the returned dict is
        read-only by contract and must not be modified.
        """
        positions = self._positions
        if positions is None:
            positions = self._positions = {node: index
                                           for index, level in enumerate(self._levels)
                                           for node in level}
        return positions

    def mark_of(self, node: NodeId) -> Optional[Mark]:
        """Mark carried by ``node`` or ``None`` when absent."""
        index = self.positions().get(node)
        return None if index is None else _MARKS[self._levels[index][node]]

    def has_empty_level(self) -> bool:
        """Whether any (non-trailing) level is empty — a malformed list."""
        return not all(self._levels)

    def size(self) -> int:
        """Total number of identities across all levels."""
        return sum(len(level) for level in self._levels)

    def __iter__(self) -> Iterator[Dict[NodeId, Mark]]:
        return iter(self.levels)

    # ------------------------------------------------------------- operations

    def merge(self, other: "AncestorList") -> "AncestorList":
        """The ``⊕`` operator: level-wise union with duplicate removal."""
        return AncestorList._trusted(_fold(self._levels, (other._levels,), 0))

    def __or__(self, other: "AncestorList") -> "AncestorList":
        return self.merge(other)

    def shifted(self) -> "AncestorList":
        """The ``r`` endomorphism: prepend an empty level (one additional hop)."""
        if not self._levels:
            return self
        return AncestorList._trusted(({},) + self._levels)

    def ant(self, other: "AncestorList") -> "AncestorList":
        """The ``ant`` r-operator: ``self ⊕ r(other)``."""
        return self.merge(other.shifted())

    def ant_fold(self, others: Iterable["AncestorList"]) -> "AncestorList":
        """``self ant l1 ant l2 ant … ant lk`` in one pass.

        Equal to the pairwise chain ``self.ant(l1).ant(l2)…`` (``⊕`` is
        associative and ``r`` distributes over it), but the union and the
        dedupe run once instead of once per list.
        """
        return AncestorList._trusted(
            _fold(self._levels, (other._levels for other in others), 1))

    def truncated(self, max_levels: int) -> "AncestorList":
        """Keep the first ``max_levels`` levels (pseudo-code line 28)."""
        if max_levels < 0:
            raise ValueError("max_levels must be non-negative")
        return AncestorList._trusted(self._levels[:max_levels])

    def without_marked(self, keep: Iterable[NodeId] = ()) -> "AncestorList":
        """Remove marked identities except those listed in ``keep``.

        This is pseudo-code line 2 ("delete marked nodes except v"): marked
        identities are neighbour-local information and must not be propagated.
        Trailing empty levels produced by the removal are dropped; intermediate
        empty levels are preserved (such a list is then rejected by goodList).
        Unmarked levels are shared as is, and a list without marks is returned
        unchanged.
        """
        keep = set(keep)
        if not any(any(level.values()) for level in self._levels):
            return self
        return AncestorList._trusted([
            {node: mark for node, mark in level.items() if not mark or node in keep}
            if any(level.values()) else level
            for level in self._levels])

    def sanitized_for(self, receiver: NodeId) -> "AncestorList":
        """Apply the reception filtering of pseudo-code line 2 for ``receiver``.

        Marked identities are neighbour-local information and must not be
        propagated, so every marked entry is removed **except** the receiver's
        own *single-marked* entry (the handshake witness).  A *double-marked*
        receiver entry is removed as well: per the paper's Proposition 3, a node
        double-marked by its neighbour must stop seeing itself in that
        neighbour's list so that the incompatibility is detected reciprocally
        (the subsequent ``goodList`` test then fails and only the sender's
        identity is kept, single-marked).
        """
        # Marks sit on direct neighbours only: unmarked levels are shared as is.
        return AncestorList._trusted([
            {node: mark for node, mark in level.items()
             if not mark or (mark == 1 and node == receiver)}
            if any(level.values()) else level
            for level in self._levels])

    def restricted_to(self, members: Iterable[NodeId]) -> "AncestorList":
        """Keep only the (unmarked) identities belonging to ``members``.

        Used to measure the span of an *established group* inside a list: the
        compatibility test compares group spans, not candidate spans, because
        compatibility is evaluated between established groups.
        """
        members = set(members)
        return AncestorList._trusted([
            {node: mark for node, mark in level.items() if not mark and node in members}
            for level in self._levels])

    def without_nodes(self, nodes: Iterable[NodeId]) -> "AncestorList":
        """Remove the given identities entirely (used for effective-length computations)."""
        drop = set(nodes)
        return AncestorList._trusted([
            {node: mark for node, mark in level.items() if node not in drop}
            for level in self._levels])

    def stripped(self, receiver: Optional[NodeId] = None) -> "AncestorList":
        """Effective list used by the compatibility test.

        Removes every marked identity and (optionally) the receiver's own
        identity: marked entries are neighbour-local annotations and the
        receiver is not a *new* member brought by the sender, so neither should
        count towards the prospective group diameter (Proposition 13).
        """
        drop: Set[NodeId] = set() if receiver is None else {receiver}
        return AncestorList._trusted([
            {node: mark for node, mark in level.items() if not mark and node not in drop}
            for level in self._levels])

    def relabel_mark(self, node: NodeId, mark: Mark) -> "AncestorList":
        """Return a copy where ``node`` (if present) carries ``mark``."""
        for index, level in enumerate(self._levels):
            if node in level:
                levels = list(self._levels)
                levels[index] = {**level, node: _mark_value(mark)}
                return AncestorList._trusted(levels)
        return self

    # ---------------------------------------------------------------- equality

    def to_wire(self) -> WireList:
        """Canonical, hashable wire representation."""
        return tuple(tuple(sorted(level.items(), key=lambda item: str(item[0])))
                     for level in self._levels)

    def __eq__(self, other: object) -> bool:
        # Levels are compared as dicts: by content, not insertion order.
        if not isinstance(other, AncestorList):
            return NotImplemented
        return self._levels == other._levels

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.to_wire())
        return self._hash

    def __repr__(self) -> str:
        def fmt(level: _Level) -> str:
            suffixes = ("", "'", "''")
            return "{" + ",".join(f"{node}{suffixes[level[node]]}"
                                  for node in sorted(level, key=str)) + "}"

        return "(" + ", ".join(fmt(level) for level in self._levels) + ")"
