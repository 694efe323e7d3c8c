"""Test-only reference copy of :class:`repro.core.ancestor_list.AncestorList`.

This is the straightforward implementation the production class replaced:
marks are stored as :class:`~repro.core.identity.Mark` members and every
operation goes through the normalizing constructor.  It is kept verbatim
(apart from this header and the absolute import) as the oracle of the
differential tests in ``tests/test_ancestor_list_reference.py``; nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple

from repro.core.identity import Mark, NodeId

__all__ = ["AncestorList", "WireList"]

#: Wire representation: a tuple of levels, each level a tuple of (node, mark-int)
#: pairs sorted by ``str(node)`` — hashable, comparable and JSON-friendly.
WireList = Tuple[Tuple[Tuple[NodeId, int], ...], ...]


def _normalize(levels: Sequence[Mapping[NodeId, Mark]],
               dedupe: bool = True) -> Tuple[Dict[NodeId, Mark], ...]:
    """Canonicalize levels: optional cross-level dedup, strip trailing empties."""
    cleaned: list = []
    seen: Dict[NodeId, int] = {}
    for index, level in enumerate(levels):
        new_level: Dict[NodeId, Mark] = {}
        for node, mark in level.items():
            mark = Mark(mark)
            if dedupe and node in seen:
                # Keep the occurrence at the smallest level; if the duplicate is
                # at the same level, keep the strongest mark.
                if seen[node] == index:
                    prev = new_level.get(node, Mark.NONE)
                    new_level[node] = Mark(max(prev, mark))
                continue
            if node in new_level:
                new_level[node] = Mark(max(new_level[node], mark))
            else:
                new_level[node] = mark
                seen[node] = index
        cleaned.append(new_level)
    while cleaned and not cleaned[-1]:
        cleaned.pop()
    return tuple(cleaned)


class AncestorList:
    """Immutable ordered list of ancestors' sets.

    Parameters
    ----------
    levels:
        Sequence of mappings ``{node: mark}``; duplicates across levels are
        removed (smallest level wins) and trailing empty levels are dropped.
    """

    __slots__ = ("_levels", "_hash")

    def __init__(self, levels: Sequence[Mapping[NodeId, Mark]] = ()):
        self._levels = _normalize(levels)
        self._hash: Optional[int] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def singleton(cls, node: NodeId, mark: Mark = Mark.NONE) -> "AncestorList":
        """The list ``({node})`` — a node's initial knowledge, or a rejected sender."""
        return cls(({node: Mark(mark)},))

    @classmethod
    def from_levels(cls, levels: Sequence[Iterable[NodeId]]) -> "AncestorList":
        """Build an unmarked list from plain sets of identities per level."""
        return cls(tuple({node: Mark.NONE for node in level} for level in levels))

    @classmethod
    def from_wire(cls, wire: WireList) -> "AncestorList":
        """Rebuild a list from its wire representation."""
        return cls(tuple({node: Mark(mark) for node, mark in level} for level in wire))

    # ----------------------------------------------------------------- queries

    @property
    def levels(self) -> Tuple[Dict[NodeId, Mark], ...]:
        """Levels as a tuple of ``{node: mark}`` dict copies."""
        return tuple(dict(level) for level in self._levels)

    def __len__(self) -> int:
        """Number of levels — ``s(list)`` in the paper's pseudo-code."""
        return len(self._levels)

    def __bool__(self) -> bool:
        return bool(self._levels)

    def level(self, index: int) -> Dict[NodeId, Mark]:
        """The set of identities (with marks) at distance ``index``; empty if absent."""
        if 0 <= index < len(self._levels):
            return dict(self._levels[index])
        return {}

    def level_nodes(self, index: int) -> Set[NodeId]:
        """Identities at distance ``index`` regardless of mark."""
        return set(self.level(index))

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
            out.update(node for node, mark in level.items() if mark is Mark.NONE)
        return out

    def marked_nodes(self) -> Set[NodeId]:
        """Identities carrying a single or double mark."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(node for node, mark in level.items() if mark is not Mark.NONE)
        return out

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` appears (marked or not)."""
        return any(node in level for level in self._levels)

    def __contains__(self, node: NodeId) -> bool:
        return self.contains(node)

    def position_of(self, node: NodeId) -> Optional[int]:
        """Level index of ``node`` or ``None`` when absent."""
        for index, level in enumerate(self._levels):
            if node in level:
                return index
        return None

    def mark_of(self, node: NodeId) -> Optional[Mark]:
        """Mark carried by ``node`` or ``None`` when absent."""
        for level in self._levels:
            if node in level:
                return level[node]
        return None

    def has_empty_level(self) -> bool:
        """Whether any (non-trailing) level is empty — a malformed list."""
        return any(not level for level in self._levels)

    def size(self) -> int:
        """Total number of identities across all levels."""
        return sum(len(level) for level in self._levels)

    def __iter__(self) -> Iterator[Dict[NodeId, Mark]]:
        return iter(self.levels)

    # ------------------------------------------------------------- operations

    def merge(self, other: "AncestorList") -> "AncestorList":
        """The ``⊕`` operator: level-wise union with duplicate removal."""
        merged = []
        for index in range(max(len(self._levels), len(other._levels))):
            level: Dict[NodeId, Mark] = {}
            for source in (self, other):
                if index < len(source._levels):
                    for node, mark in source._levels[index].items():
                        level[node] = Mark(max(level.get(node, Mark.NONE), mark))
            merged.append(level)
        return AncestorList(merged)

    def __or__(self, other: "AncestorList") -> "AncestorList":
        return self.merge(other)

    def shifted(self) -> "AncestorList":
        """The ``r`` endomorphism: prepend an empty level (one additional hop)."""
        if not self._levels:
            return AncestorList()
        return AncestorList(({},) + self._levels)

    def ant(self, other: "AncestorList") -> "AncestorList":
        """The ``ant`` r-operator: ``self ⊕ r(other)``."""
        return self.merge(other.shifted())

    def truncated(self, max_levels: int) -> "AncestorList":
        """Keep the first ``max_levels`` levels (pseudo-code line 28)."""
        if max_levels < 0:
            raise ValueError("max_levels must be non-negative")
        return AncestorList(self._levels[:max_levels])

    def without_marked(self, keep: Iterable[NodeId] = ()) -> "AncestorList":
        """Remove marked identities except those listed in ``keep``.

        This is pseudo-code line 2 ("delete marked nodes except v"): marked
        identities are neighbour-local information and must not be propagated.
        Trailing empty levels produced by the removal are dropped; intermediate
        empty levels are preserved (such a list is then rejected by goodList).
        """
        keep = set(keep)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if mark is Mark.NONE or node in keep})
        return AncestorList(levels)

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
        levels = []
        for level in self._levels:
            levels.append({
                node: mark for node, mark in level.items()
                if mark is Mark.NONE or (node == receiver and mark is Mark.SINGLE)
            })
        return AncestorList(levels)

    def restricted_to(self, members: Iterable[NodeId]) -> "AncestorList":
        """Keep only the (unmarked) identities belonging to ``members``.

        Used to measure the span of an *established group* inside a list: the
        compatibility test compares group spans, not candidate spans, because
        compatibility is evaluated between established groups.
        """
        members = set(members)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if node in members and mark is Mark.NONE})
        return AncestorList(levels)

    def without_nodes(self, nodes: Iterable[NodeId]) -> "AncestorList":
        """Remove the given identities entirely (used for effective-length computations)."""
        drop = set(nodes)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items() if node not in drop})
        return AncestorList(levels)

    def stripped(self, receiver: Optional[NodeId] = None) -> "AncestorList":
        """Effective list used by the compatibility test.

        Removes every marked identity and (optionally) the receiver's own
        identity: marked entries are neighbour-local annotations and the
        receiver is not a *new* member brought by the sender, so neither should
        count towards the prospective group diameter (Proposition 13).
        """
        drop: Set[NodeId] = set() if receiver is None else {receiver}
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if mark is Mark.NONE and node not in drop})
        return AncestorList(levels)

    def relabel_mark(self, node: NodeId, mark: Mark) -> "AncestorList":
        """Return a copy where ``node`` (if present) carries ``mark``."""
        levels = []
        for level in self._levels:
            new_level = dict(level)
            if node in new_level:
                new_level[node] = Mark(mark)
            levels.append(new_level)
        return AncestorList(levels)

    # ---------------------------------------------------------------- equality

    def to_wire(self) -> WireList:
        """Canonical, hashable wire representation."""
        return tuple(
            tuple(sorted(((node, int(mark)) for node, mark in level.items()),
                         key=lambda item: str(item[0])))
            for level in self._levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AncestorList):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.to_wire())
        return self._hash

    def __repr__(self) -> str:
        def fmt(level: Dict[NodeId, Mark]) -> str:
            parts = []
            for node in sorted(level, key=str):
                mark = level[node]
                suffix = {Mark.NONE: "", Mark.SINGLE: "'", Mark.DOUBLE: "''"}[mark]
                parts.append(f"{node}{suffix}")
            return "{" + ",".join(parts) + "}"

        return "(" + ", ".join(fmt(level) for level in self._levels) + ")"
