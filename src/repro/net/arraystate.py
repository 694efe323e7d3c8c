"""Array-native simulation state: SoA node store + CSR link-state.

The object-per-node core caps the simulator at toy sizes: positions live in a
``node -> tuple`` dict, link-state in per-node dicts patched one python
operation at a time, and every broadcast materializes fresh python lists.
This module provides the structure-of-arrays backend behind the existing
:class:`repro.net.network.Network` APIs:

* :class:`NodeArrayStore` — the network's only node table: one contiguous
  ``N x 2`` float64 position array plus a per-row activity array,
  row-aligned Python lists of node ids and process objects, and a
  ``node id <-> row`` map.  The network creates it in its constructor.
  Rows are kept in insertion order (removal shifts the later rows down), so
  row order is the order every scan path visits nodes in; mobility steps
  and ``Network.set_positions`` become one masked array write.  Ids and
  processes live in lists, not object arrays, so the cyclic collector can
  traverse the network -> store -> process -> network cycle and free a
  discarded world.
* :class:`ArrayLinkState` — the symmetric link set of a uniform-link-radius
  radio stored as int32 CSR adjacency (``indptr`` / ``indices`` row arrays),
  rebuilt wholesale by a fully vectorized cell-binning pass whenever the
  position array changed.  Receiver lists, topology snapshots and
  ``neighbors_of`` queries are served from array slices; the indices arena is
  reused across rebuilds so steady-state mobility allocates nothing new.

Exactness story (the ``math.hypot`` contract)
---------------------------------------------
Every scalar path in this repository compares ``math.hypot(dx, dy) <= r``
(inclusive).  Vectorized distance evaluation is *not* bit-identical to that
predicate: element-wise ``np.hypot`` may differ from libm by one ulp on this
platform (measured: ~0.6% of random inputs), and the cheaper squared-distance
comparison ``dx*dx + dy*dy <= r*r`` carries a few ulps of rounding of its
own.  Either error can only flip the inclusive comparison when the distance
lies within a few ulps of ``r``, so the vectorized filter accepts/rejects
outright outside a guard band of relative width ``~1e-12`` around ``r*r``
(four orders of magnitude wider than the worst rounding error) and re-checks
the rare band candidates with ``math.hypot`` itself, on the identical
``dx``/``dy`` float values the scalar paths subtract.  The result is
*provably* the scalar predicate — the regression tests in
``tests/test_arraystate.py`` pin coincident points, exactly-at-range
placements and cell-edge positions, and the 500-node replay matrix holds the
backend to bit-identical runs.

Determinism
-----------
CSR adjacency rows are sorted by row, which is node *insertion order* (the
order the brute-force scan visits nodes in), so receiver lists and snapshot
edge insertion orders are identical to the brute-force scan — stochastic
channels consume their RNG streams identically whichever path produced the
candidate list.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..obs import current as _obs_current
from .topology import LinkSnapshot

__all__ = ["NodeArrayStore", "ArrayLinkState", "HYPOT_GUARD_BAND"]

#: Relative half-width of the re-check band around the link radius.  One ulp
#: of ``r`` is ``~2.2e-16 * r``; the band is ~10'000x wider, so a vectorized
#: ``np.hypot`` that is within a few ulps of libm can never misclassify a
#: candidate outside it.
HYPOT_GUARD_BAND = 1e-12

_INITIAL_CAPACITY = 64


class NodeArrayStore:
    """The network's node table: numeric columns in arrays, objects in lists.

    One row per node; rows are dense (``[0, n)``) and in insertion order, the
    determinism anchor of every scan path.  Removal shifts every later row
    down by one, so row indices are *not* stable across removals — consumers
    must translate through :attr:`row_of` per query (or rebuild, as
    :class:`ArrayLinkState` does).
    """

    __slots__ = ("xy", "active", "ids", "procs", "row_of", "n", "membership")

    def __init__(self) -> None:
        cap = _INITIAL_CAPACITY
        #: positions, row-aligned (only ``[:n]`` is meaningful)
        self.xy = np.empty((cap, 2), dtype=np.float64)
        #: activity mask, kept in sync by ``Network.notify_activation_change``
        self.active = np.empty(cap, dtype=bool)
        #: node identifiers, row-aligned
        self.ids: List[Hashable] = []
        #: process objects, row-aligned (delivery loops gather these)
        self.procs: List[object] = []
        self.row_of: Dict[Hashable, int] = {}
        self.n = 0
        #: bumped by every insert and remove: an unchanged value proves the
        #: row -> (id, process) mapping is the one last seen
        self.membership = 0

    def __len__(self) -> int:
        return self.n

    def __contains__(self, node: Hashable) -> bool:
        return node in self.row_of

    def _grow(self) -> None:
        cap = max(_INITIAL_CAPACITY, 2 * self.xy.shape[0])
        for name in ("xy", "active"):
            old = getattr(self, name)
            shape = (cap,) + old.shape[1:]
            new = np.empty(shape, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    def insert(self, node: Hashable, pos: Tuple[float, float],
               proc: object, active: bool) -> int:
        """Append a row for ``node``; returns the row index."""
        if node in self.row_of:
            raise ValueError(f"node {node!r} already stored")
        if self.n == self.xy.shape[0]:
            self._grow()
        row = self.n
        self.xy[row, 0] = pos[0]
        self.xy[row, 1] = pos[1]
        self.active[row] = active
        self.ids.append(node)
        self.procs.append(proc)
        self.row_of[node] = row
        self.n += 1
        self.membership += 1
        return row

    def remove(self, node: Hashable) -> None:
        """Drop ``node``'s row, shifting every later row down by one."""
        row = self.row_of.pop(node)
        last = self.n - 1
        self.xy[row:last] = self.xy[row + 1:last + 1]
        self.active[row:last] = self.active[row + 1:last + 1]
        ids = self.ids
        del ids[row]
        del self.procs[row]
        row_of = self.row_of
        for k in range(row, last):
            row_of[ids[k]] = k
        self.n = last
        self.membership += 1

    def update(self, node: Hashable, pos: Tuple[float, float]) -> None:
        """Write one node's position (scalar move)."""
        row = self.row_of[node]
        self.xy[row, 0] = pos[0]
        self.xy[row, 1] = pos[1]

    def write_rows(self, rows: np.ndarray, coords: np.ndarray) -> None:
        """Masked bulk position write: ``xy[rows] = coords`` in one operation."""
        self.xy[rows] = coords

    def set_active(self, node: Hashable, active: bool) -> None:
        row = self.row_of.get(node)
        if row is not None:
            self.active[row] = active

    def position_of(self, node: Hashable) -> Tuple[float, float]:
        row = self.row_of[node]
        return (float(self.xy[row, 0]), float(self.xy[row, 1]))


class ArrayLinkState:
    """Symmetric uniform-radius link set as CSR adjacency over array rows.

    Valid only for radios exposing a single inclusive link radius
    (:meth:`repro.net.radio.RadioModel.uniform_link_radius`), for which the
    link relation is symmetric and a pure distance threshold — the regime of
    every stock scenario.  Non-uniform radios take the network's brute-force
    scan.

    The CSR arrays are refreshed lazily (first query after any position /
    membership delta).  Two refresh strategies share the same filtered arc
    predicate:

    * **full rebuild** (:meth:`_rebuild`) — one vectorized cell-binning pass
      over every row; the reference implementation and the fallback.
    * **incremental patch** (:meth:`_patch`) — when only a small fraction of
      rows moved since the last build (``mark_row_dirty`` /
      ``mark_rows_dirty``, fed by ``Network`` moves and bulk position
      writes), re-derive just the arcs with a moved endpoint from the cell
      binning cached at the last full rebuild, and splice them into the kept
      remainder of the CSR, with the same guard-band + scalar
      ``math.hypot`` re-check as the rebuild — the patched CSR is
      provably byte-identical to what :meth:`_rebuild` would produce (see
      the :meth:`_patch` docstring for the argument).

    Membership changes (insert / remove) and wholesale invalidations always
    force a full rebuild; at high mobility the dirty-fraction threshold does
    the same, because a wholesale vectorized rebuild is then cheaper than
    patch bookkeeping.

    Query results mirror the network's scan paths bit-for-bit: same link
    membership (guard-banded squared-distance filter, see module docstring),
    same insertion-order sorting of adjacency.
    """

    #: Patch only when at most this fraction of rows is dirty (past it, a
    #: wholesale rebuild is cheaper than per-mover candidate harvesting).
    PATCH_MAX_FRACTION = 0.05
    #: ... but always allow patching a handful of rows, so small worlds
    #: (tests, examples) exercise the patch path too.
    PATCH_MIN_ROWS = 8
    #: Rebuild once the rows whose cached-binning cell went stale (every row
    #: that moved since the last full rebuild) exceed this fraction — the
    #: patch mini-pass degrades toward a full pass as the stale set grows.
    STALE_MAX_FRACTION = 0.25

    def __init__(self, radius: float, store: NodeArrayStore,
                 now_fn: Optional[Callable[[], float]] = None, obs=...,
                 incremental: bool = True):
        self.radius = float(radius)
        self.store = store
        #: serve small position deltas by patching the CSR in place
        self.incremental = bool(incremental)
        #: sim-clock reader for span correlation (the owning network passes
        #: its simulator's ``now``); purely observational.
        self._now_fn = now_fn
        # The network builds this cache lazily, possibly mid-run; it passes
        # its own captured context so the observation scope stays pinned at
        # *network* construction time (Ellipsis = standalone use, capture the
        # current context here).
        self._obs = _obs_current() if obs is ... else obs
        self._dirty = True
        #: row count the current CSR was built for (guards stale row maps)
        self._built_n = 0
        # Reusable arenas: grown geometrically, never shrunk, so steady-state
        # rebuilds write into the same buffers instead of reallocating.
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int32)
        self._m = 0  # arcs currently stored in the arena
        # Activity-filtered receiver view (token-stamped): parallel id/proc
        # lists holding only arcs into *active* rows, so per-sender receiver
        # batches are plain slices.  Rebuilt once per token (the network
        # passes its topology generation, which bumps on every activation /
        # position / membership change).
        self._active_token: object = None
        self._recv_indptr: List[int] = [0]
        self._recv_ids: List[Hashable] = []
        self._recv_procs: List[object] = []
        # The kept-arc rows and store membership the lists were gathered
        # for: a refresh that finds both unchanged keeps the lists.
        self._recv_rows = np.empty(0, dtype=np.int32)
        self._recv_membership = -1
        # Incremental-patch bookkeeping: which rows moved since the last CSR
        # refresh (``_dirty_rows``), which rows' cached-binning cell is
        # outdated though their CSR rows are current (``_stale_rows``), and
        # whether the next refresh must be a full rebuild (``_full`` — set by
        # membership changes and wholesale invalidations).
        self._dirty_rows: set = set()
        self._stale_rows: set = set()
        self._full = True
        # Cell binning cached by the last full rebuild (``None`` = no cache):
        # sorted-slot -> row permutation, unique occupied cell ids with their
        # bucket starts/counts, and the linearization parameters needed to
        # look up an arbitrary cell id after the fact.
        self._bin_perm: Optional[np.ndarray] = None
        self._bin_ucells = np.empty(0, dtype=np.int64)
        self._bin_starts = np.empty(0, dtype=np.int64)
        self._bin_counts = np.empty(0, dtype=np.int64)
        self._bin_cx0 = 0
        self._bin_ymin = 0
        self._bin_ymax = 0
        self._bin_span = 1
        #: refresh-path counters (tests and benchmarks assert which path ran)
        self.rebuild_count = 0
        self.patch_count = 0

    # ------------------------------------------------------------------ deltas

    def mark_dirty(self) -> None:
        """Positions / membership changed wholesale; rebuild on the next query."""
        self._dirty = True
        self._full = True
        self._dirty_rows.clear()

    def mark_row_dirty(self, row: int) -> None:
        """One row's position changed; patch (or rebuild) on the next query."""
        self._dirty = True
        if not self._full:
            self._dirty_rows.add(row)

    def mark_rows_dirty(self, rows: np.ndarray) -> None:
        """A batch of rows' positions changed (bulk mobility write)."""
        if len(rows) == 0:
            return
        self._dirty = True
        if not self._full:
            self._dirty_rows.update(np.asarray(rows).tolist())

    # ----------------------------------------------------------------- rebuild

    def _candidate_pairs(self, xy: np.ndarray, r: float,
                         save: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """All row pairs (i, j) that could be within ``r``, each exactly once.

        Classic cell-list harvest, fully vectorized: bin rows into cells of
        side ``r`` (k = 1 ring), emit same-cell pairs via rank offsets and
        cross-cell pairs via the four forward neighbour offsets, using
        ragged-range ``repeat``/``cumsum`` arithmetic — no python loop over
        cells or nodes.

        ``save=True`` additionally caches the cell binning (permutation,
        occupied-cell buckets, linearization parameters) for later
        incremental patching against these positions.
        """
        n = xy.shape[0]
        empty = np.empty(0, dtype=np.int64)
        if n < 2:
            return empty, empty
        cells = np.floor(xy / r).astype(np.int64)
        cx, cy = cells[:, 0], cells[:, 1]
        # Linearize with a padded column span so +-1 offsets in y never wrap
        # into a neighbouring x column.
        ymin = cy.min()
        ymax = cy.max()
        cx0 = cx.min()
        span = int(ymax - ymin) + 3
        cid = (cx - cx0 + 1) * span + (cy - ymin + 1)
        sort = np.argsort(cid, kind="stable")
        cid_s = cid[sort]
        # Bucket boundaries over the sorted cell ids.
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(cid_s[1:], cid_s[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        ucells = cid_s[starts]
        counts = np.diff(np.append(starts, n))
        if save:
            self._bin_perm = sort
            self._bin_ucells = ucells
            self._bin_starts = starts
            self._bin_counts = counts
            self._bin_cx0 = int(cx0)
            self._bin_ymin = int(ymin)
            self._bin_ymax = int(ymax)
            self._bin_span = span
        # bucket index and in-bucket rank of every sorted slot
        bucket_of = np.cumsum(boundary) - 1
        rank = np.arange(n, dtype=np.int64) - starts[bucket_of]

        slots = np.arange(n, dtype=np.int64)
        # One ragged emission for all five range sources per slot (own-bucket
        # tail + four forward neighbour cells): gathering the (lo, length)
        # pairs first and expanding them in a single repeat/cumsum pass keeps
        # the number of full-size numpy dispatches constant instead of
        # per-offset.  The four forward offsets cover every adjacent-cell
        # pair exactly once (k = 1 since cell side == r).
        src_parts = [slots]
        lo_parts = [slots + 1]
        len_parts = [starts[bucket_of] + counts[bucket_of] - slots - 1]
        last = len(ucells) - 1
        for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
            target = cid_s + dx * span + dy
            pos_c = np.minimum(np.searchsorted(ucells, target), last)
            hit = ucells[pos_c] == target
            src_parts.append(slots)
            lo_parts.append(np.where(hit, starts[pos_c], 0))
            len_parts.append(np.where(hit, counts[pos_c], 0))
        src_slots = np.concatenate(src_parts)
        lo = np.concatenate(lo_parts)
        lengths = np.concatenate(len_parts)
        keep = lengths > 0
        src_slots, lo, lengths = src_slots[keep], lo[keep], lengths[keep]
        total = int(lengths.sum())
        if not total:
            return empty, empty
        first = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=first[1:])
        offsets = np.arange(total, dtype=np.int64) - np.repeat(first, lengths)
        slot_i = np.repeat(src_slots, lengths)
        slot_j = lo.repeat(lengths) + offsets
        return sort[slot_i], sort[slot_j]

    def _filter_within(self, xy: np.ndarray, rows_i: np.ndarray,
                       rows_j: np.ndarray, r: float) -> np.ndarray:
        """Boolean mask: ``math.hypot(dx, dy) <= r``, computed vectorized.

        The bulk decision uses squared distances (``dx*dx + dy*dy`` vs
        ``r*r`` — cheaper than ``np.hypot`` and within a few ulps of exact);
        candidates inside the guard band around ``r*r`` (almost always none)
        are re-checked with ``math.hypot`` itself.  ``dx``/``dy`` are the
        identical float subtractions the scalar paths feed ``math.hypot``,
        so the mask equals the scalar predicate bit-for-bit.
        """
        x = np.ascontiguousarray(xy[:, 0])
        y = np.ascontiguousarray(xy[:, 1])
        dx = x[rows_i] - x[rows_j]
        dy = y[rows_i] - y[rows_j]
        sq = dx * dx
        sq += dy * dy
        rsq = r * r
        keep = sq <= rsq
        # Doubled relative band: squared-space errors are at most twice the
        # relative size of distance-space ones.
        tol = rsq * (2.0 * HYPOT_GUARD_BAND)
        band = np.flatnonzero(np.abs(sq - rsq) <= tol)
        if band.size:
            hypot = math.hypot
            for k in band.tolist():
                keep[k] = hypot(dx[k], dy[k]) <= r
        return keep

    def _rebuild(self) -> None:
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        store = self.store
        n = store.n
        r = self.radius
        xy = store.xy[:n]
        self._bin_perm = None
        rows_i, rows_j = self._candidate_pairs(xy, r, save=self.incremental)
        if rows_i.size:
            keep = self._filter_within(xy, rows_i, rows_j, r)
            rows_i, rows_j = rows_i[keep], rows_j[keep]
        m = 2 * rows_i.size
        if self._indices.shape[0] < m:
            self._indices = np.empty(max(m, 2 * self._indices.shape[0]),
                                     dtype=np.int32)
        if self._indptr.shape[0] < n + 1:
            self._indptr = np.zeros(max(n + 1, 2 * self._indptr.shape[0]),
                                    dtype=np.int64)
        if m:
            src = np.concatenate([rows_i, rows_j])
            dst = np.concatenate([rows_j, rows_i])
            # Group by source row, receivers sorted by row (insertion order)
            # — the exact sequence every scan path visits.  One fused sort
            # key (src-major, dst-minor) replaces a two-pass lexsort; keys
            # are unique per arc, so the unstable sort is deterministic.
            perm = np.argsort(src * n + dst)
            self._indices[:m] = dst[perm]
            counts = np.bincount(src, minlength=n)
        else:
            counts = np.zeros(n, dtype=np.int64)
        self._indptr[0] = 0
        np.cumsum(counts, out=self._indptr[1:n + 1])
        self._m = m
        self._built_n = n
        self._dirty = False
        self._full = False
        self._dirty_rows.clear()
        self._stale_rows.clear()
        self.rebuild_count += 1
        if obs is not None:
            now = self._now_fn() if self._now_fn is not None else 0.0
            obs.record_span("topology.csr_rebuild", now, t0,
                            {"nodes": n, "arcs": m})

    # ------------------------------------------------------------------- patch

    def _patch_candidates(self, dm: np.ndarray,
                          in_subset: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pairs (dirty row, unmoved row) from the cached binning.

        For every dirty row, harvest the rows binned (at the last full
        rebuild) into the 3x3 cell block around the dirty row's *current*
        cell.  Rows in ``in_subset`` (dirty or stale — their cached cell is
        outdated) are excluded here and handled by the mini-pass instead.
        Unmoved rows sit exactly where the binning put them, so this covers
        every possible (dirty, unmoved) link: two points within ``r`` always
        fall in adjacent cells of side ``r``.  Cells outside the bbox the
        binning ever occupied hold no rows, so out-of-range neighbour cells
        are simply dropped (sentinel id that matches no bucket).
        """
        r = self.radius
        xy = self.store.xy
        cells = np.floor(xy[dm] / r).astype(np.int64)
        mcx, mcy = cells[:, 0], cells[:, 1]
        span = self._bin_span
        ucells = self._bin_ucells
        last = len(ucells) - 1
        src_parts: List[np.ndarray] = []
        lo_parts: List[np.ndarray] = []
        len_parts: List[np.ndarray] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ncx = mcx + dx
                ncy = mcy + dy
                # The linearization is injective only for y-cells within one
                # ring of the build-time range; anything else was provably
                # unoccupied at build time (sentinel -1 never matches: every
                # occupied cell id is >= span + 1 > 0).
                valid = (ncy >= self._bin_ymin - 1) & (ncy <= self._bin_ymax + 1)
                target = np.where(
                    valid, (ncx - self._bin_cx0 + 1) * span + (ncy - self._bin_ymin + 1),
                    -1)
                pos_c = np.minimum(np.searchsorted(ucells, target), last)
                hit = ucells[pos_c] == target
                src_parts.append(dm)
                lo_parts.append(np.where(hit, self._bin_starts[pos_c], 0))
                len_parts.append(np.where(hit, self._bin_counts[pos_c], 0))
        src = np.concatenate(src_parts)
        lo = np.concatenate(lo_parts)
        lengths = np.concatenate(len_parts)
        keep = lengths > 0
        src, lo, lengths = src[keep], lo[keep], lengths[keep]
        total = int(lengths.sum())
        empty = np.empty(0, dtype=np.int64)
        if not total:
            return empty, empty
        first = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=first[1:])
        offsets = np.arange(total, dtype=np.int64) - np.repeat(first, lengths)
        pair_i = np.repeat(src, lengths)
        pair_j = self._bin_perm[lo.repeat(lengths) + offsets]
        keep_j = ~in_subset[pair_j]
        return pair_i[keep_j], pair_j[keep_j]

    def _patch(self) -> None:
        """Splice the arcs of the dirty rows into the existing CSR.

        Byte-identical to :meth:`_rebuild` by construction:

        * an arc can only appear/disappear if an endpoint moved, i.e. has a
          dirty endpoint — so dropping every old arc with a dirty endpoint
          and re-deriving exactly the pairs with >= 1 dirty endpoint touches
          the complete change set;
        * candidate coverage: (dirty, unmoved) pairs come from the cached
          binning (:meth:`_patch_candidates`); pairs where *both* endpoints
          moved since the last rebuild (dirty or stale — stale rows' CSR is
          current but their cached cell is not) come from a fresh mini
          cell-binning pass over just those rows.  The two sources partition
          the candidate space, so no pair is emitted twice;
        * the exact same guard-banded ``math.hypot`` filter decides
          membership, on the same float subtractions (``hypot`` is symmetric
          under the sign flip of reversing a pair);
        * the merge keeps the CSR invariant — rows grouped by source,
          receivers sorted by insertion order — via the same unique fused
          key the rebuild sorts by, so the merged arrays equal a full
          rebuild's output element for element.
        """
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        store = self.store
        n = self._built_n
        r = self.radius
        xy = store.xy[:n]
        dm = np.fromiter(self._dirty_rows, dtype=np.int64,
                         count=len(self._dirty_rows))
        dm.sort()
        dirty_mask = np.zeros(n, dtype=bool)
        dirty_mask[dm] = True
        # Rows whose position postdates the cached binning: dirty now, or
        # moved by an earlier patch (stale).  The mini-pass re-bins these.
        in_subset = dirty_mask.copy()
        if self._stale_rows:
            in_subset[np.fromiter(self._stale_rows, dtype=np.int64,
                                  count=len(self._stale_rows))] = True
        sub_rows = np.flatnonzero(in_subset)
        # (dirty, unmoved) candidates from the cached binning ...
        cand_i, cand_j = self._patch_candidates(dm, in_subset)
        # ... plus (moved, moved) candidates from a mini-pass over the moved
        # subset at current positions, kept only when a dirty row is involved
        # (stale-stale pairs are already correct in the CSR).
        sub_i, sub_j = self._candidate_pairs(xy[sub_rows], r)
        if sub_i.size:
            sub_i = sub_rows[sub_i]
            sub_j = sub_rows[sub_j]
            keep_dirty = dirty_mask[sub_i] | dirty_mask[sub_j]
            sub_i, sub_j = sub_i[keep_dirty], sub_j[keep_dirty]
            cand_i = np.concatenate([cand_i, sub_i])
            cand_j = np.concatenate([cand_j, sub_j])
        if cand_i.size:
            keep = self._filter_within(xy, cand_i, cand_j, r)
            cand_i, cand_j = cand_i[keep], cand_j[keep]
        # Old arcs that survive: neither endpoint dirty.  (Arcs with a stale
        # endpoint were patched current when that endpoint was dirty.)
        m_old = self._m
        src_old = np.repeat(np.arange(n, dtype=np.int64),
                            np.diff(self._indptr[:n + 1]))
        dst_old = self._indices[:m_old].astype(np.int64, copy=False)
        keep_old = ~(dirty_mask[src_old] | dirty_mask[dst_old])
        src_k, dst_k = src_old[keep_old], dst_old[keep_old]
        # New arcs: both directions of every surviving candidate pair.
        src_new = np.concatenate([cand_i, cand_j])
        dst_new = np.concatenate([cand_j, cand_i])
        # Kept arcs inherit the CSR's ordering, so their fused keys are
        # already ascending; sort only the (small) new-arc set and merge
        # positionally.  Keys are unique per arc and the two sets are
        # disjoint (kept arcs have no dirty endpoint, new arcs have one).
        key_k = src_k * n + dst_k
        key_n = src_new * n + dst_new
        perm = np.argsort(key_n)
        src_new, dst_new, key_n = src_new[perm], dst_new[perm], key_n[perm]
        m = len(src_k) + len(src_new)
        if self._indices.shape[0] < m:
            self._indices = np.empty(max(m, 2 * self._indices.shape[0]),
                                     dtype=np.int32)
        out_pos_new = np.searchsorted(key_k, key_n) + np.arange(len(key_n),
                                                               dtype=np.int64)
        old_mask = np.ones(m, dtype=bool)
        old_mask[out_pos_new] = False
        merged = np.empty(m, dtype=np.int32)
        merged[old_mask] = dst_k
        merged[out_pos_new] = dst_new
        self._indices[:m] = merged
        counts = np.bincount(src_k, minlength=n) + np.bincount(src_new,
                                                               minlength=n)
        self._indptr[0] = 0
        np.cumsum(counts, out=self._indptr[1:n + 1])
        self._m = m
        self._dirty = False
        self._stale_rows.update(self._dirty_rows)
        self._dirty_rows.clear()
        self.patch_count += 1
        if obs is not None:
            now = self._now_fn() if self._now_fn is not None else 0.0
            obs.record_span("topology.csr_patch", now, t0,
                            {"nodes": n, "arcs": m, "dirty": len(dm)})

    def _ensure(self) -> None:
        if not (self._dirty or self._built_n != self.store.n):
            return
        n = self.store.n
        dirty = len(self._dirty_rows)
        if (self._full or not self.incremental or self._bin_perm is None
                or self._built_n != n or dirty == 0
                or dirty > max(self.PATCH_MIN_ROWS, self.PATCH_MAX_FRACTION * n)
                or (dirty + len(self._stale_rows)
                    > self.STALE_MAX_FRACTION * n)):
            self._rebuild()
        else:
            self._patch()

    # ----------------------------------------------------------------- queries

    def out_rows(self, node: Hashable) -> np.ndarray:
        """Link-partner rows of ``node``, sorted by insertion order (a view)."""
        self._ensure()
        row = self.store.row_of[node]
        indptr = self._indptr
        return self._indices[indptr[row]:indptr[row + 1]]

    def out_neighbors_sorted(self, node: Hashable) -> List[Hashable]:
        """Link partners of ``node`` as ids, in insertion order."""
        ids = self.store.ids
        return [ids[row] for row in self.out_rows(node).tolist()]

    def _refresh_active(self, token: object) -> None:
        """One-shot build of the activity-filtered receiver lists.

        Filters the whole CSR against the activity mask in a single pass and
        gathers ids / process objects for every kept arc, so per-sender
        receiver batches become plain slices.  ``token`` is the caller's
        change counter (the network's topology generation): it bumps on every
        activation, position or membership delta, so a matching token proves
        the filtered view is current.  Many bumps leave the kept arcs as they
        were (a move within range, a flip of an isolated node); when the kept
        rows and the store membership both match the last gather, the id and
        process lists are kept and only the per-sender offsets are redone.
        """
        self._ensure()
        n = self._built_n
        m = self._m
        idx = self._indices[:m]
        keep = self.store.active[idx]
        kept = idx[keep]
        # Per-source kept counts via a prefix sum over the keep mask — robust
        # to empty adjacency rows (unlike ``reduceat``).
        csum = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(keep, out=csum[1:])
        # Kept as a python list: per-sender slicing with python ints is
        # measurably faster than with numpy scalars.
        self._recv_indptr = csum[self._indptr[:n + 1]].tolist()
        membership = self.store.membership
        if membership != self._recv_membership or not np.array_equal(kept, self._recv_rows):
            rows = kept.tolist()
            ids = self.store.ids
            procs = self.store.procs
            self._recv_ids = [ids[row] for row in rows]
            self._recv_procs = [procs[row] for row in rows]
            self._recv_rows = kept
            self._recv_membership = membership
        self._active_token = token

    def active_receivers(self, node: Hashable,
                         token: object) -> Tuple[List[Hashable], List[object]]:
        """(ids, processes) of the *active* link partners, as fresh lists.

        This is the broadcast receiver batch, insertion-ordered.  The first
        query per ``token`` filters the whole adjacency in one vectorized
        pass; every later query is two list slices.
        """
        if (token != self._active_token or self._dirty
                or self._built_n != self.store.n):
            self._refresh_active(token)
        row = self.store.row_of[node]
        indptr = self._recv_indptr
        lo = indptr[row]
        hi = indptr[row + 1]
        return self._recv_ids[lo:hi], self._recv_procs[lo:hi]

    def link_snapshot(self, active_rows: np.ndarray) -> LinkSnapshot:
        """The symmetric links among ``active_rows`` as a :class:`LinkSnapshot`.

        Snapshot rows are the active store rows in insertion order, so its
        ascending rows give the exact edge sequence of the scan-based
        snapshot builds.  The arrays are fresh: later rebuilds and patches
        rewrite the arena in place and must not reach a taken snapshot.
        """
        self._ensure()
        n = self._built_n
        store = self.store
        rows = np.flatnonzero(active_rows[:n])
        rank = np.full(n, -1, dtype=np.int64)
        rank[rows] = np.arange(rows.size)
        src = rank[np.repeat(np.arange(n), np.diff(self._indptr[:n + 1]))]
        dst = rank[self._indices[:self._m]]
        keep = (src >= 0) & (dst >= 0)
        ids = store.ids
        return LinkSnapshot.from_arcs([ids[row] for row in rows.tolist()],
                                      src[keep], dst[keep])

    def directed_arcs(self, active_rows: np.ndarray) -> List[Tuple[Hashable, Hashable]]:
        """Directed arcs over ``active_rows``, sorted by (row of u, row of v).

        CSR rows are grouped by source and sorted by destination, so the
        arcs come out in that order with no sort.
        """
        self._ensure()
        n = self._built_n
        m = self._m
        if not m:
            return []
        store = self.store
        src = np.repeat(np.arange(n, dtype=np.int64),
                        np.diff(self._indptr[:n + 1]))
        dst = self._indices[:m].astype(np.int64, copy=False)
        keep = active_rows[src] & active_rows[dst]
        ids = store.ids
        return [(ids[u], ids[v])
                for u, v in zip(src[keep].tolist(), dst[keep].tolist())]

    def arcs(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Every directed link, grouped by source row (test/debug helper)."""
        self._ensure()
        ids = self.store.ids
        indptr = self._indptr
        for row in range(self._built_n):
            u = ids[row]
            for v_row in self._indices[indptr[row]:indptr[row + 1]].tolist():
                yield (u, ids[v_row])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ArrayLinkState(radius={self.radius}, nodes={self.store.n}, "
                f"arcs={self._m}, dirty={self._dirty})")
