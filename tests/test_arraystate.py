"""Unit and exactness tests for the array-native state backend.

:mod:`repro.net.arraystate` promises two things: the
:class:`NodeArrayStore` mirrors the network's node table exactly through any
insert/remove/update sequence (rows dense and in insertion order, removal
shifting the later rows down), and the :class:`ArrayLinkState` CSR adjacency equals the
scalar ``math.hypot(dx, dy) <= r`` link predicate *bit for bit* — the
guard-banded squared-distance filter may never flip an inclusive comparison,
even for coincident points, nodes exactly at range and cell-edge placements.
The ``decide_batch_fast`` parity tests hold the zero-delay channel shortcut
to the same standard: identical accept/drop counts, counters and RNG stream
as the full batch path.
"""

import math

import numpy as np
import pytest

from repro.net.arraystate import ArrayLinkState, NodeArrayStore
from repro.net.channel import CollisionChannel, LossyChannel, PerfectChannel
from repro.net.network import Network
from repro.net.radio import UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process


class Idle(Process):
    def on_message(self, sender, payload):
        pass


def make_store(points):
    store = NodeArrayStore()
    for i, pos in enumerate(points):
        store.insert(i, pos, proc=f"proc-{i}", active=True)
    return store


def brute_arcs(points, r):
    out = set()
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i != j and math.hypot(p[0] - q[0], p[1] - q[1]) <= r:
                out.add((i, j))
    return out


# ------------------------------------------------------------ NodeArrayStore


class TestNodeArrayStore:
    def test_insert_assigns_dense_rows(self):
        store = make_store([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)])
        assert len(store) == 3
        assert [store.row_of[i] for i in range(3)] == [0, 1, 2]
        assert store.position_of(1) == (1.0, 2.0)
        assert 2 in store and 7 not in store

    def test_duplicate_insert_rejected(self):
        store = make_store([(0.0, 0.0)])
        with pytest.raises(ValueError):
            store.insert(0, (1.0, 1.0), proc=None, active=True)

    def test_remove_shifts_later_rows_down(self):
        store = make_store([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        store.set_active(3, False)
        store.remove(1)
        assert len(store) == 3
        # Rows after the hole moved down by one, keeping insertion order;
        # every column must follow.
        assert [store.row_of[i] for i in (0, 2, 3)] == [0, 1, 2]
        assert store.position_of(2) == (2.0, 2.0)
        assert store.position_of(3) == (3.0, 3.0)
        assert store.active[:3].tolist() == [True, True, False]
        # The vacated tail row is gone: no reference to a removed process.
        assert store.ids == [0, 2, 3]
        assert store.procs == ["proc-0", "proc-2", "proc-3"]
        store.insert(1, (9.0, 9.0), proc="proc-1b", active=True)
        assert store.ids == [0, 2, 3, 1] and store.row_of[1] == 3

    def test_remove_last_row(self):
        store = make_store([(0.0, 0.0), (1.0, 1.0)])
        store.remove(1)
        assert len(store) == 1
        assert 1 not in store.row_of
        assert store.position_of(0) == (0.0, 0.0)

    def test_update_and_write_rows(self):
        store = make_store([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        store.update(1, (9.0, 9.0))
        assert store.position_of(1) == (9.0, 9.0)
        store.write_rows(np.array([0, 2]), np.array([[5.0, 5.0], [6.0, 6.0]]))
        assert store.position_of(0) == (5.0, 5.0)
        assert store.position_of(2) == (6.0, 6.0)

    def test_set_active_tracks_mask(self):
        store = make_store([(0.0, 0.0), (1.0, 1.0)])
        store.set_active(0, False)
        assert not store.active[store.row_of[0]]
        assert store.active[store.row_of[1]]
        store.set_active(99, False)  # unknown node: silent no-op

    def test_growth_beyond_initial_capacity(self):
        points = [(float(i), float(2 * i)) for i in range(200)]
        store = make_store(points)
        assert len(store) == 200
        for i in (0, 63, 64, 199):
            assert store.position_of(i) == points[i]
            assert store.row_of[i] == i


# ----------------------------------------------------- ArrayLinkState exactness


class TestArrayLinkStateExactness:
    def build(self, points, r):
        store = make_store(points)
        return ArrayLinkState(r, store)

    def assert_matches_brute(self, points, r):
        ls = self.build(points, r)
        assert set(ls.arcs()) == brute_arcs(points, r)

    def test_random_field_matches_brute_force(self):
        rng = np.random.default_rng(7)
        points = [tuple(map(float, p)) for p in rng.uniform(0, 400, size=(150, 2))]
        self.assert_matches_brute(points, 60.0)

    def test_coincident_points_all_linked(self):
        # Zero-distance pairs sit exactly on the sq <= r*r boundary when
        # r == 0 and well inside it otherwise; both must link.
        points = [(10.0, 10.0)] * 5 + [(10.0, 11.0)]
        ls = self.build(points, 2.0)
        arcs = set(ls.arcs())
        assert arcs == brute_arcs(points, 2.0)
        assert (0, 1) in arcs and (4, 5) in arcs

    def test_exactly_at_range_is_inclusive(self):
        # d == r exactly: the inclusive scalar predicate keeps the link, so
        # the guard-band re-check must too.  3-4-5 triangles make d == r
        # exact in floating point.
        points = [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (3.0, -4.0)]
        ls = self.build(points, 5.0)
        arcs = set(ls.arcs())
        assert arcs == brute_arcs(points, 5.0)
        assert (0, 1) in arcs and (1, 2) in arcs
        assert (0, 2) not in arcs  # d = 10 > 5

    def test_just_beyond_range_is_excluded(self):
        r = 5.0
        eps = math.ulp(5.0)
        points = [(0.0, 0.0), (r + eps, 0.0), (r, 0.0)]
        ls = self.build(points, r)
        arcs = set(ls.arcs())
        assert (0, 2) in arcs
        assert (0, 1) not in arcs

    def test_cell_edge_placements(self):
        # Nodes at exact multiples of the cell side (cell side == r in the
        # binning pass): every same-edge and cross-edge pair must match the
        # scalar predicate, including the corner pairs at exactly sqrt(2)*r
        # (excluded) and axis pairs at exactly r (included).
        r = 10.0
        points = [(x * r, y * r) for x in range(4) for y in range(4)]
        self.assert_matches_brute(points, r)
        ls = self.build(points, r)
        arcs = set(ls.arcs())
        assert (0, 1) in arcs       # (0,0)-(0,10): d == r
        assert (0, 5) not in arcs   # (0,0)-(10,10): d == sqrt(2)*r > r

    def test_negative_coordinates(self):
        rng = np.random.default_rng(3)
        points = [tuple(map(float, p)) for p in rng.uniform(-300, 300, size=(80, 2))]
        self.assert_matches_brute(points, 90.0)

    def test_rebuild_after_store_mutation(self):
        points = [(0.0, 0.0), (5.0, 0.0), (50.0, 0.0)]
        store = make_store(points)
        ls = ArrayLinkState(10.0, store)
        assert set(ls.arcs()) == {(0, 1), (1, 0)}
        store.update(2, (10.0, 0.0))
        ls.mark_dirty()
        assert set(ls.arcs()) == brute_arcs([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], 10.0)
        store.remove(1)
        assert set(ls.arcs()) == {(0, 2), (2, 0)}  # membership change auto-detected

    def test_active_receivers_filter_and_order(self):
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        store = make_store(points)
        ls = ArrayLinkState(10.0, store)
        ids, procs = ls.active_receivers(0, token=1)
        assert ids == [1, 2, 3]  # insertion order
        assert list(procs) == ["proc-1", "proc-2", "proc-3"]
        store.set_active(2, False)
        ids, procs = ls.active_receivers(0, token=2)  # new token -> refilter
        assert ids == [1, 3]
        assert list(procs) == ["proc-1", "proc-3"]
        # Same token serves the cached filtered view.
        ids_again, _ = ls.active_receivers(0, token=2)
        assert ids_again == [1, 3]


    def test_active_receivers_match_a_fresh_gather_under_random_deltas(self):
        """Refreshes that reuse the last id/process gather (kept arcs and
        membership unchanged) must serve what a fresh gather would."""
        rng = np.random.default_rng(7)
        r = 60.0
        pts = rng.uniform(0.0, 300.0, size=(40, 2))
        store = make_store([tuple(map(float, p)) for p in pts])
        ls = ArrayLinkState(r, store)
        removed = []
        reused = 0
        for token in range(1, 301):
            before = ls._recv_ids
            op = rng.random()
            if op < 0.35:
                row = int(rng.integers(0, store.n))
                # Mostly tiny moves, which rarely change a link.
                step = rng.normal(0.0, 1.0 if rng.random() < 0.8 else 40.0, 2)
                store.write_rows(np.array([row]), store.xy[row] + step)
                ls.mark_rows_dirty(np.array([row]))
            elif op < 0.75:
                node = store.ids[int(rng.integers(0, store.n))]
                store.set_active(node, not bool(store.active[store.row_of[node]]))
            elif op < 0.8:
                # A new process under the same id, row and position: the kept
                # rows stay equal, so only the membership stamp shows it.
                node = store.ids[-1]
                xy, active = store.position_of(node), bool(store.active[store.n - 1])
                store.remove(node)
                store.insert(node, xy, proc=f"proc-{node}-t{token}", active=active)
                ls.mark_dirty()
            elif op < 0.9 and store.n > 5:
                node = store.ids[int(rng.integers(0, store.n))]
                removed.append(node)
                store.remove(node)
                ls.mark_dirty()
            elif removed:
                node = removed.pop(int(rng.integers(0, len(removed))))
                store.insert(node, tuple(map(float, rng.uniform(0.0, 300.0, 2))),
                             proc=f"proc-{node}-t{token}", active=bool(rng.random() < 0.8))
                ls.mark_dirty()
            fresh = ArrayLinkState(r, store)
            for node in store.ids:
                assert ls.active_receivers(node, token) == fresh.active_receivers(node, token)
            reused += ls._recv_ids is before
        assert reused > 30  # the reuse branch, not only the regather, ran


# ------------------------------------------- incremental CSR patch exactness


class TestIncrementalPatchEquivalence:
    """The incremental CSR patch must be *byte*-identical to a full rebuild.

    Complements ``tests/test_linkstate.py``'s randomized delta-sequence test
    at the array level: after every batch of row moves, the patched ``_indptr``/
    ``_indices`` arenas must equal those a fresh full rebuild produces —
    same arcs, same receiver order, same dtypes — including coincident
    points, nodes exactly at range and cell-edge placements, and moves that
    leave the cached binning's occupied area entirely.
    """

    R = 60.0

    def reference_csr(self, store, r=None):
        ref = ArrayLinkState(self.R if r is None else r, store, incremental=False)
        ref._ensure()
        return (ref._indptr[: store.n + 1].copy(), ref._indices[: ref._m].copy())

    def assert_csr_equals_rebuild(self, ls, store, r=None):
        ls._ensure()
        got_indptr = ls._indptr[: store.n + 1]
        got_indices = ls._indices[: ls._m]
        ref_indptr, ref_indices = self.reference_csr(store, r)
        assert np.array_equal(got_indptr, ref_indptr)
        assert np.array_equal(got_indices, ref_indices)

    def test_randomized_delta_sequences_match_rebuild(self):
        rng = np.random.default_rng(42)
        patches = 0
        for _trial in range(8):
            n = int(rng.integers(30, 120))
            pts = rng.uniform(0.0, 400.0, size=(n, 2))
            store = make_store([tuple(map(float, p)) for p in pts])
            ls = ArrayLinkState(self.R, store, incremental=True)
            ls._ensure()  # initial full rebuild caches the cell binning
            next_id = n
            for _step in range(25):
                op = rng.random()
                if op < 0.08:
                    # Membership change: forces (and must survive) a rebuild.
                    store.insert(next_id, tuple(map(float, rng.uniform(0, 400, 2))),
                                 proc=f"proc-{next_id}", active=True)
                    next_id += 1
                    ls.mark_dirty()
                elif op < 0.14 and store.n > 10:
                    victim = store.ids[int(rng.integers(0, store.n))]
                    store.remove(victim)
                    ls.mark_dirty()
                else:
                    k = int(rng.integers(1, 6))
                    rows = rng.choice(store.n, size=k, replace=False)
                    # Mix in-area moves with excursions outside the cached
                    # binning's occupied cells (negative / far coordinates).
                    xy = rng.uniform(-80.0, 480.0, size=(k, 2))
                    store.write_rows(rows, xy)
                    ls.mark_rows_dirty(rows)
                self.assert_csr_equals_rebuild(ls, store)
            patches += ls.patch_count
        assert patches > 50  # the patch path, not the rebuild fallback, ran

    def test_patch_onto_coincident_and_exactly_at_range(self):
        # Far-away isolated padding keeps n large enough that two dirty rows
        # stay under the patch thresholds (tiny fields rebuild — cheaper).
        r = 5.0
        pad = [(2000.0 + 40.0 * i, 2000.0) for i in range(36)]
        store = make_store([(0.0, 0.0), (100.0, 100.0), (50.0, 50.0),
                            (200.0, 0.0)] + pad)
        ls = ArrayLinkState(r, store, incremental=True)
        ls._ensure()
        # Node 1 lands exactly on node 0 (coincident); node 3 lands at
        # d == r exactly (3-4-5 triangle) — both links must appear, bit-equal
        # to the rebuild's inclusive predicate.
        store.update(1, (0.0, 0.0))
        ls.mark_row_dirty(store.row_of[1])
        store.update(3, (3.0, 4.0))
        ls.mark_row_dirty(store.row_of[3])
        self.assert_csr_equals_rebuild(ls, store, r)
        arcs = set(ls.arcs())
        assert (0, 1) in arcs and (1, 0) in arcs
        assert (0, 3) in arcs and (1, 3) in arcs
        assert ls.patch_count == 1 and ls.rebuild_count == 1

    def test_patch_cell_edge_placements(self):
        # Movers landing on exact multiples of the cell side (== r): the
        # patched candidate harvest must keep axis pairs at exactly r and
        # exclude corner pairs at sqrt(2)*r, like the full binning pass.
        r = 10.0
        pts = [(x * r, y * r) for x in range(4) for y in range(4)]
        store = make_store(pts + [(1000.0, 1000.0), (1100.0, 1100.0)])
        ls = ArrayLinkState(r, store, incremental=True)
        ls._ensure()
        store.update(16, (2 * r, 4 * r))
        ls.mark_row_dirty(store.row_of[16])
        store.update(17, (4 * r, 2 * r))
        ls.mark_row_dirty(store.row_of[17])
        self.assert_csr_equals_rebuild(ls, store, r)
        arcs = set(ls.arcs())
        assert (16, 11) in arcs      # (20,40)-(20,30): d == r exactly
        assert (16, 7) not in arcs   # (20,40)-(10,30): d == sqrt(2)*r
        assert (17, 14) in arcs      # (40,20)-(30,20): d == r exactly
        assert ls.patch_count == 1

    def test_patch_pairs_between_two_movers(self):
        # Both endpoints dirty: the (moved, moved) mini-pass must find the
        # pair even though neither node sits where the cached binning put it.
        pad = [(5000.0 + 200.0 * i, 5000.0) for i in range(30)]
        store = make_store([(0.0, 0.0), (500.0, 0.0), (0.0, 500.0)] + pad)
        ls = ArrayLinkState(50.0, store, incremental=True)
        ls._ensure()
        assert set(ls.arcs()) == set()
        store.update(1, (900.0, 900.0))
        ls.mark_row_dirty(store.row_of[1])
        store.update(2, (930.0, 940.0))
        ls.mark_row_dirty(store.row_of[2])
        self.assert_csr_equals_rebuild(ls, store, 50.0)
        assert set(ls.arcs()) == {(1, 2), (2, 1)}
        assert ls.patch_count == 1

    def test_stale_accumulation_forces_rebuild(self):
        # Repeated small batches leave ever more rows whose cached-binning
        # cell is outdated; past STALE_MAX_FRACTION the refresh must fall
        # back to a rebuild (and stay exact throughout).
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 300.0, size=(60, 2))
        store = make_store([tuple(map(float, p)) for p in pts])
        ls = ArrayLinkState(self.R, store, incremental=True)
        ls._ensure()
        for _step in range(20):
            rows = rng.choice(store.n, size=3, replace=False)
            store.write_rows(rows, rng.uniform(0.0, 300.0, size=(3, 2)))
            ls.mark_rows_dirty(rows)
            self.assert_csr_equals_rebuild(ls, store)
        assert ls.rebuild_count > 1  # stale pressure triggered at least one
        assert ls.patch_count > 0

    def test_incremental_off_always_rebuilds(self):
        store = make_store([(0.0, 0.0), (10.0, 0.0)])
        ls = ArrayLinkState(15.0, store, incremental=False)
        ls._ensure()
        store.update(1, (5.0, 0.0))
        ls.mark_row_dirty(store.row_of[1])
        ls._ensure()
        assert ls.patch_count == 0 and ls.rebuild_count == 2


# ---------------------------------------------- network-level array semantics


class TestNetworkArrayBackend:
    def build(self, n=30, r=120.0, seed=5, area=400.0):
        sim = Simulator(seed=seed)
        network = Network(sim, radio=UnitDiskRadio(r))
        rng = np.random.default_rng(seed)
        for i in range(n):
            network.add_node(Idle(i), (float(rng.uniform(0, area)),
                                       float(rng.uniform(0, area))))
        return network

    def test_array_backend_engaged_for_uniform_radio(self):
        network = self.build()
        assert isinstance(network._link_state(), ArrayLinkState)


# ------------------------------------------------- decide_batch_fast parity


RECEIVERS = list(range(40))


class TestDecideBatchFastParity:
    """The zero-delay shortcut must be indistinguishable from decide_batch."""

    def test_perfect_channel_accepts_everything(self):
        channel = PerfectChannel()
        res = channel.decide_batch_fast("s", RECEIVERS, 0.0)
        assert res == (None, len(RECEIVERS))

    def test_perfect_channel_with_delay_declines(self):
        assert PerfectChannel(delay=0.5).decide_batch_fast("s", RECEIVERS, 0.0) is None

    def test_lossy_parity_counts_and_rng(self):
        fast = LossyChannel(loss_probability=0.3, rng=np.random.default_rng(11))
        slow = LossyChannel(loss_probability=0.3, rng=np.random.default_rng(11))
        for _ in range(10):
            mask, accepted = fast.decide_batch_fast("s", RECEIVERS, 0.0)
            batch = slow.decide_batch("s", RECEIVERS, 0.0)
            assert accepted == batch.accepted()
            assert mask.tolist() == list(batch.delivered)
            # Same RNG consumption: the streams stay in lockstep.
            assert (fast._rng.bit_generator.state
                    == slow._rng.bit_generator.state)
        assert fast.delivered == slow.delivered
        assert fast.dropped == slow.dropped

    def test_lossy_lossless_shortcut(self):
        channel = LossyChannel(loss_probability=0.0,
                               rng=np.random.default_rng(2))
        state_before = channel._rng.bit_generator.state
        assert channel.decide_batch_fast("s", RECEIVERS, 0.0) == (None, len(RECEIVERS))
        assert channel.delivered == len(RECEIVERS)
        # p == 0 consumes no randomness.
        assert channel._rng.bit_generator.state == state_before

    def test_lossy_with_delay_declines_without_rng_consumption(self):
        channel = LossyChannel(loss_probability=0.3, min_delay=0.1, max_delay=0.2,
                               rng=np.random.default_rng(4))
        state_before = channel._rng.bit_generator.state
        assert channel.decide_batch_fast("s", RECEIVERS, 0.0) is None
        assert channel._rng.bit_generator.state == state_before
        assert channel.delivered == 0 and channel.dropped == 0

    def test_lossy_empty_batch(self):
        channel = LossyChannel(loss_probability=0.3, rng=np.random.default_rng(6))
        assert channel.decide_batch_fast("s", [], 0.0) == (None, 0)

    def test_collision_channel_always_declines(self):
        channel = CollisionChannel(collision_window=0.1,
                                   rng=np.random.default_rng(8))
        state_before = channel._rng.bit_generator.state
        assert channel.decide_batch_fast("s", RECEIVERS, 0.0) is None
        assert channel._rng.bit_generator.state == state_before
