"""Unit tests for the quarantine mechanism."""

import pytest

from repro.core.quarantine import QuarantineTracker


class TestQuarantineTracker:
    def test_owner_always_cleared(self):
        tracker = QuarantineTracker("v", dmax=3)
        assert tracker.is_cleared("v")
        tracker.update({"v", "a"})
        assert tracker.counter("v") == 0

    def test_new_member_starts_at_dmax(self):
        tracker = QuarantineTracker("v", dmax=3)
        tracker.update({"a"})
        assert tracker.counter("a") == 3
        assert not tracker.is_cleared("a")

    def test_counter_decrements_each_round(self):
        tracker = QuarantineTracker("v", dmax=2)
        tracker.update({"a"})
        tracker.update({"a"})
        assert tracker.counter("a") == 1
        tracker.update({"a"})
        assert tracker.is_cleared("a")

    def test_departed_member_is_forgotten_and_restarts(self):
        tracker = QuarantineTracker("v", dmax=2)
        tracker.update({"a"})
        tracker.update({"a"})
        tracker.update(set())          # a left
        tracker.update({"a"})          # a came back
        assert tracker.counter("a") == 2

    def test_cleared_set(self):
        tracker = QuarantineTracker("v", dmax=1)
        tracker.update({"a", "b"})
        tracker.update({"a", "b"})
        assert tracker.cleared() == {"v", "a", "b"}

    def test_unknown_member_counter_is_dmax(self):
        tracker = QuarantineTracker("v", dmax=4)
        assert tracker.counter("stranger") == 4

    def test_force(self):
        tracker = QuarantineTracker("v", dmax=3)
        tracker.update({"a"})
        tracker.update({"a"})
        tracker.force("a", 1)
        assert tracker.counter("a") == 1
        tracker.force("v", 5)          # owner cannot be quarantined
        assert tracker.counter("v") == 0

    def test_clear_all(self):
        tracker = QuarantineTracker("v", dmax=3)
        tracker.update({"a", "b"})
        tracker.clear_all()
        assert tracker.counters() == {"v": 0}

    def test_invalid_dmax_rejected(self):
        with pytest.raises(ValueError):
            QuarantineTracker("v", dmax=0)
