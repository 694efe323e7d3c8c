"""Unit tests for the discrete-event simulation kernel."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import observing
from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer
from reference_engine import ReferencePeriodicTimer, ReferenceSimulator


class TestScheduling:
    def test_events_run_in_time_order(self, simulator):
        order = []
        simulator.schedule(2.0, order.append, "b")
        simulator.schedule(1.0, order.append, "a")
        simulator.schedule(3.0, order.append, "c")
        simulator.run()
        assert order == ["a", "b", "c"]
        assert simulator.now == 3.0

    def test_ties_break_in_scheduling_order(self, simulator):
        order = []
        simulator.schedule(1.0, order.append, 1)
        simulator.schedule(1.0, order.append, 2)
        simulator.run()
        assert order == [1, 2]

    def test_schedule_in_the_past_raises(self, simulator):
        # A NaN time would order first in the queue and set the clock to NaN;
        # an infinite one would run last and leave the clock at infinity.
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(SimulationError, match=f"delay={delay}"):
                simulator.schedule(delay, lambda: None)
            with pytest.raises(SimulationError, match=f"delay={delay}"):
                simulator.schedule_many([1.0, delay], lambda: None, [(), ()])
        for period in (math.nan, math.inf):
            with pytest.raises(SimulationError, match=str(period)):
                PeriodicTimer(simulator, period, lambda: None)
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        for time in (0.5, math.nan, math.inf):
            with pytest.raises(SimulationError, match=str(time)):
                simulator.schedule_at(time, lambda: None)
            with pytest.raises(SimulationError, match=str(time)):
                simulator.advance_clock(time)
        assert simulator.pending_events == 0 and simulator.now == 1.0

    def test_cancelled_event_is_skipped(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        handle.cancel()
        simulator.run()
        assert fired == []
        assert handle.cancelled

    def test_run_until_respects_bound(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(5.0, fired.append, "b")
        simulator.run(until=2.0)
        assert fired == ["a"]
        assert simulator.now == 2.0
        simulator.run()
        assert fired == ["a", "b"]

    def test_max_events_bound(self, simulator):
        for i in range(10):
            simulator.schedule(float(i + 1), lambda: None)
        executed = simulator.run(max_events=4)
        assert executed == 4
        assert simulator.pending_events == 6

    def test_nested_scheduling_from_callbacks(self, simulator):
        seen = []

        def fire(depth):
            seen.append(depth)
            if depth < 3:
                simulator.schedule(1.0, fire, depth + 1)

        simulator.schedule(1.0, fire, 0)
        simulator.run()
        assert seen == [0, 1, 2, 3]
        assert simulator.now == 4.0

    def test_step_returns_false_when_empty(self, simulator):
        assert not simulator.step()

    def test_processed_event_counter(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.processed_events == 2

    def test_pending_events_live_counter(self, simulator):
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert simulator.pending_events == 5
        handles[0].cancel()
        handles[0].cancel()  # double cancel must not double-decrement
        assert simulator.pending_events == 4
        simulator.run(max_events=2)
        assert simulator.pending_events == 2
        handles[4].cancel()
        assert simulator.pending_events == 1
        simulator.run()
        assert simulator.pending_events == 0
        # Cancelling an already-executed event must not underflow the counter.
        handles[3].cancel()
        assert simulator.pending_events == 0

    def test_pending_events_after_drain(self, simulator):
        simulator.schedule(1.0, lambda: None)
        handle = simulator.schedule(2.0, lambda: None)
        assert len(list(simulator.drain())) == 2
        assert simulator.pending_events == 0
        # Cancelling a drained event must not underflow the counter.
        handle.cancel()
        assert simulator.pending_events == 0


class TestScheduleMany:
    """Edge cases of the bulk-insertion path (heapify-amortized batches)."""

    def test_empty_batch_is_a_noop(self, simulator):
        handles = simulator.schedule_many([], lambda: None, [])
        assert handles == []
        assert simulator.pending_events == 0
        assert simulator.run() == 0

    def test_single_event_batch(self, simulator):
        fired = []
        [handle] = simulator.schedule_many([0.5], fired.append, [(1,)])
        assert handle.time == 0.5
        simulator.run()
        assert fired == [1]
        assert simulator.pending_events == 0

    def test_mismatched_lengths_raise(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_many([0.1, 0.2], lambda: None, [()])

    def test_negative_delay_rejected_before_any_insertion(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_many([0.1, -0.2, 0.3], lambda x: None,
                                    [(1,), (2,), (3,)])
        # All-or-nothing: the valid prefix must not have been inserted.
        assert simulator.pending_events == 0
        assert simulator.run() == 0

    @pytest.mark.parametrize("delays", [[1.0, math.nan], [math.nan, 1.0]])
    def test_nan_delay_rejected_before_any_insertion(self, simulator, delays):
        # ``min`` skips a NaN that follows a number.
        with pytest.raises(SimulationError):
            simulator.schedule_many(delays, lambda x: None, [(1,), (2,)])
        assert simulator.pending_events == 0
        assert simulator.run() == 0

    def test_batch_matches_individual_schedules_exactly(self):
        """Same times, seqs and execution order as a loop of schedule calls."""
        def run(bulk):
            sim = Simulator(seed=1)
            order = []
            sim.schedule(0.2, order.append, "pre")
            delays = [0.3, 0.1, 0.3, 0.0]
            args = [("a",), ("b",), ("c",), ("d",)]
            if bulk:
                sim.schedule_many(delays, order.append, args)
            else:
                for delay, arg in zip(delays, args):
                    sim.schedule(delay, order.append, *arg)
            sim.schedule(0.1, order.append, "post")
            sim.run()
            return order

        assert run(bulk=True) == run(bulk=False) == ["d", "b", "post", "pre", "a", "c"]

    def test_cancel_individual_batch_members(self, simulator):
        fired = []
        handles = simulator.schedule_many([0.1, 0.2, 0.3], fired.append,
                                          [(1,), (2,), (3,)])
        handles[1].cancel()
        assert simulator.pending_events == 2
        simulator.run()
        assert fired == [1, 3]
        # Cancelling after execution must not corrupt the pending counter.
        handles[0].cancel()
        assert simulator.pending_events == 0

    def test_cancel_from_inside_an_earlier_batch_event(self, simulator):
        fired = []
        handles = simulator.schedule_many(
            [0.1, 0.2], lambda tag: fired.append(tag), [("first",), ("second",)])

        simulator.schedule(0.15, handles[1].cancel)
        simulator.run()
        assert fired == ["first"]
        assert simulator.pending_events == 0

    def test_interleaves_with_periodic_handles(self, simulator):
        """Batched events and call_every ticks share one (time, seq) order."""
        order = []
        periodic = simulator.call_every(1.0, lambda: order.append(("tick", simulator.now)))
        simulator.schedule_many([0.5, 1.5, 2.5], order.append,
                                [(("batch", 0.5),), (("batch", 1.5),), (("batch", 2.5),)])
        simulator.run(until=2.0)
        periodic.cancel()
        simulator.run()
        assert order == [("batch", 0.5), ("tick", 1.0), ("batch", 1.5),
                         ("tick", 2.0), ("batch", 2.5)]
        assert simulator.pending_events == 0

    def test_large_batch_triggers_heapify_path(self, simulator):
        """A batch large relative to the heap takes the extend+heapify branch."""
        fired = []
        simulator.schedule(5.0, fired.append, "tail")
        delays = [0.001 * i for i in range(500, 0, -1)]
        simulator.schedule_many(delays, fired.append, [(i,) for i in range(500)])
        simulator.run()
        # Reverse-sorted delays must come back in time order.
        assert fired[:-1] == list(range(499, -1, -1))
        assert fired[-1] == "tail"


class TestPeriodicScheduling:
    def test_call_every_fires_repeatedly(self, simulator):
        ticks = []
        simulator.call_every(1.0, lambda: ticks.append(simulator.now))
        simulator.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_call_every_cancel(self, simulator):
        ticks = []
        handle = simulator.call_every(1.0, lambda: ticks.append(simulator.now))
        simulator.run(until=2.5)
        handle.cancel()
        simulator.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_call_every_requires_positive_interval(self, simulator):
        with pytest.raises(SimulationError):
            simulator.call_every(0.0, lambda: None)

    def test_periodic_handle_pending_counter_on_cancel(self, simulator):
        # Exactly one occurrence is scheduled at a time; cancelling the handle
        # removes it from the pending count exactly once.
        handle = simulator.call_every(1.0, lambda: None)
        assert simulator.pending_events == 1
        simulator.run(until=3.5)
        assert simulator.pending_events == 1  # the next occurrence
        handle.cancel()
        assert handle.cancelled
        assert simulator.pending_events == 0
        # Cancelling again must not underflow the live counter.
        handle.cancel()
        assert simulator.pending_events == 0
        simulator.run(until=10.0)
        assert simulator.pending_events == 0

    def test_periodic_handle_cancel_before_first_fire(self, simulator):
        ticks = []
        handle = simulator.call_every(2.0, lambda: ticks.append(simulator.now))
        handle.cancel()
        assert simulator.pending_events == 0
        simulator.run(until=10.0)
        assert ticks == []
        assert simulator.processed_events == 0

    def test_periodic_handle_exposes_next_occurrence_time(self, simulator):
        handle = simulator.call_every(1.0, lambda: None)
        assert handle.time == 1.0
        assert not handle.cancelled
        simulator.run(until=2.5)
        assert handle.time == 3.0

    def test_periodic_handle_counter_across_drain(self, simulator):
        handle = simulator.call_every(1.0, lambda: None)
        simulator.run(until=1.5)
        drained = list(simulator.drain())
        assert len(drained) == 1  # the pending next occurrence
        assert simulator.pending_events == 0
        # A late cancel of the drained occurrence must not underflow.
        handle.cancel()
        assert simulator.pending_events == 0
        # The stopped flag keeps a stray drained callback from rescheduling.
        drained[0].callback(*drained[0].args)
        assert simulator.pending_events == 0

    def test_periodic_callback_exception_does_not_corrupt_counter(self, simulator):
        calls = []

        def boom():
            calls.append(simulator.now)
            raise RuntimeError("callback failure")

        simulator.call_every(1.0, boom)
        with pytest.raises(RuntimeError):
            simulator.run(until=3.0)
        # The failed occurrence was consumed; nothing rescheduled itself.
        assert calls == [1.0]
        assert simulator.pending_events == 0


class TestReproducibility:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=7).rng.integers(0, 1000, size=5).tolist()
        b = Simulator(seed=7).rng.integers(0, 1000, size=5).tolist()
        assert a == b

    def test_spawn_rng_is_deterministic_given_call_order(self):
        sim1, sim2 = Simulator(seed=3), Simulator(seed=3)
        assert sim1.spawn_rng().integers(0, 10**6) == sim2.spawn_rng().integers(0, 10**6)


class TestTimers:
    def test_one_shot_timer_fires_once(self, simulator):
        fired = []
        timer = OneShotTimer(simulator, 2.0, lambda: fired.append(simulator.now))
        timer.start()
        simulator.run()
        assert fired == [2.0]
        assert not timer.pending

    def test_one_shot_restart_postpones(self, simulator):
        fired = []
        timer = OneShotTimer(simulator, 2.0, lambda: fired.append(simulator.now))
        timer.start()
        simulator.schedule(1.0, timer.restart)
        simulator.run()
        assert fired == [3.0]

    def test_one_shot_cancel(self, simulator):
        fired = []
        timer = OneShotTimer(simulator, 2.0, lambda: fired.append(1))
        timer.start()
        timer.cancel()
        simulator.run()
        assert fired == []

    def test_periodic_timer_without_jitter(self, simulator):
        ticks = []
        timer = PeriodicTimer(simulator, 1.0, lambda: ticks.append(simulator.now))
        timer.start()
        simulator.run(until=3.5)
        timer.stop()
        assert ticks == [1.0, 2.0, 3.0]
        assert timer.expirations == 3

    def test_periodic_timer_with_jitter_stays_in_band(self, simulator):
        times = []
        timer = PeriodicTimer(simulator, 1.0, lambda: times.append(simulator.now),
                              jitter=0.2, rng=simulator.rng)
        timer.start()
        simulator.run(until=20.0)
        timer.stop()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(0.8 <= gap <= 1.2 for gap in gaps)

    def test_periodic_timer_stop_prevents_future_fires(self, simulator):
        ticks = []
        timer = PeriodicTimer(simulator, 1.0, lambda: ticks.append(simulator.now))
        timer.start()
        simulator.run(until=2.5)
        timer.stop()
        simulator.run(until=10.0)
        assert len(ticks) == 2

    def test_one_shot_timer_rejects_nan_duration(self, simulator):
        with pytest.raises(SimulationError):
            OneShotTimer(simulator, math.nan, lambda: None)
        timer = OneShotTimer(simulator, 1.0, lambda: None)
        with pytest.raises(SimulationError):
            timer.duration = math.nan
        assert timer.duration == 1.0

    def test_one_shot_timer_rejects_infinite_duration(self, simulator):
        # Unchecked, the expiration would run last and leave the clock at inf.
        with pytest.raises(SimulationError, match="inf"):
            OneShotTimer(simulator, math.inf, lambda: None)
        timer = OneShotTimer(simulator, 1.0, lambda: None)
        with pytest.raises(SimulationError, match="inf"):
            timer.duration = math.inf
        assert timer.duration == 1.0

    def test_invalid_timer_parameters(self, simulator):
        with pytest.raises(SimulationError):
            OneShotTimer(simulator, 0.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTimer(simulator, -1.0, lambda: None)
        with pytest.raises(SimulationError):
            PeriodicTimer(simulator, 1.0, lambda: None, jitter=1.5)


class Log:
    """Picklable callback target: a simulator pickled with pending events
    carries its callbacks along, so they must be bound methods of picklable
    objects."""

    def __init__(self):
        self.entries = []

    def record(self, tag):
        self.entries.append(tag)


class TestHeapOrder:
    """The queue holds ``(time, seq, event)`` tuples: the unique ``seq`` breaks
    every tie, so the event objects are never compared."""

    def test_equal_times_pop_in_seq_order_on_the_push_path(self, simulator):
        log = Log()
        for tag in range(20):
            # Identical callbacks and times: only seq tells them apart.
            simulator.schedule(1.0, log.record, tag)
        simulator.run()
        assert log.entries == list(range(20))

    def test_equal_times_pop_in_seq_order_on_the_heapify_path(self, simulator):
        log = Log()
        simulator.schedule(1.0, log.record, "before")
        # A batch this large relative to the heap is heapified in place.
        simulator.schedule_many([1.0] * 50, log.record, [(tag,) for tag in range(50)])
        simulator.schedule(1.0, log.record, "after")
        simulator.run()
        assert log.entries == ["before"] + list(range(50)) + ["after"]

    def test_equal_times_pop_in_seq_order_on_the_sifting_batch_path(self, simulator):
        log = Log()
        for tag in range(40):
            simulator.schedule(2.0, log.record, ("single", tag))
        # Small relative to the heap: pushed one by one.
        simulator.schedule_many([2.0] * 5, log.record, [(("batch", k),) for k in range(5)])
        simulator.run()
        assert log.entries == ([("single", tag) for tag in range(40)]
                               + [("batch", k) for k in range(5)])

    def test_cancelled_events_are_skipped_on_both_paths(self, simulator):
        log = Log()
        single = [simulator.schedule(1.0, log.record, ("single", k)) for k in range(4)]
        batch = simulator.schedule_many([1.0] * 4, log.record, [(("batch", k),) for k in range(4)])
        single[1].cancel()
        batch[0].cancel()
        batch[3].cancel()
        assert simulator.pending_events == 5
        assert simulator.peek_time() == 1.0
        simulator.run()
        assert log.entries == [("single", 0), ("single", 2), ("single", 3),
                               ("batch", 1), ("batch", 2)]
        assert simulator.pending_events == 0

    def test_cancelled_head_is_skipped_by_peek(self, simulator):
        first = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        first.cancel()
        assert simulator.peek_time() == 2.0

    def test_pickled_simulator_resumes_in_the_same_order(self):
        def build():
            sim = Simulator(seed=7)
            log = Log()
            for k in range(10):
                sim.schedule(float(k % 3), log.record, ("single", k))
            sim.schedule_many([1.0, 0.0, 2.0, 1.0], log.record,
                              [(("batch", k),) for k in range(4)])
            sim.schedule(1.0, log.record, "cancelled").cancel()
            return sim, log

        sim, log = build()
        sim.run(until=0.5)
        restored_sim, restored_log = pickle.loads(pickle.dumps((sim, log)))
        sim.run()
        restored_sim.run()
        assert restored_log.entries == log.entries
        assert restored_sim.processed_events == sim.processed_events
        assert restored_sim.pending_events == sim.pending_events == 0
        # Scheduling after the restore keeps extending the same seq order.
        for target, target_log in ((sim, log), (restored_sim, restored_log)):
            target.schedule(0.0, target_log.record, "x")
            target.schedule(0.0, target_log.record, "y")
            target.run()
        assert restored_log.entries == log.entries
        assert log.entries[-2:] == ["x", "y"]


class TestEventLoop:
    """``run``, ``run_window`` and ``step`` share one loop that pops the heap
    directly; these pin the contract each of them keeps."""

    def schedule_ties(self, sim, log):
        for tag in range(6):
            sim.schedule(1.0 + (tag % 3), log.record, tag)

    def test_run_and_run_window_keep_time_seq_order(self):
        expected = [0, 3, 1, 4, 2, 5]
        for drive in (lambda sim: sim.run(),
                      lambda sim: sim.run_window(10.0)):
            sim, log = Simulator(seed=1), Log()
            self.schedule_ties(sim, log)
            assert drive(sim) == 6
            assert log.entries == expected

    def test_run_until_is_inclusive_and_moves_the_clock_to_a_live_bound(self, simulator):
        log = Log()
        simulator.schedule(2.0, log.record, "at")
        simulator.schedule(2.5, log.record, "after")
        assert simulator.run(until=2.0) == 1
        assert log.entries == ["at"]
        assert simulator.now == 2.0
        assert simulator.run(until=2.2) == 0
        assert simulator.now == 2.2

    @pytest.mark.parametrize("factory", [lambda: Simulator(seed=1),
                                         ReferenceSimulator])
    def test_run_until_before_now_is_refused(self, factory):
        # With a live event beyond both bounds, an earlier bound must not
        # pull the clock back: later delays would count from a past time.
        sim, log = factory(), Log()
        sim.schedule(5.0, log.record, "late")
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 3.0
        sim.schedule(0.5, log.record, "next")
        sim.run()
        assert log.entries == ["next", "late"] and sim.now == 5.0

    @pytest.mark.parametrize("entry", ["run", "run_window", "advance_clock"])
    def test_nan_bound_is_refused_and_changes_nothing(self, entry):
        # NaN compares false both ways: unchecked, ``run`` and ``run_window``
        # drain the whole queue and ``advance_clock`` sets the clock to NaN.
        sim, log = Simulator(seed=1), Log()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, log.record, delay)
        sim.run(until=1.5)
        queue = list(sim._queue)
        with pytest.raises(SimulationError):
            getattr(sim, entry)(math.nan)
        assert sim.now == 1.5 and sim._queue == queue and log.entries == [1.0]

    def test_run_window_before_now_is_refused(self, simulator):
        simulator.advance_clock(2.0)
        with pytest.raises(SimulationError):
            simulator.run_window(1.0)
        assert simulator.run_window(2.0) == 0 and simulator.now == 2.0

    def test_run_window_boundary(self, simulator):
        log = Log()
        simulator.schedule(1.0, log.record, "a")
        simulator.schedule(2.0, log.record, "b")
        assert simulator.run_window(2.0) == 1
        assert log.entries == ["a"] and simulator.now == 1.0
        assert simulator.run_window(2.0, inclusive=True) == 1
        assert log.entries == ["a", "b"] and simulator.now == 2.0

    def test_max_events_on_both_entry_points(self):
        for drive in (lambda sim: sim.run(max_events=3),
                      lambda sim: sim.run_window(100.0, max_events=3)):
            sim, log = Simulator(seed=1), Log()
            self.schedule_ties(sim, log)
            assert drive(sim) == 3
            assert log.entries == [0, 3, 1]
            assert sim.pending_events == 3 and sim.now == 2.0

    def test_cancelled_head_events_are_discarded(self):
        for drive in (lambda sim: sim.run(until=1.5),
                      lambda sim: sim.run_window(1.5)):
            sim = Simulator(seed=1)
            dead = [sim.schedule(1.0, lambda: None) for _ in range(3)]
            sim.schedule(2.0, lambda: None)
            for handle in dead:
                handle.cancel()
            assert drive(sim) == 0
            # The cancelled heads are gone; the live event beyond the bound stays.
            assert len(sim._queue) == 1 and sim.pending_events == 1
            assert sim.processed_events == 0

    def test_step_skips_cancelled_events(self, simulator):
        log = Log()
        simulator.schedule(1.0, log.record, "dead").cancel()
        simulator.schedule(2.0, log.record, "live")
        assert simulator.step()
        assert log.entries == ["live"] and simulator.now == 2.0
        assert not simulator.step()

    def test_clock_stays_put_when_the_queue_drains(self):
        for drive in (lambda sim: sim.run(until=5.0),
                      lambda sim: sim.run_window(5.0)):
            sim = Simulator(seed=1)
            sim.schedule(1.0, lambda: None)
            dead = sim.schedule(3.0, lambda: None)
            dead.cancel()
            assert drive(sim) == 1
            assert sim.now == 1.0

    def test_events_scheduled_inside_the_window_run_in_the_same_call(self, simulator):
        log = Log()

        def cascade():
            log.record("first")
            simulator.schedule(0.0, log.record, "zero-delay")
            simulator.schedule(0.5, log.record, "inside")
            simulator.schedule(5.0, log.record, "outside")

        simulator.schedule(1.0, cascade)
        assert simulator.run_window(2.0) == 3
        assert log.entries == ["first", "zero-delay", "inside"]

    def test_observed_runs_emit_event_pop_spans(self):
        with observing() as ctx:
            sim = Simulator(seed=1)
            for k in range(5):
                sim.schedule(float(k), lambda: None)
            sim.run(until=2.0)
            sim.run_window(10.0)
        assert sim.processed_events == 5
        assert ctx.span_stats("sim.event_pop").count == 5
        assert ctx.span_stats("sim.run").count == 1
        assert ctx.registry.as_dict()["counters"]["sim.events"] == 5


class TestTimerJitterDraw:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           period=st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
           jitter=st.floats(0.0, 0.99, allow_nan=False),
           fires=st.integers(1, 40))
    def test_delays_and_generator_state_match_uniform(self, seed, period, jitter, fires):
        sim = Simulator(seed=0)
        times = []
        timer = PeriodicTimer(sim, period, lambda: times.append(sim.now), jitter=jitter,
                              rng=np.random.default_rng(seed))
        timer.start()
        sim.run(max_events=fires)

        reference = np.random.default_rng(seed)
        expected, now = [], 0.0
        for _ in range(fires):
            if jitter == 0.0:
                delay = period
            else:
                delay = float(reference.uniform(period * (1.0 - jitter),
                                                period * (1.0 + jitter)))
            now = float(now + delay)
            expected.append(now)
        if jitter != 0.0:
            # The timer has drawn the delay of its next, still pending expiration.
            reference.uniform(period * (1.0 - jitter), period * (1.0 + jitter))
        assert times == expected
        assert timer._rng.bit_generator.state == reference.bit_generator.state


# ----------------------------------------------- reference scheduler parity

DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 4.0)
PICK = st.integers(0, 50)
ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("stop"), PICK),
    st.tuples(st.just("start"), PICK),
    st.tuples(st.just("bounce"), PICK),
    st.tuples(st.just("restart"), PICK),
    st.tuples(st.just("uncall"), PICK),
)
OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, ACTIONS),
    st.tuples(st.just("schedule_at"), DELAYS, ACTIONS),
    st.tuples(st.just("schedule_many"), st.lists(DELAYS, max_size=6), ACTIONS),
    st.tuples(st.just("periodic"), st.floats(0.1, 3.0), st.sampled_from([0.0, 0.1, 0.5]),
              st.none() | DELAYS, st.integers(0, 2**32 - 1), ACTIONS),
    st.tuples(st.just("oneshot"), st.floats(0.1, 3.0), ACTIONS),
    st.tuples(st.just("call_every"), st.floats(0.1, 3.0), st.none() | DELAYS, ACTIONS),
    st.tuples(st.just("act"), ACTIONS),
    st.tuples(st.just("run"), st.none() | DELAYS, st.none() | st.integers(0, 30)),
    st.tuples(st.just("run_window"), DELAYS, st.booleans(), st.none() | st.integers(0, 30)),
    st.tuples(st.just("step")),
)


def drive(script, sim, periodic_cls):
    """Run ``script`` on ``sim``; return everything observable about the run."""
    trace, handles, timers, oneshots, repeaters = [], [], [], [], []

    def pick(items, k):
        return items[k % len(items)] if items else None

    def act(action):
        kind, target = action[0], action[1] if len(action) > 1 else None
        if kind == "cancel" and handles:
            pick(handles, target).cancel()
        elif kind == "schedule":
            handles.append(sim.schedule(target, record, ("nested", len(handles)), ("none",)))
        elif kind in ("stop", "start", "bounce") and timers:
            timer = pick(timers, target)
            if kind != "start":
                timer.stop()
            if kind != "stop":
                timer.start()
        elif kind == "restart" and oneshots:
            pick(oneshots, target).restart()
        elif kind == "uncall" and repeaters:
            pick(repeaters, target).cancel()

    def record(tag, action):
        trace.append((tag, sim.now, sim.pending_events))
        act(action)

    for op in script:
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], record, ("s", len(handles)), op[2]))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + op[1], record,
                                           ("at", len(handles)), op[2]))
        elif kind == "schedule_many":
            tag = len(handles)
            handles.extend(sim.schedule_many(
                op[1], record, [(("many", tag, k), op[2]) for k in range(len(op[1]))]))
        elif kind == "periodic":
            _, period, jitter, phase, seed, action = op
            k = len(timers)
            timers.append(periodic_cls(
                sim, period, lambda k=k, action=action: record(("P", k), action),
                jitter=jitter, rng=np.random.default_rng(seed), phase=phase))
            timers[-1].start()
        elif kind == "oneshot":
            k = len(oneshots)
            oneshots.append(OneShotTimer(
                sim, op[1], lambda k=k, action=op[2]: record(("O", k), action)))
            oneshots[-1].start()
        elif kind == "call_every":
            _, interval, start, action = op
            k = len(repeaters)
            repeaters.append(sim.call_every(
                interval, record, ("E", k), action,
                start=None if start is None else sim.now + start))
        elif kind == "act":
            act(op[1])
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            # An unbounded run still stops: periodic timers never drain.
            sim.run(until=until, max_events=30 if op[2] is None else op[2])
        elif kind == "run_window":
            # Bounded like ``run``: a zero-phase timer whose callback restarts
            # it fires forever at one instant, inside any window.
            sim.run_window(sim.now + op[1], inclusive=op[2],
                           max_events=300 if op[3] is None else op[3])
        else:
            sim.step()
        trace.append((kind, sim.now, sim.pending_events, sim.processed_events,
                      sim.peek_time()))
    sim.run(until=sim.now + 5.0, max_events=300)
    return {
        "trace": trace,
        "processed": sim.processed_events,
        "pending": sim.pending_events,
        "handles": [(h.time, h.cancelled) for h in handles],
        "repeaters": [(None if r.cancelled else r.time, r.cancelled) for r in repeaters],
        "timers": [(t.expirations, t.running, t._rng.bit_generator.state)
                   for t in timers],
        "oneshots": [t.pending for t in oneshots],
    }


class TestMatchesReferenceScheduler:
    """The heap engine with re-armed timer events against the sorted-list
    reference of ``tests/reference_engine.py``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(OPS, max_size=25))
    def test_random_scripts_replay_identically(self, script):
        expected_sim = ReferenceSimulator()
        expected = drive(script, expected_sim, ReferencePeriodicTimer)
        with observing() as ctx:
            sim = Simulator(seed=0)
            got = drive(script, sim, PeriodicTimer)
        assert got == expected
        counters = ctx.registry.as_dict()["counters"]
        assert counters.get("sim.scheduled", 0) == expected_sim.scheduled
        assert counters.get("sim.events", 0) == expected_sim.processed_events
