"""Unit tests for the hybrid cycle/event engine.

Every documented semantic -- time order, schedule-order tie breaking, the
same-cycle event lane, peek/stop behavior -- is checked twice: on a fresh
:class:`~repro.sim.engine.Engine` and on one whose bucket freelist is
stocked, as it is after any real run, so every ``schedule*`` call takes
the bucket-reuse path.
"""

from collections import deque

import pytest

from repro.sim.engine import Engine


def _warm_engine() -> Engine:
    engine = Engine()
    engine._free_buckets.extend(deque() for _ in range(16))
    return engine


# "python" is a fresh engine, "fast" a warm one.  The ids date from when
# each engine core had its own class, and are kept so test ids stay stable.
@pytest.fixture(params=[Engine, _warm_engine], ids=["python", "fast"])
def engine_cls(request):
    return request.param


class Counter:
    """Tickable that counts its ticks and can deactivate itself."""

    def __init__(self, engine, stop_after=None):
        self.engine = engine
        self.ticks = 0
        self.tid = engine.register(self)
        self.stop_after = stop_after

    def start(self):
        self.engine.activate(self.tid)

    def tick(self):
        self.ticks += 1
        if self.stop_after is not None and self.ticks >= self.stop_after:
            self.engine.deactivate(self.tid)


def test_events_fire_in_time_order(engine_cls):
    engine = engine_cls()
    order = []
    engine.schedule(5, lambda: order.append("b"))
    engine.schedule(2, lambda: order.append("a"))
    engine.schedule(9, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 9


def test_ties_break_in_schedule_order(engine_cls):
    engine = engine_cls()
    order = []
    for name in "abcd":
        engine.schedule(3, lambda n=name: order.append(n))
    engine.run()
    assert order == list("abcd")


def test_clock_jumps_over_idle_gaps(engine_cls):
    engine = engine_cls()
    seen = []
    engine.schedule(1_000_000, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [1_000_000]
    # No per-cycle work happened: only one event processed.
    assert engine.events_processed == 1


def test_tickables_tick_every_cycle_while_active(engine_cls):
    engine = engine_cls()
    counter = Counter(engine, stop_after=10)
    counter.start()
    engine.run()
    assert counter.ticks == 10
    assert engine.now == 10


def test_event_wakes_before_tick_same_cycle(engine_cls):
    """An event at cycle W runs before W's ticks (wake-up semantics)."""
    engine = engine_cls()
    log = []

    class T:
        def __init__(self):
            self.tid = engine.register(self)

        def tick(self):
            log.append(("tick", engine.now))
            engine.deactivate(self.tid)

    t = T()
    engine.schedule(7, lambda: (log.append(("event", engine.now)), engine.activate(t.tid)))
    engine.run()
    assert log == [("event", 7), ("tick", 7)]


def test_stop_ends_run(engine_cls):
    engine = engine_cls()
    engine.schedule(3, engine.stop)
    engine.schedule(100, lambda: pytest.fail("should not run"))
    assert engine.run() == 3


def test_negative_delay_rejected(engine_cls):
    engine = engine_cls()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(engine_cls):
    engine = engine_cls()
    engine.schedule(5, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(2, lambda: None)


def test_livelock_guard_trips(engine_cls):
    engine = engine_cls()
    counter = Counter(engine)  # never deactivates
    counter.start()
    with pytest.raises(RuntimeError, match="livelock"):
        engine.run(max_cycles=100)


def test_events_during_tick_run_next_iteration(engine_cls):
    engine = engine_cls()
    log = []

    class T:
        def __init__(self):
            self.tid = engine.register(self)
            self.ticked = False

        def tick(self):
            if not self.ticked:
                self.ticked = True
                engine.schedule(0, lambda: log.append(engine.now))
            else:
                engine.deactivate(self.tid)

    t = T()
    engine.activate(t.tid)
    engine.run()
    assert log == [1]  # zero-delay event from tick at 0 lands at cycle 1


def test_run_returns_immediately_with_no_work(engine_cls):
    engine = engine_cls()
    assert engine.run() == 0


def test_register_stores_tickable_for_activate(engine_cls):
    """register() remembers the tickable, so activate only needs the id."""
    engine = engine_cls()
    a, b = Counter(engine, stop_after=3), Counter(engine, stop_after=5)
    assert (a.tid, b.tid) == (0, 1)
    a.start()
    b.start()
    engine.run()
    assert (a.ticks, b.ticks) == (3, 5)


def test_activate_unregistered_id_rejected(engine_cls):
    engine = engine_cls()
    with pytest.raises(KeyError):
        engine.activate(99)


def test_tick_order_is_ascending_tid_after_churn(engine_cls):
    """The incrementally maintained active order must stay ascending-tid
    deterministic through arbitrary activate/deactivate churn."""
    engine = engine_cls()
    log = []

    class T:
        def __init__(self):
            self.tid = engine.register(self)

        def tick(self):
            log.append(self.tid)
            engine.deactivate(self.tid)

    ts = [T() for _ in range(5)]
    # activate out of order, deactivate some, re-activate
    for t in (ts[3], ts[0], ts[4], ts[1], ts[2]):
        engine.activate(t.tid)
    engine.deactivate(ts[4].tid)
    engine.activate(ts[4].tid)
    engine.run()
    assert log == [0, 1, 2, 3, 4]


def test_mid_cycle_activation_ticks_next_cycle(engine_cls):
    """A peer activated during the tick phase must not tick until the next
    cycle, even if it was active earlier and has a smaller tid."""
    engine = engine_cls()
    log = []

    class A:
        def __init__(self):
            self.tid = engine.register(self)

        def tick(self):
            log.append(("a", engine.now))
            engine.deactivate(self.tid)

    class B:
        def __init__(self, peer):
            self.tid = engine.register(self)
            self.peer = peer

        def tick(self):
            log.append(("b", engine.now))
            engine.activate(self.peer.tid)  # mid-cycle wake of a lower tid
            engine.deactivate(self.tid)

    a = A()
    b = B(a)
    # a was active once before, so a stale order entry exists
    engine.activate(a.tid)
    engine.run()
    assert log[0] == ("a", 0)
    engine.activate(b.tid)
    log.clear()
    engine.run()
    # b ticks alone in its cycle; a only ticks the following cycle
    assert log == [("b", 1), ("a", 2)]


def test_activation_idempotent_and_wakeups_counted(engine_cls):
    engine = engine_cls()
    c = Counter(engine, stop_after=2)
    engine.activate(c.tid)
    engine.activate(c.tid)  # double activation is a no-op
    assert engine.wakeups == 1
    engine.run()
    assert c.ticks == 2


def test_full_active_set_ticks_every_cycle_until_stop(engine_cls):
    """15 tickables, one per SM of the Table 5.1 machine, all active."""
    engine = engine_cls()
    counters = [Counter(engine) for _ in range(15)]
    for c in counters:
        c.start()
    engine.schedule(2_000, engine.stop)
    engine.run()
    assert sum(c.ticks for c in counters) == 15 * 2_000


def test_sleep_wake_churn_every_cycle(engine_cls):
    """Tickables that sleep after each tick and are woken by an event one
    cycle later still tick every cycle (the event runs before the tick)."""
    engine = engine_cls()

    class Toggler:
        def __init__(self):
            self.tid = engine.register(self)
            self.ticks = 0

        def tick(self):
            self.ticks += 1
            engine.deactivate(self.tid)
            engine.schedule(1, lambda: engine.activate(self.tid))

    togglers = [Toggler() for _ in range(8)]
    for t in togglers:
        engine.activate(t.tid)
    engine.schedule(1_000, engine.stop)
    engine.run()
    assert [t.ticks for t in togglers] == [1_000] * 8


def test_every_event_fires_across_many_delays(engine_cls):
    engine = engine_cls()
    count = [0]

    def bump():
        count[0] += 1

    for d in range(5_000):
        engine.schedule(d % 97 + 1, bump)
    engine.run()
    assert count[0] == engine.events_processed == 5_000


class TestScheduleAtAndPeek:
    """Edge cases of schedule_at/peek_next_event: same-cycle ordering,
    scheduling at the current cycle, and behavior around stop()."""

    def test_schedule_at_ties_interleave_with_schedule_in_call_order(self, engine_cls):
        """schedule_at and schedule share one sequence counter, so events
        landing on the same cycle fire in call order regardless of API."""
        engine = engine_cls()
        order = []
        engine.schedule_at(4, lambda: order.append("at-first"))
        engine.schedule(4, lambda: order.append("delay"))
        engine.schedule_at(4, lambda: order.append("at-second"))
        engine.run()
        assert order == ["at-first", "delay", "at-second"]

    def test_schedule_at_current_cycle_from_event_runs_same_cycle(self, engine_cls):
        """An event scheduled *at the current cycle* from inside an event
        callback joins the same cycle's batch drain."""
        engine = engine_cls()
        log = []
        engine.schedule(5, lambda: engine.schedule_at(
            engine.now, lambda: log.append(engine.now)))
        engine.run()
        assert log == [5]

    def test_schedule_at_current_cycle_from_tick_runs_next_drain(self, engine_cls):
        """From a tick, 'now' has not advanced yet, so an event at the
        current cycle is only seen by the next iteration's drain -- it runs
        with the clock already at cycle+1 (mirrors zero-delay schedule)."""
        engine = engine_cls()
        log = []

        class T:
            def __init__(self):
                self.tid = engine.register(self)

            def tick(self):
                engine.schedule_at(engine.now, lambda: log.append(engine.now))
                engine.deactivate(self.tid)

        t = T()
        engine.activate(t.tid)
        engine.run()
        assert log == [1]

    def test_stop_mid_drain_finishes_the_cycle_batch(self, engine_cls):
        """stop() requests the end of the run *after* the current cycle:
        events already due this cycle still execute."""
        engine = engine_cls()
        log = []
        engine.schedule(3, lambda: (log.append("a"), engine.stop()))
        engine.schedule(3, lambda: log.append("b"))  # same cycle, after stop
        engine.schedule(9, lambda: log.append("never"))
        assert engine.run() == 3
        assert log == ["a", "b"]

    def test_run_after_stop_resumes_with_surviving_events(self, engine_cls):
        """run() clears the stop latch; events beyond the stop point stay
        queued and a second run() delivers them."""
        engine = engine_cls()
        log = []
        engine.schedule(2, engine.stop)
        engine.schedule(7, lambda: log.append(engine.now))
        assert engine.run() == 2
        assert log == []
        assert engine.peek_next_event() == 7
        assert engine.run() == 7
        assert log == [7]

    def test_schedule_at_exactly_now_never_raises(self, engine_cls):
        """t == now is valid (only t < now is the past)."""
        engine = engine_cls()
        engine.schedule(4, lambda: None)
        engine.run()
        fired = []
        engine.schedule_at(4, lambda: fired.append(True))  # t == now
        engine.run()
        assert fired == [True]

    def test_peek_next_event_reports_earliest_pending(self, engine_cls):
        engine = engine_cls()
        assert engine.peek_next_event() is None
        engine.schedule(8, lambda: None)
        engine.schedule(3, lambda: None)
        engine.schedule_at(5, lambda: None)
        assert engine.peek_next_event() == 3
        engine.run()
        assert engine.peek_next_event() is None

    def test_peek_is_not_consumed_after_stop(self, engine_cls):
        """Events left behind by a stopped run remain visible to peek."""
        engine = engine_cls()
        engine.schedule(1, engine.stop)
        engine.schedule(10, lambda: None)
        engine.run()
        assert engine.peek_next_event() == 10


def test_engine_stats_group(engine_cls):
    engine = engine_cls()
    c = Counter(engine, stop_after=4)
    c.start()
    engine.schedule(2, lambda: None)
    engine.run()
    snap = engine.stats()
    assert snap["cycles"] == 4
    assert snap["events"] == engine.events_processed == 1
    assert snap["wakeups"] == 1
    engine.reset_stats()
    assert engine.stats()["cycles"] == 0


class TestScheduleCall:
    """The one-argument fast lane must order exactly like schedule():
    both engines share one logical sequence, whatever the storage."""

    def test_interleaves_with_schedule_in_call_order(self, engine_cls):
        engine = engine_cls()
        order = []
        engine.schedule(4, lambda: order.append("a"))
        engine.schedule_call(4, order.append, "b")
        engine.schedule(4, lambda: order.append("c"))
        engine.schedule_call(4, order.append, "d")
        engine.run()
        assert order == ["a", "b", "c", "d"]

    def test_negative_delay_rejected(self, engine_cls):
        engine = engine_cls()
        with pytest.raises(ValueError):
            engine.schedule_call(-1, print, "boom")

    def test_same_cycle_lane_from_callback(self, engine_cls):
        """A schedule_call landing on the cycle being drained joins the
        same drain (the calendar queue's O(1) same-cycle lane)."""
        engine = engine_cls()
        log = []
        engine.schedule(3, lambda: engine.schedule_call(0, log.append, engine.now))
        engine.schedule(3, lambda: log.append("tail"))
        engine.run()
        # The append joins the end of the in-flight batch, after everything
        # already scheduled for the cycle.
        assert log == ["tail", 3]

    def test_counts_as_one_event(self, engine_cls):
        engine = engine_cls()
        engine.schedule_call(2, lambda _: None, None)
        engine.run()
        assert engine.events_processed == 1


class TestCalendarQueueInternals:
    """Bucket lifecycle and the freelist."""

    def test_buckets_are_recycled(self):
        engine = Engine()
        for t in (1, 2, 3):
            engine.schedule(t, lambda: None)
        engine.run()
        # All three buckets retired to the freelist, none left live.
        assert engine._buckets == {}
        assert engine._times == []
        assert len(engine._free_buckets) == 3
        engine.schedule(1, lambda: None)
        # Scheduling reuses a retired list instead of allocating.
        assert len(engine._free_buckets) == 2
        engine.run()

    def test_peek_tracks_live_buckets_only(self):
        engine = Engine()
        engine.schedule(5, engine.stop)
        engine.schedule(9, lambda: None)
        assert engine.peek_next_event() == 5
        engine.run()
        assert engine.peek_next_event() == 9
        engine.run()
        assert engine.peek_next_event() is None

    def test_many_events_one_cycle_single_bucket(self):
        engine = Engine()
        hits = []
        for i in range(100):
            engine.schedule_call(7, hits.append, i)
        assert len(engine._times) == 1  # one bucket, not 100 heap entries
        engine.run()
        assert hits == list(range(100))
        assert engine.events_processed == 100
