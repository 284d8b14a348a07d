"""Unit tests for the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(2.0, lambda: fired.append("b"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(3.0, lambda: fired.append("c"))
    while queue:
        queue.pop().callback()
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_fifo():
    queue = EventQueue()
    fired = []
    queue.push(1.0, lambda: fired.append("low-prio-second"), priority=1)
    queue.push(1.0, lambda: fired.append("first"), priority=0)
    queue.push(1.0, lambda: fired.append("second"), priority=0)
    while queue:
        queue.pop().callback()
    assert fired == ["first", "second", "low-prio-second"]


def test_cancel_skips_event():
    queue = EventQueue()
    fired = []
    keep = queue.push(1.0, lambda: fired.append("keep"))
    drop = queue.push(0.5, lambda: fired.append("drop"))
    queue.cancel(drop)
    assert len(queue) == 1
    while queue:
        queue.pop().callback()
    assert fired == ["keep"]
    assert keep.time == 1.0


def test_double_cancel_is_noop():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert not queue


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_pop_sequence_is_sorted(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


def test_compaction_shrinks_heap_when_mostly_cancelled():
    """Heavy cancellation must not bloat the heap: once more than half of a
    non-trivial heap is dead it is compacted in place."""
    queue = EventQueue()
    events = [queue.push(float(i % 97), lambda: None) for i in range(1000)]
    for event in events[100:]:
        queue.cancel(event)
    assert len(queue) == 100
    # Compaction keeps the dead fraction bounded: the heap never holds more
    # than ~2x the live events (it would hold all 1000 without compaction).
    assert len(queue._heap) <= 2 * len(queue) + EventQueue.COMPACT_MIN_SIZE


def test_compaction_preserves_pop_order():
    queue = EventQueue()
    live_times = []
    events = []
    for i in range(500):
        t = (i * 37) % 101 + (i % 3) * 0.25
        events.append((t, queue.push(float(t), lambda: None)))
    for index, (t, event) in enumerate(events):
        if index % 5:  # cancel 80%: triggers compaction several times
            queue.cancel(event)
        else:
            live_times.append(t)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(live_times)


def test_small_heaps_are_never_compacted():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(10)]
    for event in events[1:]:
        queue.cancel(event)
    # Below COMPACT_MIN_SIZE the dead entries are left for lazy pop-skip.
    assert len(queue._heap) == 10
    assert len(queue) == 1


def test_pop_due_returns_events_up_to_horizon():
    queue = EventQueue()
    queue.push(1.0, lambda: "a")
    queue.push(2.0, lambda: "b")
    queue.push(3.0, lambda: "c")
    assert queue.pop_due(2.5).time == 1.0
    assert queue.pop_due(2.5).time == 2.0
    assert queue.pop_due(2.5) is None  # t=3 is beyond the horizon...
    assert len(queue) == 1  # ...and stays queued
    assert queue.pop_due(3.0).time == 3.0
    assert queue.pop_due(10.0) is None  # empty queue


def test_pop_due_skips_cancelled_head():
    queue = EventQueue()
    dead = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(dead)
    event = queue.pop_due(5.0)
    assert event.time == 2.0
    assert queue.pop_due(5.0) is None


def test_pop_due_respects_priority_and_fifo():
    queue = EventQueue()
    queue.push(1.0, lambda: None, priority=1, tag="late")
    queue.push(1.0, lambda: None, priority=0, tag="first")
    queue.push(1.0, lambda: None, priority=0, tag="second")
    assert [queue.pop_due(1.0).tag for _ in range(3)] == [
        "first", "second", "late",
    ]


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_cancellation_never_loses_live_events(entries):
    queue = EventQueue()
    live = 0
    for t, cancel in entries:
        event = queue.push(t, lambda: None)
        if cancel:
            queue.cancel(event)
        else:
            live += 1
    assert len(queue) == live
    popped = 0
    while queue:
        queue.pop()
        popped += 1
    assert popped == live


# ----------------------------------------------------------------------
# One tuple-keyed heap (DESIGN.md §15)
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=150,
    ),
    st.integers(min_value=0, max_value=8),
)
def test_pop_order_is_sorted_key_order_under_push_and_cancel(
    entries, compact_min
):
    """Property: with random pushes and cancellations (and aggressive
    compaction), the live events pop in sorted ``(time, priority, seq)``
    order, ``seq`` being the scheduling order."""
    queue = EventQueue(compact_min_size=compact_min)
    events = [
        queue.push(t, lambda: None, priority=prio, tag=index)
        for index, (t, prio, _cancel) in enumerate(entries)
    ]
    for event, (_, _, cancel) in zip(events, entries):
        if cancel:
            queue.cancel(event)
    expected = sorted(
        (t, prio, index)
        for index, (t, prio, cancel) in enumerate(entries)
        if not cancel
    )
    assert len(queue) == len(expected) == queue.scan_live()
    popped = []
    while queue:
        event = queue.pop()
        popped.append((event.time, event.priority, event.tag))
    assert popped == expected
    assert [event.seq for event in events] == list(range(len(entries)))


def test_shard_pop_order_matches_single_heap():
    """Events that once went to per-band shards now share the one heap:
    pushes interleaved with cancelled fillers (which compaction rewrites
    out of the heap) pop in the order of a plain queue, which is sorted
    ``(time, priority, seq)`` order."""
    plain = EventQueue()
    mixed = EventQueue(compact_min_size=0)
    entries = [(0.5, 0), (0.5, 0), (0.1, 1), (0.9, 0), (0.1, 0), (0.5, 2)]
    for index, (t, prio) in enumerate(entries):
        plain.push(t, lambda: None, priority=prio, tag=index)
        filler = mixed.push(0.0, lambda: None, tag="filler")
        mixed.push(t, lambda: None, priority=prio, tag=index)
        mixed.cancel(filler)
    order_plain = [plain.pop().tag for _ in range(len(entries))]
    order_mixed = [mixed.pop().tag for _ in range(len(entries))]
    assert order_mixed == order_plain == [4, 2, 0, 1, 5, 3]
    assert not mixed


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=150,
    )
)
def test_shard_assignment_never_changes_dispatch_order(entries):
    """Property: the heap's layout never changes the dispatch sequence.

    Each event is preceded in one queue by ``fillers`` cancelled events
    (and that queue compacts aggressively), so the two heaps hold the same
    live events in different places; the same subset is cancelled in
    both, and both pop the same tags.
    """
    plain = EventQueue()
    padded = EventQueue(compact_min_size=4)
    plain_events, padded_events = [], []
    for index, (t, prio, fillers, _cancel) in enumerate(entries):
        plain_events.append(plain.push(t, lambda: None, priority=prio, tag=index))
        dead = [padded.push(t, lambda: None, priority=prio) for _ in range(fillers)]
        padded_events.append(
            padded.push(t, lambda: None, priority=prio, tag=index)
        )
        for event in dead:
            padded.cancel(event)
    for (_, _, _, cancel), pe, se in zip(entries, plain_events, padded_events):
        if cancel:
            plain.cancel(pe)
            padded.cancel(se)
    assert len(padded) == len(plain)
    order_plain = [plain.pop().tag for _ in range(len(plain))]
    order_padded = [padded.pop().tag for _ in range(len(padded))]
    assert order_padded == order_plain
    assert not padded and not plain


def test_pop_due_honours_horizon():
    queue = EventQueue()
    queue.push(2.0, lambda: None, tag="mid")
    queue.push(1.0, lambda: None, tag="early")
    queue.push(3.0, lambda: None, tag="late")
    assert queue.peek_time() == 1.0
    assert queue.pop_due(2.5).tag == "early"
    assert queue.pop_due(2.5).tag == "mid"
    assert queue.pop_due(2.5) is None
    assert queue.pop_due(3.0).tag == "late"


def test_heap_entries_compare_without_events():
    """Entries are ``(time, priority, seq, event)``: ``seq`` is unique, so
    comparisons never reach the (unorderable) Event handles."""
    queue = EventQueue()
    for _ in range(5):
        queue.push(1.0, lambda: None, priority=0)
    assert all(len(entry) == 4 for entry in queue._heap)
    assert [queue.pop().seq for _ in range(5)] == list(range(5))


# ----------------------------------------------------------------------
# Compaction configuration and bookkeeping
# ----------------------------------------------------------------------
def test_compaction_threshold_is_configurable():
    eager = EventQueue(compact_min_size=0, compact_dead_fraction=0.1)
    events = [eager.push(float(i), lambda: None) for i in range(20)]
    for event in events[10:]:
        eager.cancel(event)
    assert eager.compactions > 0
    # The heap may keep a sub-threshold tail of dead entries, but eager
    # compaction keeps it close to the live count (10) — far below the
    # 20 entries an uncompacted heap would hold.
    assert len(eager) == 10
    assert len(eager._heap) <= 12

    lazy = EventQueue(compact_min_size=1000)
    events = [lazy.push(float(i), lambda: None) for i in range(20)]
    for event in events[1:]:
        lazy.cancel(event)
    assert lazy.compactions == 0
    assert len(lazy._heap) == 20 and len(lazy) == 1


def test_invalid_compaction_config_rejected():
    with pytest.raises(ValueError):
        EventQueue(compact_min_size=-1)
    with pytest.raises(ValueError):
        EventQueue(compact_dead_fraction=0.0)
    with pytest.raises(ValueError):
        EventQueue(compact_dead_fraction=1.5)


def test_live_and_scan_live_agree():
    queue = EventQueue(compact_min_size=4)
    events = [queue.push(float(i), lambda: None) for i in range(50)]
    for event in events[::3]:
        queue.cancel(event)
    assert queue.live == len(queue) == queue.scan_live()


def test_cancel_after_fire_is_noop():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert queue.pop() is event
    queue.cancel(event)  # fired events must not decrement live again
    assert len(queue) == 0
    assert not event.cancelled


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),
            st.sampled_from(["keep", "cancel", "cancel_after_fire"]),
        ),
        min_size=1,
        max_size=120,
    ),
    st.integers(min_value=0, max_value=16),
)
def test_cancel_after_fire_with_compaction_property(entries, compact_min):
    """Cancel-after-fire interplay with compaction (Event._fired guard).

    Pops mark events ``_fired``; a later ``cancel`` on them must neither
    corrupt the live counter nor trigger a compaction that drops pending
    events — even with an aggressive compaction threshold.
    """
    queue = EventQueue(compact_min_size=compact_min,
                       compact_dead_fraction=0.25)
    events = [queue.push(t, lambda: None, tag=fate) for t, fate in entries]
    cancelled = 0
    for event, (_, fate) in zip(events, entries):
        if fate == "cancel":
            queue.cancel(event)
            cancelled += 1
    fired = []
    for event, (_, fate) in zip(events, entries):
        if fate == "cancel_after_fire":
            popped = queue.pop()  # earliest live event, not necessarily this one
            fired.append(popped)
            queue.cancel(popped)
            assert popped._fired and not popped.cancelled
    expected_live = len(entries) - cancelled - len(fired)
    assert len(queue) == expected_live == queue.scan_live()
    drained = []
    while queue:
        drained.append(queue.pop())
    assert len(drained) == expected_live
    drain_keys = [(e.time, e.priority, e.seq) for e in drained]
    assert drain_keys == sorted(drain_keys)
