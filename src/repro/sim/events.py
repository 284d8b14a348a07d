"""Event objects and the pending-event queue for the discrete-event kernel.

The queue is one binary heap of ``(time, priority, seq, event)`` tuples.
The sequence number makes ordering total and deterministic: two events
scheduled for the same instant with the same priority fire in scheduling
order, which keeps runs bit-reproducible for a fixed seed.  Because
``seq`` is unique, tuple comparison never reaches the :class:`Event`
itself, so every heap comparison runs in C (DESIGN.md §15).

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This keeps cancellation O(1), which matters because CSMA backoff and
reception bookkeeping cancel events constantly.  To stop cancelled entries
from bloating the heap (and taxing every subsequent push/pop with extra
comparisons), the queue *compacts* itself whenever the dead fraction of a
non-trivial heap exceeds ``compact_dead_fraction``: live entries are filtered
out and re-heapified, which preserves the total ``(time, priority, seq)``
order exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]

_INFINITY = float("inf")
_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback (the handle :meth:`EventQueue.push` returns).

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-breaker for events at the same instant; lower fires first.
    seq:
        Scheduling sequence number; breaks the remaining ties FIFO.
    callback:
        Zero-argument callable invoked when the event fires.
    tag:
        Optional label used in traces and error messages.
    """

    __slots__ = ("time", "priority", "seq", "callback", "tag",
                 "_cancelled", "_fired")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.tag = tag
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Mark the event so it will be skipped when it reaches the head."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        tag = f" tag={self.tag!r}" if self.tag else ""
        return f"<Event t={self.time:.9f} prio={self.priority}{tag} {state}>"


#: One heap entry: the ordering key followed by the handle it orders.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects.

    Parameters
    ----------
    compact_min_size:
        Heaps at or below this size are never compacted (the filter pass
        is not worth it).  Defaults to :data:`COMPACT_MIN_SIZE`.
    compact_dead_fraction:
        Compact the heap when more than this fraction of its entries are
        cancelled.  The 0.5 default suits ordinary runs; high-churn
        50k-mote scenes may prefer a smaller fraction (compact eagerly,
        keep pops shallow) or a larger one (compact rarely, tolerate
        skips).
    """

    #: Default for ``compact_min_size`` (kept as a class attribute for
    #: backwards compatibility with callers that read it directly).
    COMPACT_MIN_SIZE = 64

    def __init__(
        self,
        compact_min_size: Optional[int] = None,
        compact_dead_fraction: float = 0.5,
    ) -> None:
        if compact_min_size is None:
            compact_min_size = self.COMPACT_MIN_SIZE
        if compact_min_size < 0:
            raise ValueError(
                f"compact_min_size must be >= 0, got {compact_min_size}"
            )
        if not 0.0 < compact_dead_fraction <= 1.0:
            raise ValueError(
                "compact_dead_fraction must be in (0, 1], "
                f"got {compact_dead_fraction}"
            )
        self.compact_min_size = int(compact_min_size)
        self.compact_dead_fraction = float(compact_dead_fraction)
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self._live = 0
        #: Cancelled-but-still-heaped entry count; drives the compaction
        #: trigger without O(n) scans.
        self._dead = 0
        #: Total compaction passes over the queue's lifetime (obs gauge).
        self.compactions = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def live(self) -> int:
        """Live event count (gauge-friendly alias of ``len``)."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its handle."""
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, tag)
        _heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel an event previously returned by :meth:`push`.

        Cancelling an already-cancelled or already-fired event is a no-op.
        When the cancelled fraction of the heap exceeds
        ``compact_dead_fraction``, the heap is compacted (dead entries
        dropped, then re-heapified).
        """
        if event._cancelled or event._fired:
            return
        event._cancelled = True
        self._live -= 1
        dead = self._dead = self._dead + 1
        size = len(self._heap)
        if size > self.compact_min_size and dead > size * self.compact_dead_fraction:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Ordering is untouched: the heap property is re-established over the
        same total order (the entry tuples), so the pop sequence of live
        events is identical before and after compaction.
        """
        live = [entry for entry in self._heap if not entry[3]._cancelled]
        heapq.heapify(live)
        self._heap = live
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        event = self.pop_due(_INFINITY)
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_due(self, until: float) -> Optional[Event]:
        """Pop the earliest live event at or before ``until``, else ``None``.

        Fuses the ``peek_time`` + ``pop`` pair the kernel run loop would
        otherwise perform.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event._cancelled:
                _heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > until:
                return None
            _heappop(heap)
            event._fired = True
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            _heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Audit / maintenance
    # ------------------------------------------------------------------
    def scan_live(self) -> int:
        """Count live events by a full scan of the heap (O(n)).

        Audit hook for the invariant layer
        (:mod:`repro.check.invariants`): the lazily-maintained
        :attr:`_live` counter drives ``__len__``/``__bool__`` and hence
        the run loop's termination, so a drifted counter would silently
        truncate or overrun a simulation.  ``scan_live`` recomputes the
        ground truth so the checker can compare.
        """
        return sum(1 for entry in self._heap if not entry[3]._cancelled)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._dead = 0
        self._live = 0
