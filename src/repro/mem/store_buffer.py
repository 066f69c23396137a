"""Write-combining store buffer.

Per Chapter 5: every configuration uses a 32-entry write-combining store
buffer that tracks pending writes and is flushed when it becomes full, at the
end of a kernel, and on a release operation.  Entries are allocated per cache
line so multiple stores to the same line combine into one entry (and one
write-through message under GPU coherence, or one ownership request under
DeNovo) -- but combining only applies while the entry has not yet been
issued to the memory system; a store landing on a line whose entry is
already in flight allocates a fresh entry.

The buffer drains one entry per ``drain_interval`` cycles through a callback
supplied by the L1 controller; an entry is freed only when the controller
acknowledges it (write-through ack from the L2, or ownership ack for
DeNovo).  ``flush()`` registers a barrier callback fired when everything
allocated so far has been acknowledged -- that is what a release operation
waits on, and what the "pending release" structural stall measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.core.component import Component


class SbEntryState(enum.Enum):
    PENDING = "pending"    # waiting to be issued to the memory system
    ISSUED = "issued"      # request in flight, waiting for the ack


@dataclass(slots=True)
class SbEntry:
    line: int
    words: set[int] = field(default_factory=set)
    state: SbEntryState = SbEntryState.PENDING
    seq: int = 0


class StoreBuffer(Component):
    """Write-combining store buffer with flush barriers.

    ``_entries`` is keyed by each entry's ``seq``, so an ack that carries
    the sequence number (the L1 always round-trips it through the message
    ``meta``) frees its entry by direct index.  Freed :class:`SbEntry`
    objects (and their word sets) are pooled and re-armed in place on the
    next non-combining store, so an entry handed out by :meth:`write` or
    to ``issue_fn`` is only valid until its ack.
    """

    def __init__(
        self,
        capacity: int,
        issue_fn: Callable[[SbEntry], None],
        write_combining: bool = True,
        drain_interval: int = 1,
        name: str = "store_buffer",
    ) -> None:
        if capacity < 1:
            raise ValueError("store buffer needs at least one entry")
        Component.__init__(self, name)
        self.capacity = capacity
        self.write_combining = write_combining
        self.drain_interval = drain_interval
        self._issue_fn = issue_fn
        #: seq -> entry, in allocation (and hence drain) order
        self._entries: dict[int, SbEntry] = {}
        #: acknowledged entries, re-armed by the next non-combining store
        self._free: list[SbEntry] = []
        #: line -> seq of its PENDING (combinable) entry, if any
        self._pending_by_line: dict[int, int] = {}
        self._seq = 0
        self._flush_waiters: list[tuple[int, Callable[[], None]]] = []
        # statistics
        self.stores_accepted = self.stat_counter("stores_accepted")
        self.combines = self.stat_counter("combines")
        self.full_rejections = self.stat_counter("full_rejections")
        self.flushes = self.stat_counter("flushes")
        self.peak_occupancy = self.stat_counter("peak_occupancy")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has_combinable_entry(self, line: int) -> bool:
        """Is there a not-yet-issued entry this store would merge into?"""
        return self.write_combining and line in self._pending_by_line

    def can_accept(self, line: int) -> bool:
        """A store to ``line`` fits if it combines or a free entry exists."""
        return self.has_combinable_entry(line) or not self.is_full()

    def write(self, line: int, words: set[int] | None = None) -> SbEntry:
        """Buffer a store to ``line``.  Caller must check :meth:`can_accept`."""
        if self.has_combinable_entry(line):
            entry = self._entries[self._pending_by_line[line]]
            if words:
                entry.words |= words
            self.combines.value += 1
            self.stores_accepted.value += 1
            return entry
        entries = self._entries
        if len(entries) >= self.capacity:
            raise RuntimeError("store buffer overflow")
        self._seq += 1
        free = self._free
        if free:
            entry = free.pop()
            entry.line = line
            entry.words.clear()
            if words:
                entry.words |= words
            entry.state = SbEntryState.PENDING
            entry.seq = self._seq
        else:
            entry = SbEntry(
                line=line, words=set(words) if words else set(), seq=self._seq
            )
        entries[self._seq] = entry
        if self.write_combining:
            self._pending_by_line[line] = self._seq
        self.stores_accepted.value += 1
        self.peak_occupancy.maximize(len(entries))
        return entry

    # ------------------------------------------------------------------
    def drain_one(self) -> SbEntry | None:
        """Issue the oldest PENDING entry to the memory system, if any."""
        for entry in self._entries.values():
            if entry.state is SbEntryState.PENDING:
                entry.state = SbEntryState.ISSUED
                if self._pending_by_line.get(entry.line) == entry.seq:
                    del self._pending_by_line[entry.line]
                self._issue_fn(entry)
                return entry
        return None

    def has_pending(self) -> bool:
        return any(e.state is SbEntryState.PENDING for e in self._entries.values())

    def ack(self, line: int, seq: int | None = None) -> None:
        """The memory system acknowledged the entry for ``line``: free it.

        With ``seq`` the entry is found by direct index; without it, the
        oldest issued entry for ``line`` is.
        """
        if seq is None:
            seq = next(
                (k for k, e in self._entries.items()
                 if e.line == line and e.state is SbEntryState.ISSUED),
                None,
            )
        entry = self._entries.get(seq)
        if (
            entry is None
            or entry.line != line
            or entry.state is not SbEntryState.ISSUED
        ):
            raise KeyError("no issued store-buffer entry for line %#x" % line)
        del self._entries[seq]
        self._free.append(entry)
        self._check_flush_waiters()

    # ------------------------------------------------------------------
    def flush(self, on_done: Callable[[], None]) -> None:
        """Run ``on_done`` once every entry allocated so far is acknowledged."""
        self.flushes.value += 1
        if self.is_empty():
            on_done()
            return
        self._flush_waiters.append((self._seq, on_done))

    def flush_in_progress(self) -> bool:
        return bool(self._flush_waiters)

    def _check_flush_waiters(self) -> None:
        if not self._flush_waiters:
            return
        oldest_live = min((e.seq for e in self._entries.values()), default=None)
        ready: list[Callable[[], None]] = []
        remaining: list[tuple[int, Callable[[], None]]] = []
        for barrier_seq, cb in self._flush_waiters:
            if oldest_live is None or oldest_live > barrier_seq:
                ready.append(cb)
            else:
                remaining.append((barrier_seq, cb))
        self._flush_waiters = remaining
        for cb in ready:
            cb()
