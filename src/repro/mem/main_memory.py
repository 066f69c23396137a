"""Main memory: functional state plus a DRAM timing model.

Functional and timing state are deliberately decoupled (a standard simulator
design).  :class:`GlobalMemory` is the single authoritative word store for
the whole system: plain stores update it at issue time, loads read it at
completion time, and atomics perform their read-modify-write when the request
is serviced at the L2 (which is where atomics execute in the simulated
system, per Chapter 5).  The decoupling is safe for the workloads studied
because every cross-thread data access is ordered by an atomic
acquire/release pair.

:class:`Dram` is the timing side: a fixed access latency plus per-channel
serialization, so bursty traffic (DMA transfers, store-buffer flushes)
queues up realistically.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.component import Component


class GlobalMemory:
    """Word-addressable functional memory (4-byte words, default 0)."""

    WORD = 4

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def load_word(self, addr: int) -> int:
        return self._words.get(addr & ~0x3, 0)

    def store_word(self, addr: int, value: int) -> None:
        self._words[addr & ~0x3] = value

    def load_words(self, addrs: Iterable[int]) -> list[int]:
        """``load_word`` of each address, in order."""
        get = self._words.get
        return [get(a & ~0x3, 0) for a in addrs]

    def store_words(self, addrs: Iterable[int], values: Iterable[int]) -> None:
        """``store_word`` for each address/value pair, in order."""
        self._words.update(zip([a & ~0x3 for a in addrs], values))

    def atomic_rmw(self, addr: int, fn) -> tuple[int, int]:
        """Apply ``fn(old) -> (new, result)`` atomically; returns ``(old, result)``.

        ``result`` is what the issuing instruction observes (e.g. the old
        value for CAS/EXCH, the old value for ADD).
        """
        addr &= ~0x3
        old = self._words.get(addr, 0)
        new, result = fn(old)
        self._words[addr] = new
        return old, result

    def __len__(self) -> int:
        return len(self._words)


class Dram(Component):
    """Per-channel DRAM timing: fixed latency + one access per cycle."""

    def __init__(self, latency: int = 170, channels: int = 4) -> None:
        if channels < 1:
            raise ValueError("need at least one DRAM channel")
        Component.__init__(self, "dram")
        self.latency = latency
        self.channels = channels
        self._free: list[int] = [0] * channels
        self.accesses = self.stat_counter("accesses")

    def channel_of(self, line: int) -> int:
        return line % self.channels

    def access_done(self, now: int, line: int) -> int:
        """Reserve a slot for ``line``; returns the completion cycle."""
        ch = self.channel_of(line)
        start = max(now, self._free[ch])
        self._free[ch] = start + 1
        self.accesses.value += 1
        return start + self.latency
