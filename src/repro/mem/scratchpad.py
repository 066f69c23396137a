"""Scratchpad memory: directly addressed, private to a thread block.

The baseline local memory of the second case study (Section 6.2.1): 16 KB,
32 banks, 1-cycle access (Table 5.1).  It is not coherent -- data must be
explicitly copied in with load/store pairs (baseline), by a DMA engine
(scratchpad+DMA), or implicitly by the stash.

Bank conflicts: a warp access whose lanes map to the same bank more than
once serializes, occupying the LSU for the extra cycles -- that occupancy is
what the "bank conflict" memory structural stall sub-class measures.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.component import Component


class Scratchpad(Component):
    """Functional storage plus bank-conflict accounting for one SM."""

    WORD = 4

    def __init__(self, size: int, banks: int, hit_latency: int = 1) -> None:
        if size % (banks * self.WORD):
            raise ValueError("scratchpad size must divide evenly across banks")
        Component.__init__(self, "scratchpad")
        self.size = size
        self.banks = banks
        self.hit_latency = hit_latency
        self._words: dict[int, int] = {}
        # statistics
        self.accesses = self.stat_counter("accesses")
        self.conflict_cycles = self.stat_counter("conflict_cycles")

    # ------------------------------------------------------------------
    def bank_of(self, addr: int) -> int:
        return (addr // self.WORD) % self.banks

    def conflict_degree(self, addrs: Sequence[int]) -> int:
        """Max accesses landing in one bank (1 = conflict free)."""
        if not addrs:
            return 1
        word, banks = self.WORD, self.banks
        hit = [(a // word) % banks for a in addrs]
        distinct = len(set(hit))
        if distinct == len(hit):
            return 1  # every lane on its own bank (e.g. consecutive words)
        # Strided lanes hit each of their banks equally often, ``degree``
        # times: sorted, every block of ``degree`` entries is then one
        # bank, which its first and last entries show.
        hit.sort()
        degree, rest = divmod(len(hit), distinct)
        if not rest and hit[::degree] == hit[degree - 1::degree]:
            return degree
        counts: dict[int, int] = {}
        get = counts.get
        for b in hit:
            counts[b] = get(b, 0) + 1
        return max(counts.values())

    def access_cycles(self, addrs: Sequence[int]) -> int:
        """Cycles the access occupies a scratchpad port (serialization)."""
        degree = self.conflict_degree(addrs)
        self.accesses.value += 1
        self.conflict_cycles.value += degree - 1
        return self.hit_latency + (degree - 1)

    # ------------------------------------------------------------------
    def load_word(self, addr: int) -> int:
        self._check(addr)
        return self._words.get(addr & ~0x3, 0)

    def store_word(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr & ~0x3] = value

    # Line copies: ``addrs`` ascend, so range-checking the two ends checks
    # every word between them.
    def load_words(self, addrs: Sequence[int]) -> list[int]:
        self._check(*addrs[:1], *addrs[-1:])
        get = self._words.get
        return [get(a & ~0x3, 0) for a in addrs]

    def store_words(self, addrs: Sequence[int], values: Sequence[int]) -> None:
        self._check(*addrs[:1], *addrs[-1:])
        self._words.update(zip([a & ~0x3 for a in addrs], values))

    def _check(self, *addrs: int) -> None:
        for addr in addrs:
            if not 0 <= addr < self.size:
                raise ValueError("scratchpad address %#x out of range" % addr)
