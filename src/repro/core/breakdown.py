"""Stall breakdown containers.

A :class:`StallBreakdown` is the product GSI hands back: per stall type
cycle counts, plus the two sub-taxonomies (where memory-data dependencies
were serviced, and what blocked the LSU).  Breakdowns support merging
(across SMs), normalization (the paper plots everything normalized to a
baseline configuration) and structured export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stall_types import (
    MEM_DATA_ORDER,
    MEM_STRUCT_ORDER,
    MemStructCause,
    ServiceLocation,
    StallType,
)


@dataclass
class StallBreakdown:
    """Cycle counts by stall cause for one SM or aggregated."""

    counts: dict[StallType, int] = field(
        default_factory=lambda: {s: 0 for s in StallType}
    )
    mem_data: dict[ServiceLocation, int] = field(
        default_factory=lambda: {l: 0 for l in ServiceLocation}
    )
    mem_struct: dict[MemStructCause, int] = field(
        default_factory=lambda: {c: 0 for c in MemStructCause}
    )

    # ------------------------------------------------------------------
    def add(self, stall: StallType, n: int = 1) -> None:
        self.counts[stall] += n

    def add_mem_data(self, loc: ServiceLocation, n: int = 1) -> None:
        self.mem_data[loc] += n

    def add_mem_struct(self, cause: MemStructCause, n: int = 1) -> None:
        self.mem_struct[cause] += n

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(self.counts.values())

    @property
    def stall_cycles(self) -> int:
        return self.total_cycles - self.counts[StallType.NO_STALL]

    def fraction(self, stall: StallType) -> float:
        total = self.total_cycles
        return self.counts[stall] / total if total else 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "StallBreakdown") -> "StallBreakdown":
        out = StallBreakdown()
        for s in StallType:
            out.counts[s] = self.counts[s] + other.counts[s]
        for l in ServiceLocation:
            out.mem_data[l] = self.mem_data[l] + other.mem_data[l]
        for c in MemStructCause:
            out.mem_struct[c] = self.mem_struct[c] + other.mem_struct[c]
        return out

    @staticmethod
    def merged(parts: list["StallBreakdown"]) -> "StallBreakdown":
        out = StallBreakdown()
        for part in parts:
            out = out.merge(part)
        return out

    def copy(self) -> "StallBreakdown":
        out = StallBreakdown()
        out.counts = dict(self.counts)
        out.mem_data = dict(self.mem_data)
        out.mem_struct = dict(self.mem_struct)
        return out

    # ------------------------------------------------------------------
    def normalized_to(self, baseline: "StallBreakdown") -> dict[StallType, float]:
        """Per-type cycles as a fraction of the *baseline's total* cycles --
        the normalization used by every figure in the paper."""
        base = baseline.total_cycles
        if base == 0:
            raise ValueError("baseline breakdown has zero cycles")
        return {s: self.counts[s] / base for s in StallType}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, dict[str, int]]:
        return {
            "counts": {s.value: n for s, n in self.counts.items()},
            "mem_data": {l.value: n for l, n in self.mem_data.items()},
            "mem_struct": {c.value: n for c, n in self.mem_struct.items()},
        }

    @staticmethod
    def from_dict(data: dict[str, dict[str, int]]) -> "StallBreakdown":
        out = StallBreakdown()
        for s in StallType:
            out.counts[s] = int(data["counts"].get(s.value, 0))
        for l in ServiceLocation:
            out.mem_data[l] = int(data["mem_data"].get(l.value, 0))
        for c in MemStructCause:
            out.mem_struct[c] = int(data["mem_struct"].get(c.value, 0))
        return out

    def rows(self) -> list[tuple[str, int]]:
        """Stable (label, cycles) rows for reporting."""
        out = [(s.value, self.counts[s]) for s in StallType]
        out += [("mem_data:%s" % l.value, self.mem_data[l]) for l in MEM_DATA_ORDER]
        out += [
            ("mem_struct:%s" % c.value, self.mem_struct[c]) for c in MEM_STRUCT_ORDER
        ]
        return out

    def validate(self) -> None:
        """Internal consistency: sub-taxonomies cannot exceed their parents."""
        if any(n < 0 for n in self.counts.values()):
            raise ValueError("negative stall count")
        if sum(self.mem_data.values()) > self.counts[StallType.MEM_DATA]:
            raise ValueError("memory-data sub-classes exceed memory-data stalls")
        if sum(self.mem_struct.values()) > self.counts[StallType.MEM_STRUCT]:
            raise ValueError(
                "memory-structural sub-classes exceed memory-structural stalls"
            )
