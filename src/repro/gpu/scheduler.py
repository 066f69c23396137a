"""Warp schedulers.

The warp scheduler decides the order in which the issue stage considers
warps each cycle (Chapter 2).  Two standard policies are provided:

* **LRR** (loose round robin): start from the warp after the last issuer and
  rotate -- the GPGPU-Sim default and our default.
* **GTO** (greedy-then-oldest): keep issuing from the same warp until it
  stalls, then fall back to the oldest warp.

The choice is an ablation axis (``SystemConfig.warp_scheduler``); GSI itself
is scheduler-agnostic.
"""

from __future__ import annotations

from typing import Sequence

from repro.gpu.warp import Warp


class WarpScheduler:
    """Base: subclasses order the warps considered by the issue stage."""

    def order(self, warps: Sequence[Warp], now: int) -> list[Warp]:
        raise NotImplementedError

    def note_issue(self, warp: Warp, index: int, now: int) -> None:
        """Called when ``warp`` (at position ``index``) issues."""


class LooseRoundRobin(WarpScheduler):
    def __init__(self) -> None:
        self._start = 0

    def order(self, warps: list[Warp], now: int) -> list[Warp]:
        # Called on every SM tick; slicing the list already copies it.
        s = self._start % len(warps) if warps else 0
        return warps[s:] + warps[:s] if s else warps[:]

    def note_issue(self, warp: Warp, index: int, now: int) -> None:
        self._start += 1


class GreedyThenOldest(WarpScheduler):
    def __init__(self) -> None:
        self._greedy: Warp | None = None

    def order(self, warps: Sequence[Warp], now: int) -> list[Warp]:
        ordered = sorted(warps, key=lambda w: w.ctx.warp_id)
        if self._greedy is not None and self._greedy in ordered:
            ordered.remove(self._greedy)
            ordered.insert(0, self._greedy)
        return ordered

    def note_issue(self, warp: Warp, index: int, now: int) -> None:
        self._greedy = warp


def make_scheduler(kind: str) -> WarpScheduler:
    if kind == "lrr":
        return LooseRoundRobin()
    if kind == "gto":
        return GreedyThenOldest()
    raise ValueError("unknown warp scheduler %r" % kind)
