"""Compute execution units.

Two unit classes per SM, enough to exercise both compute stall types:

* the **ALU** is fully pipelined (a warp ALU op can issue every cycle) with
  a fixed result latency -- it generates compute *data* stalls only;
* the **SFU** has a long latency and a multi-cycle initiation interval, so
  bursty use of it also generates compute *structural* stalls ("an
  application that uses an execution unit in a bursty manner may incur
  underutilization", Chapter 2).
"""

from __future__ import annotations

from repro.core.component import Component
from repro.sim.config import SystemConfig


class ComputeUnits(Component):
    """ALU + SFU issue ports of one SM."""

    def __init__(self, config: SystemConfig) -> None:
        Component.__init__(self, "compute_units")
        self.alu_latency = config.alu_latency
        self.sfu_latency = config.sfu_latency
        self.sfu_interval = config.sfu_initiation_interval
        self._sfu_free_at = 0
        # statistics
        self.alu_issued = self.stat_counter("alu_issued")
        self.sfu_issued = self.stat_counter("sfu_issued")
        self.sfu_rejections = self.stat_counter("sfu_rejections")

    # ------------------------------------------------------------------
    def sfu_ready(self, now: int) -> bool:
        return now >= self._sfu_free_at

    def issue_alu(self, now: int, latency: int | None = None) -> int:
        """Returns the cycle the result is ready."""
        self.alu_issued.value += 1
        return now + (latency if latency is not None else self.alu_latency)

    def issue_sfu(self, now: int) -> int:
        if not self.sfu_ready(now):
            raise RuntimeError("SFU issue port busy")
        self._sfu_free_at = now + self.sfu_interval
        self.sfu_issued.value += 1
        return now + self.sfu_latency

    def note_sfu_rejection(self) -> None:
        self.sfu_rejections.value += 1
