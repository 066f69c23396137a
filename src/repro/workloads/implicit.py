"""The `implicit` microbenchmark (case study 2, Section 6.2).

An array is mapped to scratchpad/stash memory; each thread block owns a
chunk, and each thread reads one element, computes on it, and writes the
result back to the same location -- a regular streaming pattern that
highlights implicit vs. explicit data movement.  It runs on a single GPU
core (Chapter 5: "the microbenchmark used in our second case study utilizes
only one GPU core").

Three variants, one per memory organization:

* **scratchpad** -- explicit copy-in (address-calc ALU + global load +
  dependent scratchpad store, unrolled), barrier, compute phase out of the
  scratchpad, barrier, explicit copy-out.  The interleaved address
  arithmetic throttles the global request rate, which is why the baseline
  sees *fewer* memory structural stalls than its successors.
* **scratchpad+DMA** -- a DMA engine bulk-loads the chunk (one line per
  cycle, MSHR-throttled, L1-bypassing); scratchpad accesses block at core
  granularity until the transfer completes; copy-out is a DMA too.
* **stash** -- the chunk is stash-mapped; loads fill on demand through the
  coherent stash map (blocking only the requesting warp) and dirty data is
  lazily written back when the warp finishes its chunk.

Elements are 8 bytes so one warp access touches 4 cache lines (request-rate
pressure on the MSHR) and strides 2 scratchpad banks (mild bank conflicts),
both of which the paper's Figure 6.3c breakdown shows for the baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.instruction import Instruction, Space
from repro.gpu.kernel import Kernel, WarpContext, uniform_grid
from repro.sim.config import LocalMemory, SystemConfig
from repro.workloads.base import REGION_ARRAY, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

_ELEMENT_BYTES = 8
#: copy-in unroll of the explicit scratchpad baseline: the dependent
#: scratchpad store trails its global load by at most two instructions,
#: which is what turns large-MSHR runs into memory *data* stall machines
#: (Section 6.2.4's 13x effect).
_UNROLL_SCRATCHPAD = 2
#: stash issue unroll: independent on-demand fills that the interleaved
#: compute chain can absorb (the paper's warp-granularity advantage).
_UNROLL_STASH = 2


class _ImplicitBase(Workload):
    """Shared geometry of the three implicit variants."""

    local_memory = LocalMemory.SCRATCHPAD

    def __init__(
        self,
        num_tbs: int = 4,
        warps_per_tb: int = 8,
        compute_per_element: int = 4,
    ) -> None:
        self.num_tbs = num_tbs
        self.warps_per_tb = warps_per_tb
        self.compute_per_element = compute_per_element

    # ------------------------------------------------------------------
    def configure(self, config: SystemConfig) -> SystemConfig:
        return config.scaled(num_sms=1, local_memory=self.local_memory)

    # Geometry helpers -------------------------------------------------
    def chunk_bytes(self, cfg: SystemConfig) -> int:
        return cfg.scratchpad_size               # one TB fills the scratchpad

    def warp_bytes(self, cfg: SystemConfig) -> int:
        return self.chunk_bytes(cfg) // self.warps_per_tb

    def iters_per_warp(self, cfg: SystemConfig) -> int:
        return self.warp_bytes(cfg) // (cfg.warp_size * _ELEMENT_BYTES)

    def global_chunk(self, cfg: SystemConfig, tb: int) -> int:
        return REGION_ARRAY + tb * self.chunk_bytes(cfg)

    def lane_addrs(self, base: int, cfg: SystemConfig) -> list[int]:
        return [base + lane * _ELEMENT_BYTES for lane in range(cfg.warp_size)]

    def init_memory(self, system: "System") -> None:
        """Initialize the array and warm the L2 with it: the measured
        kernel operates on data an earlier kernel produced (so first
        accesses hit the 4 MB L2, not cold DRAM)."""
        cfg = system.config
        lines = []
        for tb in range(self.num_tbs):
            base = self.global_chunk(cfg, tb)
            size = self.chunk_bytes(cfg)
            system.memory.store_words(
                range(base, base + size, 4),
                [(tb << 16) | (off & 0xFFFF) for off in range(0, size, 4)],
            )
            lines.extend(
                cfg.line_of(base + off)
                for off in range(0, size, cfg.line_size)
            )
        system.l2.warm_lines(lines)

    def _compute(self, dst_base: int = 6):
        """The per-element compute chain (depends on the loaded register)."""
        for k in range(self.compute_per_element):
            src = 5 if k == 0 else dst_base
            yield Instruction.alu(dst=dst_base, srcs=(src,), tag="compute")


class ImplicitScratchpad(_ImplicitBase):
    """Baseline: explicit copy-in / copy-out through the register file."""

    name = "implicit_scratchpad"
    local_memory = LocalMemory.SCRATCHPAD

    def build(self, system: "System") -> Kernel:
        cfg = system.config
        self.init_memory(system)
        iters = self.iters_per_warp(cfg)
        iter_bytes = cfg.warp_size * _ELEMENT_BYTES

        def factory(tb: int, w: int):
            gbase = self.global_chunk(cfg, tb) + w * self.warp_bytes(cfg)
            sbase = w * self.warp_bytes(cfg)

            def program(ctx: WarpContext):
                # ---- explicit load phase (unrolled by _UNROLL) ----------
                for it in range(0, iters, _UNROLL_SCRATCHPAD):
                    n = min(_UNROLL_SCRATCHPAD, iters - it)
                    for u in range(n):
                        off = (it + u) * iter_bytes
                        # address calculation for the strided global access
                        # (two ops: index scale + base add), the interleave
                        # that throttles the baseline's request rate
                        yield Instruction.alu(dst=10 + u, tag="addr")
                        yield Instruction.alu(dst=10 + u, srcs=(10 + u,), tag="addr")
                        yield Instruction.load(
                            self.lane_addrs(gbase + off, cfg),
                            dst=1 + u,
                            tag="copy_in_load",
                        )
                    for u in range(n):
                        off = (it + u) * iter_bytes
                        # the dependent store that turns big-MSHR configs
                        # into memory *data* stall machines (Section 6.2.4)
                        yield Instruction.store(
                            self.lane_addrs(sbase + off, cfg),
                            srcs=(1 + u,),
                            space=Space.SCRATCH,
                            tag="copy_in_store",
                        )
                yield Instruction.barrier()
                # ---- compute phase --------------------------------------
                for it in range(iters):
                    off = it * iter_bytes
                    yield Instruction.load(
                        self.lane_addrs(sbase + off, cfg),
                        dst=5,
                        space=Space.SCRATCH,
                        tag="compute_load",
                    )
                    yield from self._compute()
                    yield Instruction.store(
                        self.lane_addrs(sbase + off, cfg),
                        srcs=(6,),
                        space=Space.SCRATCH,
                        tag="compute_store",
                    )
                yield Instruction.barrier()
                # ---- explicit writeback phase ----------------------------
                for it in range(iters):
                    off = it * iter_bytes
                    yield Instruction.load(
                        self.lane_addrs(sbase + off, cfg),
                        dst=7,
                        space=Space.SCRATCH,
                        tag="copy_out_load",
                    )
                    yield Instruction.alu(dst=11, tag="addr")
                    yield Instruction.alu(dst=11, srcs=(11,), tag="addr")
                    yield Instruction.store(
                        self.lane_addrs(gbase + off, cfg),
                        srcs=(7,),
                        tag="copy_out_store",
                    )

            return program

        return uniform_grid(
            self.name,
            self.num_tbs,
            self.warps_per_tb,
            factory,
            # One thread block fills the scratchpad: single-TB residency.
            warps_per_sm_limit=self.warps_per_tb,
        )


class ImplicitDma(_ImplicitBase):
    """Scratchpad + DMA engine (the paper's D2MA approximation)."""

    name = "implicit_dma"
    local_memory = LocalMemory.SCRATCHPAD_DMA

    def build(self, system: "System") -> Kernel:
        cfg = system.config
        self.init_memory(system)
        iters = self.iters_per_warp(cfg)
        iter_bytes = cfg.warp_size * _ELEMENT_BYTES
        chunk = self.chunk_bytes(cfg)

        def factory(tb: int, w: int):
            gbase = self.global_chunk(cfg, tb) + w * self.warp_bytes(cfg)
            sbase = w * self.warp_bytes(cfg)
            tb_gbase = self.global_chunk(cfg, tb)

            def program(ctx: WarpContext):
                if ctx.warp_index == 0:
                    # One warp kicks off the bulk transfer for the block.
                    yield Instruction.dma_to_scratch(0, tb_gbase, chunk)
                # ---- compute phase; first scratch access blocks on the
                # pending DMA at core granularity -------------------------
                for it in range(iters):
                    off = it * iter_bytes
                    yield Instruction.load(
                        self.lane_addrs(sbase + off, cfg),
                        dst=5,
                        space=Space.SCRATCH,
                        tag="compute_load",
                    )
                    yield from self._compute()
                    yield Instruction.store(
                        self.lane_addrs(sbase + off, cfg),
                        srcs=(6,),
                        space=Space.SCRATCH,
                        tag="compute_store",
                    )
                yield Instruction.barrier()
                if ctx.warp_index == 0:
                    # Conservative bulk copy-out of the whole chunk.
                    yield Instruction.dma_to_global(0, tb_gbase, chunk)

            return program

        return uniform_grid(
            self.name,
            self.num_tbs,
            self.warps_per_tb,
            factory,
            warps_per_sm_limit=self.warps_per_tb,
        )


class ImplicitStash(_ImplicitBase):
    """Stash: on-demand coherent fills, lazy writeback, warp-grain blocking."""

    name = "implicit_stash"
    local_memory = LocalMemory.STASH

    def configure(self, config: SystemConfig) -> SystemConfig:
        # The stash is part of the coherent address space; the paper runs
        # all of case study 2 under DeNovo.
        from repro.sim.config import Protocol

        return super().configure(config).scaled(protocol=Protocol.DENOVO)

    def build(self, system: "System") -> Kernel:
        cfg = system.config
        self.init_memory(system)
        iters = self.iters_per_warp(cfg)
        iter_bytes = cfg.warp_size * _ELEMENT_BYTES

        def warp_ranges(tb: int, w: int) -> tuple[int, int]:
            return (
                w * self.warp_bytes(cfg),
                self.global_chunk(cfg, tb) + w * self.warp_bytes(cfg),
            )

        def on_warp_finish(sm, ctx: WarpContext) -> None:
            # Lazy writeback: the warp's dirty stash lines drain through the
            # store path once its chunk is complete, and the region is
            # released so the next thread block can re-map it.
            sbase, _ = warp_ranges(ctx.tb_id, ctx.warp_index)
            sm.stash.release_region(sbase, self.warp_bytes(cfg))

        def factory(tb: int, w: int):
            sbase, gbase = warp_ranges(tb, w)

            def program(ctx: WarpContext):
                # Install the stash map: no data moves here.
                yield Instruction.stash_map(sbase, gbase, self.warp_bytes(cfg))

                def issue_loads(group: int):
                    base_reg = 5 if group % 2 == 0 else 7
                    start = group * _UNROLL_STASH
                    for u in range(min(_UNROLL_STASH, iters - start)):
                        off = (start + u) * iter_bytes
                        yield Instruction.load(
                            self.lane_addrs(sbase + off, cfg),
                            dst=base_reg + u,
                            space=Space.STASH,
                            tag="stash_load",
                        )

                def compute_group(group: int):
                    base_reg = 5 if group % 2 == 0 else 7
                    start = group * _UNROLL_STASH
                    for u in range(min(_UNROLL_STASH, iters - start)):
                        off = (start + u) * iter_bytes
                        yield Instruction.alu(
                            dst=20 + u, srcs=(base_reg + u,), tag="compute"
                        )
                        for _k in range(self.compute_per_element - 1):
                            yield Instruction.alu(
                                dst=20 + u, srcs=(20 + u,), tag="compute"
                            )
                        yield Instruction.store(
                            self.lane_addrs(sbase + off, cfg),
                            srcs=(20 + u,),
                            space=Space.STASH,
                            tag="stash_store",
                        )

                # Software-pipelined: fills for group g+1 are in flight while
                # group g computes.  Direct stash addressing needs no per-
                # access address arithmetic (higher request rate, the paper's
                # structural-stall increase) and keeps the core busy during
                # on-demand fills (the paper's utilization advantage over
                # the all-loads-then-barrier scratchpad idiom).
                groups = (iters + _UNROLL_STASH - 1) // _UNROLL_STASH
                yield from issue_loads(0)
                for g in range(groups):
                    if g + 1 < groups:
                        yield from issue_loads(g + 1)
                    yield from compute_group(g)

            return program

        return uniform_grid(
            self.name,
            self.num_tbs,
            self.warps_per_tb,
            factory,
            on_warp_finish=on_warp_finish,
            warps_per_sm_limit=self.warps_per_tb,
        )


def implicit_variants(**kwargs) -> dict[str, _ImplicitBase]:
    """The three configurations of Figure 6.3, keyed by display name."""
    return {
        "scratchpad": ImplicitScratchpad(**kwargs),
        "scratchpad+dma": ImplicitDma(**kwargs),
        "stash": ImplicitStash(**kwargs),
    }
