"""Warp-level instruction model.

Warps progress through the pipeline together (Chapter 2), so the simulator
models *warp instructions*: one object describes what all 32 lanes of a warp
do in lockstep.  ``addrs`` carries the per-lane byte addresses of a memory
instruction; the LSU coalesces them into cache lines and detects bank
conflicts from them.

Synchronization is expressed with the ``acquire`` / ``release`` flags on
atomics (the workloads use atomic CAS/EXCH with acquire/release semantics,
matching the paper's data-race-free consistency model) and with thread-block
``BARRIER`` instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence


class Op(enum.Enum):
    ALU = "alu"            # pipelined integer/fp compute
    SFU = "sfu"            # long-latency special function unit
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"      # read-modify-write, serviced at the L2
    BARRIER = "barrier"    # thread-block barrier
    MAP = "map"            # scratchpad DMA transfer / stash map setup
    NOP = "nop"

    # Members are singletons; identity hashing is exact and C-speed (the
    # SM's issue-dispatch table is probed once per issued instruction,
    # and Enum's own __hash__ is a Python-level call).
    __hash__ = object.__hash__


class Space(enum.Enum):
    GLOBAL = "global"
    SCRATCH = "scratch"    # scratchpad (directly addressed, private)
    STASH = "stash"        # stash (coherent, mapped to global)

    __hash__ = object.__hash__


class MapMode(enum.Enum):
    DMA_TO_SCRATCH = "dma_to_scratch"
    DMA_TO_GLOBAL = "dma_to_global"
    STASH_MAP = "stash_map"

    __hash__ = object.__hash__


@dataclass(slots=True)
class Instruction:
    """A single warp instruction; build via the class-method constructors.

    Slotted: warp programs construct millions of these per run, and the
    slot layout skips the per-instance ``__dict__``."""

    op: Op
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    space: Space = Space.GLOBAL
    addrs: tuple[int, ...] = ()
    latency: int | None = None
    returns_value: bool = False
    value_addr: int | None = None
    acquire: bool = False
    release: bool = False
    atomic_fn: Callable[[int], tuple[int, int]] | None = None
    fetch_delay: int = 0
    map_mode: MapMode | None = None
    map_scratch_base: int = 0
    map_global_base: int = 0
    map_size: int = 0
    tag: str = ""
    #: payload of a STORE (``store_value()``); slots forbid the dynamic
    #: attribute the unslotted class used to attach.
    _store_value: int | None = None
    #: the LSU's memo of the address-static facts it re-reads every cycle
    #: the instruction waits (``Lsu.coalesced``, ``Lsu.stash_lines``):
    #: ``(key, ...)``, where the key names everything the facts depend on
    #: besides ``addrs``.  An instruction can outlive the System that first
    #: checked it, so a memo under another key is recomputed, never read.
    _coalesced: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _stash_lines: tuple | None = field(default=None, init=False, compare=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def alu(
        cls,
        dst: int | None = None,
        srcs: Sequence[int] = (),
        latency: int | None = None,
        fetch_delay: int = 0,
        tag: str = "",
    ) -> "Instruction":
        return cls(
            op=Op.ALU,
            dst=dst,
            srcs=tuple(srcs),
            latency=latency,
            fetch_delay=fetch_delay,
            tag=tag,
        )

    @classmethod
    def sfu(
        cls, dst: int | None = None, srcs: Sequence[int] = (), tag: str = ""
    ) -> "Instruction":
        return cls(op=Op.SFU, dst=dst, srcs=tuple(srcs), tag=tag)

    @classmethod
    def load(
        cls,
        addrs: Sequence[int],
        dst: int | None = None,
        srcs: Sequence[int] = (),
        space: Space = Space.GLOBAL,
        returns_value: bool = False,
        value_addr: int | None = None,
        tag: str = "",
    ) -> "Instruction":
        addrs = tuple(addrs)
        if not addrs:
            raise ValueError("load needs at least one address")
        return cls(
            op=Op.LOAD,
            dst=dst,
            srcs=tuple(srcs),
            space=space,
            addrs=addrs,
            returns_value=returns_value,
            value_addr=value_addr if value_addr is not None else addrs[0],
            tag=tag,
        )

    @classmethod
    def store(
        cls,
        addrs: Sequence[int],
        srcs: Sequence[int] = (),
        space: Space = Space.GLOBAL,
        value: int | None = None,
        tag: str = "",
    ) -> "Instruction":
        addrs = tuple(addrs)
        if not addrs:
            raise ValueError("store needs at least one address")
        return cls(
            op=Op.STORE,
            srcs=tuple(srcs),
            space=space,
            addrs=addrs,
            value_addr=addrs[0],
            tag=tag,
            _store_value=value,
        )

    # -- atomics ---------------------------------------------------------
    @classmethod
    def atomic_cas(
        cls,
        addr: int,
        expect: int,
        new: int,
        acquire: bool = False,
        release: bool = False,
        tag: str = "",
    ) -> "Instruction":
        def fn(old: int, _e: int = expect, _n: int = new) -> tuple[int, int]:
            return (_n if old == _e else old, old)

        return cls(
            op=Op.ATOMIC,
            addrs=(addr,),
            value_addr=addr,
            returns_value=True,
            acquire=acquire,
            release=release,
            atomic_fn=fn,
            tag=tag or "cas",
        )

    @classmethod
    def atomic_add(
        cls,
        addr: int,
        delta: int,
        acquire: bool = False,
        release: bool = False,
        returns_value: bool = True,
        tag: str = "",
    ) -> "Instruction":
        """Atomic add.  Pass ``returns_value=False`` for reduction-style
        updates that do not consume the old value: the warp then streams on
        without waiting for the round trip."""

        def fn(old: int, _d: int = delta) -> tuple[int, int]:
            return (old + _d, old)

        return cls(
            op=Op.ATOMIC,
            addrs=(addr,),
            value_addr=addr,
            returns_value=returns_value,
            acquire=acquire,
            release=release,
            atomic_fn=fn,
            tag=tag or "add",
        )

    @classmethod
    def atomic_exch(
        cls,
        addr: int,
        value: int,
        acquire: bool = False,
        release: bool = False,
        returns_value: bool | None = None,
        tag: str = "",
    ) -> "Instruction":
        """Atomic exchange.  A pure release (an unlock) does not need the
        old value, so by default it is fire-and-forget: the warp proceeds
        while the LSU holds younger memory operations until the flush and
        the release write complete (the pending-release window)."""

        def fn(old: int, _v: int = value) -> tuple[int, int]:
            return (_v, old)

        if returns_value is None:
            returns_value = not release
        return cls(
            op=Op.ATOMIC,
            addrs=(addr,),
            value_addr=addr,
            returns_value=returns_value,
            acquire=acquire,
            release=release,
            atomic_fn=fn,
            tag=tag or "exch",
        )

    # -- control / local memory ------------------------------------------
    @classmethod
    def barrier(cls, tag: str = "") -> "Instruction":
        return cls(op=Op.BARRIER, tag=tag or "bar")

    @classmethod
    def dma_to_scratch(
        cls, scratch_base: int, global_base: int, size: int, tag: str = ""
    ) -> "Instruction":
        return cls(
            op=Op.MAP,
            map_mode=MapMode.DMA_TO_SCRATCH,
            map_scratch_base=scratch_base,
            map_global_base=global_base,
            map_size=size,
            tag=tag or "dma_in",
        )

    @classmethod
    def dma_to_global(
        cls, scratch_base: int, global_base: int, size: int, tag: str = ""
    ) -> "Instruction":
        return cls(
            op=Op.MAP,
            map_mode=MapMode.DMA_TO_GLOBAL,
            map_scratch_base=scratch_base,
            map_global_base=global_base,
            map_size=size,
            tag=tag or "dma_out",
        )

    @classmethod
    def stash_map(
        cls, scratch_base: int, global_base: int, size: int, tag: str = ""
    ) -> "Instruction":
        return cls(
            op=Op.MAP,
            map_mode=MapMode.STASH_MAP,
            map_scratch_base=scratch_base,
            map_global_base=global_base,
            map_size=size,
            tag=tag or "stash_map",
        )

    @classmethod
    def nop(cls, fetch_delay: int = 0, tag: str = "") -> "Instruction":
        return cls(op=Op.NOP, fetch_delay=fetch_delay, tag=tag)

    # ------------------------------------------------------------------
    @property
    def is_memory(self) -> bool:
        return self.op in (Op.LOAD, Op.STORE, Op.ATOMIC)

    @property
    def is_sync(self) -> bool:
        return self.op is Op.BARRIER or self.acquire or self.release

    def store_value(self) -> int | None:
        return self._store_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = " %s" % self.tag if self.tag else ""
        return "<%s%s>" % (self.op.value, extra)
