"""Messages exchanged over the on-chip network.

The protocol vocabulary covers both coherence protocols of the paper:

* GPU coherence needs ``GETS`` (read), ``PUT_WT`` (write-through data) and
  ``ATOMIC`` (read-modify-write at the L2).
* DeNovo adds ``GETO`` (ownership registration), ``WB_OWNED`` (eviction of
  an owned line) and the L2-to-owner forwards ``FWD_GETS`` / ``FWD_GETO``.
* The DMA engine and the stash reuse ``GETS``/``PUT_WT`` with the
  ``bypass_l1`` flag set, because their fills skip the L1 (Section 6.2.1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.stall_types import ServiceLocation


class MsgType(enum.Enum):
    GETS = "gets"                # load request
    PUT_WT = "put_wt"            # write-through store data
    GETO = "geto"                # DeNovo ownership (registration) request
    WB_OWNED = "wb_owned"        # writeback of an owned line on eviction
    ATOMIC = "atomic"            # read-modify-write serviced at the L2
    FWD_GETS = "fwd_gets"        # L2 forwards a load to the current owner
    FWD_GETO = "fwd_geto"        # L2 transfers ownership away from owner
    DATA = "data"                # data response
    ACK = "ack"                  # write-through / writeback / own ack

    # Members are singletons; identity hashing is exact and C-speed (the
    # L2-request dispatch set is probed once per delivered message).
    __hash__ = object.__hash__


_request_ids = itertools.count()


def next_request_id() -> int:
    return next(_request_ids)


@dataclass(slots=True)
class Message:
    """A single network message.

    ``on_response`` is carried by requests so the servicing node can reply
    without a global table; ``service_loc`` is filled in by whoever supplies
    the data and drives memory-data stall sub-classification.

    ``slots=True``: messages are the most-allocated objects in the
    simulator (two per memory request); skipping the per-instance
    ``__dict__`` measurably trims both execution and replay time.
    """

    mtype: MsgType
    src: int
    dst: int
    line: int
    req_id: int = field(default_factory=next_request_id)
    requester: int | None = None      # original requester (for forwards)
    value: int | None = None          # atomic result / payload
    service_loc: ServiceLocation | None = None
    atomic_fn: Callable[[int], tuple[int, int]] | None = None
    word_addr: int | None = None      # word address for atomics
    bypass_l1: bool = False           # DMA / stash fills skip the L1
    meta: Any = None                  # opaque per-subsystem payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Message(%s, %d->%d, line=%#x, req=%d)" % (
            self.mtype.value,
            self.src,
            self.dst,
            self.line,
            self.req_id,
        )


#: freelist for the hottest request/response round trips.  Only the two
#: consumers that provably retire their message push here (the L2 atomic
#: RMW after it sends the response, the L1 data handler after the last
#: waiter ran); the two matching producers (the L1 atomic request, the L2
#: atomic response) pop.  Steady-state atomics then allocate no Message
#: objects at all.
_msg_pool: list[Message] = []

#: The L1 also retires load-fill DATA responses, which the L2 builds
#: outside the pool, so pushes outnumber pops and an uncapped freelist
#: grows by that surplus on every run in the process.  The cap is well
#: above the messages a Table 5.1 machine keeps in flight.
MSG_POOL_CAP = 1024


def recycle_message(msg: Message) -> None:
    """Return a retired message to the pool (dropped once it is full).

    The caller must guarantee no live reference remains: the message is
    not stored in any table, bucket, or closure.  Fields are overwritten
    (not cleared) on reuse."""
    if len(_msg_pool) < MSG_POOL_CAP:
        _msg_pool.append(msg)


def alloc_message(
    mtype: MsgType,
    src: int,
    dst: int,
    line: int,
    req_id: int,
    requester: "int | None",
    value: "int | None",
    service_loc,
    atomic_fn,
    word_addr: "int | None",
    bypass_l1: bool = False,
    meta=None,
) -> Message:
    """Pool-aware :class:`Message` factory (hot positional field order)."""
    pool = _msg_pool
    if pool:
        m = pool.pop()
        m.mtype = mtype
        m.src = src
        m.dst = dst
        m.line = line
        m.req_id = req_id
        m.requester = requester
        m.value = value
        m.service_loc = service_loc
        m.atomic_fn = atomic_fn
        m.word_addr = word_addr
        m.bypass_l1 = bypass_l1
        m.meta = meta
        return m
    return Message(
        mtype,
        src,
        dst,
        line,
        req_id,
        requester,
        value,
        service_loc,
        atomic_fn,
        word_addr,
        bypass_l1,
        meta,
    )
