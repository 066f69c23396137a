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
from dataclasses import dataclass
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
    # request set below is probed once per sent message).
    __hash__ = object.__hash__


#: the message types the directory services; the mesh delivers these to
#: its directory lane and every other type to the destination core.
REQUEST_TYPES = frozenset(
    {MsgType.GETS, MsgType.PUT_WT, MsgType.GETO, MsgType.ATOMIC, MsgType.WB_OWNED}
)


@dataclass(slots=True)
class Message:
    """A single network message.

    ``on_response`` is carried by requests so the servicing node can reply
    without a global table; ``service_loc`` is filled in by whoever supplies
    the data and drives memory-data stall sub-classification.

    ``slots=True``: messages are the most-allocated objects in the
    simulator (two per memory request); skipping the per-instance
    ``__dict__`` measurably trims both execution and replay time.  Cold
    paths construct them positionally (cheaper than keywords); the hot
    round trips take them from :meth:`Mesh.alloc_message`'s pool.
    """

    mtype: MsgType
    src: int
    dst: int
    line: int
    req_id: int                       # unique per mesh (Mesh.next_request_id)
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
