"""On-chip interconnect: XY-routed mesh and message vocabulary."""

from repro.noc.mesh import Mesh
from repro.noc.message import REQUEST_TYPES, Message, MsgType

__all__ = ["Mesh", "Message", "MsgType", "REQUEST_TYPES"]
