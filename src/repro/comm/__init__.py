"""Simulated server/client control plane and its 3-byte wire protocol."""

from repro.comm.net import bind_listener
from repro.comm.network import LinkStats, NetworkModel
from repro.comm.protocol import (
    MESSAGE_SIZE_BYTES,
    MSG_CAP,
    MSG_READING,
    Message,
    decode,
    encode,
)
from repro.comm.service import CycleReport, PowerClient, PowerServer
from repro.comm.shardlink import TcpShardLink
from repro.comm.wire import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    FrameError,
    encode_frame,
)

__all__ = [
    "CycleReport",
    "FrameAssembler",
    "FrameError",
    "LinkStats",
    "MAX_FRAME_BYTES",
    "MESSAGE_SIZE_BYTES",
    "MSG_CAP",
    "MSG_READING",
    "Message",
    "NetworkModel",
    "PowerClient",
    "PowerServer",
    "TcpShardLink",
    "bind_listener",
    "decode",
    "encode",
    "encode_frame",
]
