"""Wire protocol of the DPS server/client pair (paper §6.5).

The paper reports that "only 3 bytes are exchanged per request with each
node"; this module defines that 3-byte encoding so the overhead analysis is
grounded in a real serializer rather than a constant:

* 2 bits of message type (power reading / cap command),
* 10 bits of node-local unit index (a node has few sockets; the node is
  addressed at the transport layer),
* 12 bits of value in 0.1 W steps (0 - 409.5 W, comfortably above any TDP).

Values are round-tripped to within the 0.1 W quantum; out-of-range values
are rejected rather than silently wrapped.

A node's readings or caps travel as one batch, message ``i`` for unit
``i`` (:func:`encode_batch` / :func:`decode_batch`; :func:`encode` /
:func:`decode` are the per-message reference), between JSON HELLO, POLL
and QUIT documents.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MSG_READING",
    "MSG_CAP",
    "MESSAGE_SIZE_BYTES",
    "MAX_BATCH_UNITS",
    "POLL",
    "QUIT",
    "Message",
    "encode",
    "decode",
    "encode_batch",
    "decode_batch",
    "hello",
    "parse_hello",
    "quantize_w",
]

#: Message type tags.
MSG_READING = 0
MSG_CAP = 1

#: Exactly the 3 bytes/request of §6.5.
MESSAGE_SIZE_BYTES = 3

_MAX_UNIT = (1 << 10) - 1
_MAX_VALUE_W = ((1 << 12) - 1) / 10.0

#: Units one batch (one node) can address: the 10-bit unit index.
MAX_BATCH_UNITS = _MAX_UNIT + 1

#: Server → client control documents (compare against; never mutate).
POLL = {"type": "poll"}
QUIT = {"type": "quit"}


def quantize_w(value_w: float | np.ndarray) -> float | np.ndarray:
    """The wire value (W) a power value (or each of an array's) serializes
    to: 0.1 W steps, ties rounded half-up.

    Python's built-in ``round`` uses banker's rounding, so a value whose
    float product lands exactly on the 0.05 W boundary (e.g. 0.25 W ->
    2.5 decis) would round to the *even* neighbour — 0.25 W and 0.35 W
    would both decode as 0.2/0.4 W while 0.15 W decodes as 0.2 W.
    Explicit half-up keeps quantization monotone and direction-stable at
    every boundary; anything a peer decodes equals ``quantize_w`` of what
    was sent.
    """
    return np.floor(value_w * 10.0 + 0.5) / 10.0


class Message(NamedTuple):
    """A decoded protocol message.

    Attributes:
        kind: :data:`MSG_READING` or :data:`MSG_CAP`.
        unit: node-local unit index (0-1023).
        value_w: power value in watts, 0.1 W resolution.
    """

    kind: int
    unit: int
    value_w: float


def encode(kind: int, unit: int, value_w: float) -> bytes:
    """Pack one message into 3 bytes.

    Args:
        kind: message type tag.
        unit: node-local unit index.
        value_w: power value (W).

    Raises:
        ValueError: unknown kind, unit out of range, or value outside
            ``[0, 409.5]`` W.
    """
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"unknown message kind {kind}")
    if not 0 <= unit <= _MAX_UNIT:
        raise ValueError(f"unit must be in [0, {_MAX_UNIT}], got {unit}")
    if not 0.0 <= value_w <= _MAX_VALUE_W:
        raise ValueError(
            f"value_w must be in [0, {_MAX_VALUE_W}], got {value_w}"
        )
    # Half-up, not round(): banker's rounding would turn exact 0.05 W
    # boundaries into round-to-even (see quantize_w).
    quantized = math.floor(value_w * 10.0 + 0.5)
    word = (kind << 22) | (unit << 12) | quantized
    return word.to_bytes(MESSAGE_SIZE_BYTES, "big")


def decode(payload: bytes) -> Message:
    """Unpack 3 bytes into a :class:`Message`.

    Raises:
        ValueError: wrong payload length.
    """
    if len(payload) != MESSAGE_SIZE_BYTES:
        raise ValueError(
            f"expected {MESSAGE_SIZE_BYTES} bytes, got {len(payload)}"
        )
    word = int.from_bytes(payload, "big")
    kind = (word >> 22) & 0x3
    unit = (word >> 12) & 0x3FF
    value = (word & 0xFFF) / 10.0
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"corrupt message kind {kind}")
    return Message(kind=kind, unit=unit, value_w=value)


def encode_batch(kind: int, values_w: np.ndarray) -> bytes:
    """``b"".join(encode(kind, i, v) for i, v in enumerate(values_w))``,
    vectorised.

    Raises:
        ValueError: as :func:`encode`, or no units or more than
            :data:`MAX_BATCH_UNITS`.
    """
    if kind not in (MSG_READING, MSG_CAP):
        raise ValueError(f"unknown message kind {kind}")
    values = np.asarray(values_w, dtype=np.float64)
    n = values.size
    if not 1 <= n <= MAX_BATCH_UNITS:
        raise ValueError(f"a batch carries 1 to {MAX_BATCH_UNITS} units, got {n}")
    if not (values.min() >= 0.0 and values.max() <= _MAX_VALUE_W):  # NaN too.
        bad = values[~((values >= 0.0) & (values <= _MAX_VALUE_W))][0]
        raise ValueError(f"value_w must be in [0, {_MAX_VALUE_W}], got {bad}")
    # Half-up: the cast truncates, which is floor for these non-negatives.
    decis = (values * 10.0 + 0.5).astype(np.uint32)
    words = (np.arange(n, dtype=np.uint32) << 12) | decis | (kind << 22)
    # A big-endian u32 minus its (always zero) top byte is the 3-byte word.
    return words.astype(">u4").view(np.uint8).reshape(n, 4)[:, 1:].tobytes()


def decode_batch(words: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kinds, units, values_w)`` arrays of concatenated messages: entry
    ``i`` holds the fields of ``decode(words[3 * i : 3 * i + 3])``.

    Raises:
        ValueError: not a whole number of messages, or a corrupt kind.
    """
    n, partial = divmod(len(words), MESSAGE_SIZE_BYTES)
    if partial:
        raise ValueError(f"expected a multiple of 3 bytes, got {len(words)}")
    # Big-endian u32s 3 bytes apart behind one pad byte: entry i is the
    # last byte of message i-1 and then message i; the mask drops the first.
    word = np.ndarray((n,), ">u4", b"\x00" + words, 0, (3,)) & 0xFFFFFF
    kinds = word >> 22
    if n and kinds.max() > MSG_CAP:
        raise ValueError(f"corrupt message kind {kinds[kinds > MSG_CAP][0]}")
    return kinds, (word >> 12) & 0x3FF, (word & 0xFFF) / 10.0


def hello(node_id: int, n_units: int) -> dict:
    """The registration document a client sends once per connection."""
    return {"type": "hello", "node": node_id, "units": n_units}


def parse_hello(doc: dict) -> tuple[int, int]:
    """``(node_id, n_units)`` of a HELLO; ValueError unless the document is
    one with a node id >= 0 and 1 to :data:`MAX_BATCH_UNITS` units."""
    node_id, n_units = doc.get("node"), doc.get("units")
    if doc.get("type") != "hello" or not (
        type(node_id) is type(n_units) is int  # Not bool, not float.
        and node_id >= 0
        and 1 <= n_units <= MAX_BATCH_UNITS
    ):
        raise ValueError(f"expected a valid HELLO, got {doc!r}")
    return node_id, n_units
