"""Length-prefixed framing: the one wire of every stream in the repo.

The *shard* plane moves control documents and per-cycle demand and power
vectors between a fleet parent, the budget arbiter and the shard-server
subprocesses (:mod:`repro.shard.process`, :mod:`repro.comm.shardlink`);
the deploy plane moves §6.5's 3-byte messages (:mod:`repro.comm.protocol`).
This module frames both over a TCP stream:

``[4-byte big-endian length][body]``

Three body encodings share the stream, distinguished by the body's first
byte (the *frame tag*):

* **JSON** (tag ``{`` — any byte but the two tags below): the
  UTF-8 JSON object encoding every control document uses (HELLO, leases,
  summaries).  Byte-for-byte identical to the format
  before binary frames existed, so mixed-version peers interoperate on
  control traffic.
* **Binary** (tag :data:`BINARY_TAG`): a JSON *header* followed by raw
  little-endian array payloads, for documents whose weight is numpy
  vectors (per-unit demand, power, caps).  Array bytes go on the wire
  via ``tobytes()`` and come back via ``frombuffer`` — no per-element
  Python objects, no decimal text round-trip.  float64 arrays are
  bit-exact (NaN and signed zero pass through); arrays nominated as
  *quantized* are packed as u16 deci-watts exactly when
  :func:`repro.comm.protocol.quantize_w` round-trips them unchanged
  (the deploy plane's cap vectors always do), and fall back to raw
  float64 otherwise so the codec never silently moves a value.
* **Words** (tag :data:`WORDS_TAG`): one deploy node's batch of 3-byte
  messages and nothing else, decoded as ``{"words": <bytes>}``.

Two further array codes shrink the common shapes of bulk traffic, both
still bit-exact:

* **fill** — an array whose elements share one bit pattern (a uniform
  fleet's power row, an all-equal cap vector) ships as that single
  element plus its count.
* **repeat** — with an :class:`ArrayCache` attached to both ends of a
  connection, an array bitwise identical to the last one sent under the
  same key ships as a zero-payload marker (steady-state demand and cap
  vectors between arbiter periods).  The cache is strictly
  per-connection: senders start a fresh cache per (re)connect and
  :meth:`FrameAssembler.reset` drops the receive side, so a marker can
  never resolve against another stream's state.

A reader either gets a whole verified document or a hard error — no
partial trust of a stream after a malformed frame.  Every stream is read
by a :class:`FrameAssembler` — fed by selector-driven event loops, or by
the blocking :func:`recv_frame` — which dispatches on the frame tag per
frame, so the three body encodings interleave freely on one stream.
"""

from __future__ import annotations

import json
import socket

import numpy as np

from repro.comm.protocol import MESSAGE_SIZE_BYTES

__all__ = [
    "BINARY_TAG",
    "MAX_FRAME_BYTES",
    "WORDS_TAG",
    "ArrayCache",
    "FrameAssembler",
    "FrameError",
    "encode_frame",
    "encode_words",
    "recv_frame",
]

#: Upper bound on one frame's body.  A result payload is a few KiB (two
#: run-time tuples plus scalars) and a 100k-unit f64 vector is 800 KiB;
#: anything near this limit is a protocol violation, not a big job.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN_BYTES = 4

#: First body byte of a binary frame.  JSON objects start with ``{``
#: (0x7B), so 0x01 can never open a valid JSON body.
BINARY_TAG = 0x01

#: First body byte of a words frame.
WORDS_TAG = 0x02

_BINARY_HEADER_LEN_BYTES = 4

#: Array payload codes in a binary header: raw little-endian float64,
#: u16 deci-watts (the cap lattice of :mod:`repro.comm.protocol`), the
#: fill variants of both (one element, replicated ``n`` times), and the
#: zero-payload repeat marker backed by :class:`ArrayCache`.
_CODE_F64 = "f8"
_CODE_W16 = "w2"
_CODE_F64_FILL = "F8"
_CODE_W16_FILL = "W2"
_CODE_REPEAT = "=="
_ITEM_BYTES = {_CODE_F64: 8, _CODE_W16: 2}
_FILL_BYTES = {_CODE_F64_FILL: 8, _CODE_W16_FILL: 2}

#: u16 deci-watt ceiling — one lattice with the 12-bit cap protocol
#: (409.5 W), though u16 itself could carry more.
_MAX_W16_DECIS = (1 << 12) - 1


class FrameError(ValueError):
    """A malformed frame — the stream cannot be trusted afterwards."""


class ArrayCache:
    """Per-connection memo behind the binary repeat code.

    One instance lives at each end of one TCP stream: the sender
    remembers the raw float64 image of the last array shipped under each
    document key, the receiver the last array decoded for it.  When the
    next send under a key is bitwise identical, the wire carries a
    zero-payload ``==`` entry and the receiver replays its cached array
    — exact by construction, since equality is checked on the bytes.

    The memo is meaningless across connections.  Endpoints must start a
    fresh cache (or :meth:`clear` this one) whenever the underlying
    socket is replaced; :class:`FrameAssembler` does so automatically in
    :meth:`FrameAssembler.reset`.
    """

    def __init__(self) -> None:
        self.sent: dict[str, bytes] = {}
        self.seen: dict[str, np.ndarray] = {}

    def clear(self) -> None:
        self.sent.clear()
        self.seen.clear()


def _quantizable(array: np.ndarray) -> np.ndarray | None:
    """The u16 deci-watt image of ``array``, or None when lossy.

    Quantization must be *exact*: ``decis / 10.0`` has to reproduce the
    input bit for bit (matching :func:`repro.comm.protocol.quantize_w`'s
    half-up lattice), otherwise the caller's array is shipped raw.
    """
    if array.dtype != np.float64 or not np.isfinite(array).all():
        return None
    if array.size and (array.min() < 0.0 or array.max() > _MAX_W16_DECIS / 10.0):
        return None
    decis = np.floor(array * 10.0 + 0.5)
    if not np.array_equal(decis / 10.0, array):
        return None
    return decis.astype("<u2")


def _uniform(ints: np.ndarray) -> bool:
    """True when every element shares one bit pattern (NaN included)."""
    return ints.size > 1 and bool((ints == ints[0]).all())


def _encode_array(
    key: str,
    value: np.ndarray,
    quantized: tuple[str, ...],
    cache: ArrayCache | None,
) -> tuple[str, bytes, int]:
    """Pick the cheapest exact code for one array: repeat/fill/w2/f8."""
    as_f64 = np.ascontiguousarray(value, dtype="<f8")
    raw = as_f64.tobytes()
    if cache is not None:
        if cache.sent.get(key) == raw:
            return _CODE_REPEAT, b"", value.size
        cache.sent[key] = raw
    if key in quantized:
        decis = _quantizable(value)
        if decis is not None:
            if _uniform(decis):
                return _CODE_W16_FILL, decis[:1].tobytes(), value.size
            return _CODE_W16, decis.tobytes(), value.size
    if _uniform(as_f64.view("<u8")):
        return _CODE_F64_FILL, raw[:8], value.size
    return _CODE_F64, raw, value.size


def _encode_binary_body(
    doc: dict, quantized: tuple[str, ...], cache: ArrayCache | None
) -> bytes:
    """Serialize a document whose array values ride as raw bytes."""
    scalars: dict = {}
    arrays: list[tuple[str, str, bytes, int]] = []
    for key, value in doc.items():
        if not isinstance(value, np.ndarray):
            scalars[key] = value
            continue
        if value.ndim != 1:
            raise FrameError(
                f"binary frame arrays must be 1-D, {key!r} has shape "
                f"{value.shape}"
            )
        code, payload, n = _encode_array(key, value, quantized, cache)
        arrays.append((key, code, payload, n))
    header = json.dumps(
        {
            "doc": scalars,
            "arrays": [[key, code, n] for key, code, _, n in arrays],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [
        bytes([BINARY_TAG]),
        len(header).to_bytes(_BINARY_HEADER_LEN_BYTES, "big"),
        header,
    ]
    parts.extend(payload for _, _, payload, _ in arrays)
    return b"".join(parts)


def _decode_array_entry(
    key: str,
    code: str,
    n: int,
    body: bytes,
    offset: int,
    cache: ArrayCache | None,
) -> tuple[np.ndarray, int]:
    """Decode one header entry; returns the array and its payload size."""
    if code == _CODE_REPEAT:
        cached = None if cache is None else cache.seen.get(key)
        if cached is None:
            raise FrameError(
                f"repeat of array {key!r} with nothing cached on this "
                f"stream"
            )
        if cached.size != n:
            raise FrameError(
                f"repeat of array {key!r} declares {n} items, cache "
                f"holds {cached.size}"
            )
        return cached, 0
    fill = _FILL_BYTES.get(code)
    if fill is not None:
        if offset + fill > len(body):
            raise FrameError(f"binary array {key!r} overruns the frame body")
        if n < 0:
            raise FrameError(f"binary array {key!r} declares {n} items")
        array = np.empty(n, dtype="<f8")
        if code == _CODE_W16_FILL:
            deci = np.frombuffer(body, dtype="<u2", count=1, offset=offset)
            array[:] = np.float64(deci[0]) / 10.0
        else:
            ints = np.frombuffer(body, dtype="<u8", count=1, offset=offset)
            array.view("<u8")[:] = ints[0]
        array.setflags(write=False)
        return array, fill
    item = _ITEM_BYTES.get(code)
    if item is None:
        raise FrameError(f"unknown binary array code {code!r}")
    if n < 0 or offset + n * item > len(body):
        raise FrameError(f"binary array {key!r} overruns the frame body")
    if code == _CODE_W16:
        decis = np.frombuffer(body, dtype="<u2", count=n, offset=offset)
        return decis.astype(np.float64) / 10.0, n * item
    return np.frombuffer(body, dtype="<f8", count=n, offset=offset), n * item


def _decode_binary_body(body: bytes, cache: ArrayCache | None) -> dict:
    """Rebuild a binary frame's document; arrays come back as ndarrays."""
    prefix = 1 + _BINARY_HEADER_LEN_BYTES
    if len(body) < prefix:
        raise FrameError("binary frame truncated before its header length")
    header_len = int.from_bytes(body[1:prefix], "big")
    if len(body) < prefix + header_len:
        raise FrameError(
            f"binary frame header declares {header_len} bytes, "
            f"{len(body) - prefix} present"
        )
    try:
        header = json.loads(body[prefix : prefix + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"binary frame header is not valid JSON: {exc}") from None
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("doc"), dict)
        or not isinstance(header.get("arrays"), list)
    ):
        raise FrameError("binary frame header must hold 'doc' and 'arrays'")
    doc = dict(header["doc"])
    offset = prefix + header_len
    for entry in header["arrays"]:
        try:
            key, code, n = entry
            n = int(n)
        except (TypeError, ValueError):
            raise FrameError(f"malformed binary array entry {entry!r}") from None
        array, consumed = _decode_array_entry(
            key, code, n, body, offset, cache
        )
        doc[key] = array
        if cache is not None:
            cache.seen[key] = array
        offset += consumed
    if offset != len(body):
        raise FrameError(
            f"binary frame carries {len(body) - offset} trailing bytes"
        )
    return doc


def encode_frame(
    doc: dict,
    quantized: tuple[str, ...] = (),
    cache: ArrayCache | None = None,
) -> bytes:
    """Serialize one document to its on-wire frame.

    A document whose values are all JSON scalars/containers encodes as a
    JSON frame, byte-identical to the pre-binary wire format.  Any
    :class:`numpy.ndarray` value switches the document to a binary
    frame; keys named in ``quantized`` pack as u16 deci-watts when the
    :func:`~repro.comm.protocol.quantize_w` lattice holds them exactly.
    Bitwise-uniform arrays collapse to one element (fill codes), and
    with a per-connection ``cache`` an array identical to the last one
    sent under its key collapses to a zero-payload repeat marker — the
    receiving end must then decode through the matching cache of a
    :class:`FrameAssembler`.

    Raises:
        FrameError: the encoded body exceeds :data:`MAX_FRAME_BYTES`, or
            an array value is not 1-D.
    """
    if any(isinstance(v, np.ndarray) for v in doc.values()):
        body = _encode_binary_body(doc, quantized, cache)
    else:
        body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return len(body).to_bytes(_LEN_BYTES, "big") + body


def encode_words(words: bytes) -> bytes:
    """Frame one batch of concatenated 3-byte protocol messages."""
    return (1 + len(words)).to_bytes(_LEN_BYTES, "big") + bytes([WORDS_TAG]) + words


def _decode_body(body: bytes, cache: ArrayCache | None = None) -> dict:
    if body[:1] == bytes([BINARY_TAG]):
        return _decode_binary_body(body, cache)
    if body[:1] == bytes([WORDS_TAG]):
        if len(body) == 1 or (len(body) - 1) % MESSAGE_SIZE_BYTES:
            raise FrameError(f"words frame of {len(body) - 1} bytes")
        return {"words": body[1:]}
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(doc).__name__}"
        )
    return doc


class FrameAssembler:
    """Incremental reassembly of framed documents from stream fragments.

    A selector-driven loop reads whatever bytes a socket has ready and
    feeds them in; the assembler yields every document completed so far
    without ever blocking.  A frame stream is long-lived: the assembler
    keeps consuming frames back to back for the life of its connection,
    dispatching each on its frame tag.
    """

    def __init__(self, cache: ArrayCache | None = None) -> None:
        self._buffer = bytearray()
        self.cache = cache

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)

    @property
    def missing_bytes(self) -> int:
        """Bytes the next frame still lacks (its length prefix first)."""
        if len(self._buffer) < _LEN_BYTES:
            return _LEN_BYTES - len(self._buffer)
        length = int.from_bytes(self._buffer[:_LEN_BYTES], "big")
        return _LEN_BYTES + length - len(self._buffer)

    def reset(self) -> None:
        """Discard any partially assembled frame and the repeat memo.

        Call on reconnect: a frame torn by a dead connection must not
        prefix (and thereby corrupt) the first frame of the next
        session, which arrives on a fresh stream with no relation to the
        old one's framing — and a repeat marker on the new stream must
        never resolve against an array the old stream delivered.
        """
        self._buffer.clear()
        if self.cache is not None:
            self.cache.clear()

    def feed(self, data: bytes) -> list[dict]:
        """Consume one fragment; returns all documents it completed.

        Raises:
            FrameError: oversized length prefix or malformed body — the
                stream cannot be trusted afterwards.
        """
        self._buffer.extend(data)
        docs: list[dict] = []
        while True:
            if len(self._buffer) < _LEN_BYTES:
                return docs
            length = int.from_bytes(self._buffer[:_LEN_BYTES], "big")
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"declared frame length {length} exceeds "
                    f"{MAX_FRAME_BYTES}"
                )
            end = _LEN_BYTES + length
            if len(self._buffer) < end:
                return docs
            body = bytes(self._buffer[_LEN_BYTES:end])
            del self._buffer[:end]
            docs.append(_decode_body(body, self.cache))


def recv_frame(sock: socket.socket, assembler: FrameAssembler) -> dict:
    """Block for the next frame on ``sock`` (each read under the socket's
    timeout), reading only its bytes: a frame behind it stays queued.

    Raises:
        ConnectionError: the peer closed the stream.
        FrameError: a malformed frame.
    """
    while True:
        chunk = sock.recv(assembler.missing_bytes)
        if not chunk:
            raise ConnectionError(
                f"peer closed with {assembler.missing_bytes} bytes outstanding"
            )
        docs = assembler.feed(chunk)
        if docs:
            return docs[0]
