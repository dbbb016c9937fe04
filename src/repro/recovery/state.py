"""Exact state serialization for the crash-recovery subsystem.

DPS's advantage over the stateless baselines is precisely the state a
crash destroys — Kalman estimates, power histories, priority flags, and
the RNG streams that make reruns reproducible.  Restoring that state must
be *bit-exact*: a restored controller has to produce the same cap vectors
an uninterrupted one would, or the recovery guarantee degrades into "we
restarted something".

Every stateful component implements the two-method protocol below:

* ``snapshot() -> dict`` — a document of the complete mutable state: a
  tree of dicts, lists and JSON scalars whose array leaves are
  :func:`encode_array` images (read-only copies, never views of live
  storage), and whose NumPy ``Generator`` streams are their
  bit-generator state dicts;
* ``restore(state) -> None`` — overwrite the component's state with a
  snapshot's content (shapes validated, everything else trusted — the
  checkpoint store authenticates documents by checksum before they get
  here).  ``state`` may be a document as ``snapshot()`` returned it, as
  :func:`unpack` read it from a checkpoint, or as it came back from
  text.  A component whose storage outlives the restore copies each
  leaf into it once, from :func:`read_leaf`; one that takes a new array
  gets it from :func:`decode_array`.  Either way no restore keeps a
  leaf: a snapshot's leaves are read-only, an unpacked checkpoint's are
  views over its buffer.

A document stays binary until it is written, and in a checkpoint or a
journal record after that: :func:`pack` lays the leaves' bytes behind a
JSON skeleton.  :func:`to_json` is the one place a tree becomes text —
every text writer calls it, as does the printer of those files — and
there an array leaf turns into base64 of its raw little-endian bytes
plus explicit dtype/shape (JSON's float round-trip is exact for finite
doubles but silently widens dtypes and loses array shapes).  Nothing
that only compares or restores documents in memory, such as the
per-cycle snapshot-idempotence check, pays for the text or for a byte
image of a leaf.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Snapshottable",
    "encode_array",
    "decode_array",
    "read_leaf",
    "to_json",
    "CONTAINER_MAGIC",
    "pack",
    "unpack",
    "unpack_from",
    "rng_state",
    "rng_state_doc",
    "restore_rng",
    "make_rng",
]


@runtime_checkable
class Snapshottable(Protocol):
    """The state protocol every recoverable component implements."""

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None: ...


def encode_array(arr: np.ndarray) -> np.ndarray:
    """An array leaf of a snapshot document: a read-only, little-endian,
    C-contiguous copy of ``arr`` (at least 1-d).

    The copy is what makes a document a snapshot: the state it was taken
    from may move on, the leaf may not.  :func:`to_json` writes a leaf's
    byte image, which round-trips every value bit-exactly (floats, bools,
    ints alike), unlike ``tolist()`` which widens and re-parses.
    """
    a = np.asarray(arr)
    leaf = np.array(a, dtype=a.dtype.newbyteorder("<"), order="C", ndmin=1)
    leaf.flags.writeable = False
    return leaf


def _le(leaf: object) -> np.ndarray:
    """An array leaf as both writers emit it: little-endian, C-ordered."""
    if not isinstance(leaf, np.ndarray):
        raise TypeError(
            f"{type(leaf).__name__} is not part of a snapshot document"
        )
    return np.asarray(leaf, dtype=leaf.dtype.newbyteorder("<"), order="C")


def _leaf_doc(leaf: object) -> dict:
    """The JSON form of an array leaf (``json.dumps``'s ``default``)."""
    le = _le(leaf)
    return {
        "dtype": le.dtype.str,
        "shape": list(le.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def to_json(doc: object, sort_keys: bool = True) -> str:
    """The JSON text of a snapshot document — the one place state
    becomes text; array leaves are written as base64 byte images."""
    return json.dumps(doc, sort_keys=sort_keys, default=_leaf_doc)


#: First line of a binary checkpoint container; the digit is its version.
CONTAINER_MAGIC = b"repro-checkpoint 2\n"
#: SHA-256 of skeleton + blob, skeleton length, blob length.
_HEADER = struct.Struct("<32sQQ")


def pack(doc: object) -> bytes:
    """The binary container of a snapshot document: magic line, header,
    the JSON skeleton — each array leaf replaced by ``{"__blob__": [offset,
    nbytes], "dtype", "shape"}`` — then the blob, the leaves' raw
    little-endian bytes back to back.  No leaf becomes text."""
    blobs: list[np.ndarray] = []
    end = 0

    def ref(leaf: object) -> dict:
        nonlocal end
        le = _le(leaf)
        span = [end, le.nbytes]
        blobs.append(le)
        end += le.nbytes
        return {"__blob__": span, "dtype": le.dtype.str, "shape": list(le.shape)}

    skeleton = json.dumps(doc, sort_keys=True, default=ref).encode("ascii")
    digest = hashlib.sha256(skeleton)
    for le in blobs:
        digest.update(le)
    head = _HEADER.pack(digest.digest(), len(skeleton), end)
    return b"".join([CONTAINER_MAGIC, head, skeleton, *blobs])


def unpack(data: bytes) -> Any:
    """The document :func:`pack` wrote, its leaves read-only arrays over
    ``data`` (:func:`decode_array` copies them out).  Raises ``ValueError``
    when the magic, the length, the checksum or a blob reference is wrong."""
    start = len(CONTAINER_MAGIC) + _HEADER.size
    if not data.startswith(CONTAINER_MAGIC) or len(data) < start:
        raise ValueError("not a version-2 checkpoint container")
    digest, n_skeleton, n_blob = _HEADER.unpack_from(data, len(CONTAINER_MAGIC))
    body = memoryview(data)[start:]
    if len(body) != n_skeleton + n_blob:
        raise ValueError("container length disagrees with its header")
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("container checksum mismatch")

    def leaf(obj: dict) -> Any:
        if obj.keys() != {"__blob__", "dtype", "shape"}:
            return obj
        (at, nbytes), dtype = obj["__blob__"], np.dtype(obj["dtype"])
        count = math.prod(obj["shape"])
        if not 0 <= at <= at + nbytes <= n_blob or count * dtype.itemsize != nbytes:
            raise ValueError(f"blob reference {obj} does not fit the blob")
        flat = np.frombuffer(body, dtype, count, n_skeleton + at)
        return flat.reshape(obj["shape"])

    return json.loads(bytes(body[:n_skeleton]), object_hook=leaf)


def unpack_from(data: bytes, at: int = 0) -> tuple[Any, int]:
    """The document of the container that starts at ``at`` in ``data``,
    and the offset just past it.  Bytes after the container are not its
    own: a checkpoint slot's padding, or a journal's next record.  Raises
    ``ValueError`` as :func:`unpack` does."""
    start = at + len(CONTAINER_MAGIC)
    if data[at:start] != CONTAINER_MAGIC or len(data) < start + _HEADER.size:
        raise ValueError("not a version-2 checkpoint container")
    _, n_skeleton, n_blob = _HEADER.unpack_from(data, start)
    end = start + _HEADER.size + n_skeleton + n_blob
    if end > len(data):
        raise ValueError("container length disagrees with its header")
    return unpack(data[at:end]), end


def decode_array(doc: np.ndarray | dict) -> np.ndarray:
    """A fresh writable native-order array from an array leaf, given as
    :func:`encode_array` made it or as :func:`to_json` wrote it.

    Raises:
        ValueError: byte payload inconsistent with dtype/shape.
    """
    if isinstance(doc, np.ndarray):
        return doc.astype(doc.dtype.newbyteorder("="))
    dtype = np.dtype(doc["dtype"])
    shape = tuple(int(s) for s in doc["shape"])
    raw = base64.b64decode(doc["data"].encode("ascii"))
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"array payload holds {len(raw)} bytes, dtype/shape imply "
            f"{expected}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    # A mutable native-order copy (frombuffer views are read-only).
    return arr.astype(dtype.newbyteorder("="), copy=True)


def read_leaf(doc: np.ndarray | dict) -> np.ndarray:
    """An array leaf's values, to be copied into a component's own
    storage and never kept: the leaf itself when it is in memory, its
    :func:`decode_array` when it came back as text.

    Raises:
        ValueError: a text leaf's payload is inconsistent with its
            dtype/shape.
    """
    return doc if isinstance(doc, np.ndarray) else decode_array(doc)


def rng_state_doc(state: Any) -> Any:
    """The snapshot document of a raw ``bit_generator.state``: NumPy
    scalars become Python ones and arrays tagged leaves (PCG64 states are
    ints; Philox/SFC64 carry uint64 arrays)."""
    if isinstance(state, dict):
        return {k: rng_state_doc(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": encode_array(state)}
    if isinstance(state, np.generic):
        return state.item()
    return state


def _unjsonify(obj: Any) -> Any:
    if isinstance(obj, dict):
        if "__ndarray__" in obj and len(obj) == 1:
            return decode_array(obj["__ndarray__"])
        return {k: _unjsonify(v) for k, v in obj.items()}
    return obj


def rng_state(rng: np.random.Generator) -> dict:
    """Capture a ``Generator``'s stream position as a snapshot document."""
    return rng_state_doc(rng.bit_generator.state)


def make_rng(state: dict) -> np.random.Generator:
    """Build a fresh ``Generator`` positioned at a captured state.

    The state carries the stream, not the seed sequence behind it, so the
    generator is seeded from its own ``SeedSequence(0)``: it spawns the
    children ``default_rng(0)`` would, and building it reads no OS
    entropy.

    Raises:
        ValueError: unknown bit-generator name in the state document.
    """
    name = state.get("bit_generator", "PCG64")
    try:
        bitgen_cls = getattr(np.random, str(name))
    except AttributeError:
        raise ValueError(f"unknown bit generator {name!r}") from None
    bitgen = bitgen_cls(np.random.SeedSequence(0))
    bitgen.state = _unjsonify(state)
    return np.random.Generator(bitgen)


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Reposition an existing ``Generator`` at a captured state.

    The generator's bit-generator type must match the snapshot's.

    Raises:
        ValueError: bit-generator type mismatch.
    """
    name = state.get("bit_generator")
    actual = type(rng.bit_generator).__name__
    if name != actual:
        raise ValueError(
            f"snapshot holds a {name} stream but the generator is {actual}"
        )
    rng.bit_generator.state = _unjsonify(state)
