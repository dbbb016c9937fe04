"""Length-prefixed JSON/binary/words framing: the one wire."""

import json
import math
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.protocol import MSG_CAP, MSG_READING, encode, quantize_w
from repro.comm.wire import (
    BINARY_TAG,
    MAX_FRAME_BYTES,
    WORDS_TAG,
    ArrayCache,
    FrameAssembler,
    FrameError,
    encode_frame,
    encode_words,
    recv_frame,
)


class TestFrameCodec:
    def test_oversized_body_rejected_at_encode(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestFrameAssembler:
    def test_byte_by_byte_reassembly(self):
        frame = encode_frame({"type": "heartbeat", "digest": "d" * 64})
        assembler = FrameAssembler()
        docs = []
        for i in range(len(frame)):
            docs.extend(assembler.feed(frame[i : i + 1]))
        assert docs == [{"type": "heartbeat", "digest": "d" * 64}]
        assert assembler.pending_bytes == 0

    def test_multiple_frames_in_one_fragment(self):
        blob = encode_frame({"n": 1}) + encode_frame({"n": 2}) + encode_frame(
            {"n": 3}
        )
        assert FrameAssembler().feed(blob) == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_partial_frame_is_buffered(self):
        frame = encode_frame({"k": "v"})
        assembler = FrameAssembler()
        assert assembler.feed(frame[:-1]) == []
        assert assembler.pending_bytes == len(frame) - 1
        assert assembler.feed(frame[-1:]) == [{"k": "v"}]

    def test_frames_straddling_fragments(self):
        blob = encode_frame({"n": 1}) + encode_frame({"n": 2})
        assembler = FrameAssembler()
        cut = len(encode_frame({"n": 1})) + 2
        docs = assembler.feed(blob[:cut])
        docs.extend(assembler.feed(blob[cut:]))
        assert docs == [{"n": 1}, {"n": 2}]

    def test_oversized_length_prefix_rejected(self):
        assembler = FrameAssembler()
        with pytest.raises(FrameError, match="exceeds"):
            assembler.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))

    def test_non_object_body_rejected(self):
        body = b"[1, 2, 3]"
        with pytest.raises(FrameError, match="JSON object"):
            FrameAssembler().feed(len(body).to_bytes(4, "big") + body)

    def test_non_json_body_rejected(self):
        body = b"\xff\xfe not json"
        with pytest.raises(FrameError, match="not valid JSON"):
            FrameAssembler().feed(len(body).to_bytes(4, "big") + body)

    def test_reset_discards_torn_binary_frame_across_reconnect(self):
        """The reconnect reset applies to binary frames identically."""
        torn = encode_frame({"type": "cycle", "demand": np.arange(64.0)})
        assembler = FrameAssembler()
        assert assembler.feed(torn[: len(torn) // 2]) == []
        assembler.reset()
        docs = assembler.feed(encode_frame({"type": "hello", "shard": "s0"}))
        assert docs == [{"type": "hello", "shard": "s0"}]

    def test_reset_discards_torn_frame_across_reconnect(self):
        """A frame torn by a dead connection must not prefix the next.

        Without the reset, the first frame of the new session would be
        parsed as the tail of the torn one — a silent corruption a
        reconnecting :class:`~repro.comm.shardlink.TcpShardLink` cannot
        detect.
        """
        torn = encode_frame({"type": "summary", "seq": 7})
        assembler = FrameAssembler()
        assert assembler.feed(torn[: len(torn) // 2]) == []
        assert assembler.pending_bytes > 0
        assembler.reset()
        assert assembler.pending_bytes == 0
        fresh = encode_frame({"type": "hello", "role": "arbiter"})
        assert assembler.feed(fresh) == [
            {"type": "hello", "role": "arbiter"}
        ]


class TestWordsFrames:
    """A node's 3-byte protocol messages as one frame."""

    def test_round_trip(self):
        words = encode(MSG_READING, 0, 1.5) + encode(MSG_READING, 1, 2.5)
        frame = encode_words(words)
        # 4-byte length + 1-byte tag: the whole framing of a batch.
        assert len(frame) == len(words) + 5
        assert frame[4] == WORDS_TAG
        assert FrameAssembler().feed(frame) == [{"words": words}]

    def test_interleaves_with_json_frames(self):
        words = encode(MSG_CAP, 0, 100.0)
        blob = encode_frame({"type": "poll"}) + encode_words(words)
        assert FrameAssembler().feed(blob) == [{"type": "poll"}, {"words": words}]

    def test_rejects_partial_message(self):
        with pytest.raises(FrameError, match="words frame of 7 bytes"):
            FrameAssembler().feed(encode_words(b"toolong"))

    def test_rejects_empty_batch(self):
        with pytest.raises(FrameError, match="words frame of 0 bytes"):
            FrameAssembler().feed(encode_words(b""))


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(2.0)
    b.settimeout(2.0)
    yield a, b
    a.close()
    b.close()


class TestRecvFrame:
    """The blocking read of one frame over a real socket."""

    def test_reads_one_frame_and_leaves_the_next_queued(self, pair):
        a, b = pair
        a.sendall(encode_frame({"n": 1}) + encode_words(b"abc"))
        frames = FrameAssembler()
        assert recv_frame(b, frames) == {"n": 1}
        assert frames.pending_bytes == 0
        assert recv_frame(b, frames) == {"words": b"abc"}

    def test_eof_mid_frame_raises(self, pair):
        a, b = pair
        a.sendall(encode_frame({"n": 1})[:6])
        a.close()
        with pytest.raises(ConnectionError, match="outstanding"):
            recv_frame(b, FrameAssembler())

    def test_eof_between_frames_raises(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionError, match="4 bytes outstanding"):
            recv_frame(b, FrameAssembler())


def _round_trip(doc, quantized=()):
    docs = FrameAssembler().feed(encode_frame(doc, quantized=quantized))
    assert len(docs) == 1
    return docs[0]


class TestBinaryFrames:
    """The binary array frame type riding the same length-prefixed stream."""

    def test_arrays_come_back_as_ndarrays_scalars_untouched(self):
        doc = {
            "type": "cycle",
            "step": 41,
            "demand": np.linspace(0.0, 250.0, 17),
        }
        out = _round_trip(doc)
        assert out["type"] == "cycle" and out["step"] == 41
        assert isinstance(out["demand"], np.ndarray)
        assert out["demand"].dtype == np.float64
        np.testing.assert_array_equal(out["demand"], doc["demand"])

    def test_json_frames_are_byte_identical_to_plain_json(self):
        """No-array documents must keep the exact pre-binary wire bytes."""
        doc = {"type": "hello", "role": "clock", "shard": "s3"}
        body = encode_frame(doc)[4:]
        assert body == json.dumps(doc, separators=(",", ":")).encode("utf-8")
        assert body[:1] != bytes([BINARY_TAG])

    def test_nan_and_signed_zero_pass_through_f64(self):
        demand = np.array([math.nan, -0.0, 0.0, math.inf, -math.inf, 180.25])
        out = _round_trip({"type": "cycle_ack", "power": demand})["power"]
        # Bit-level equality: NaN payloads and zero signs both survive.
        assert out.tobytes() == demand.tobytes()

    def test_quantized_key_packs_u16_when_on_lattice(self):
        caps = np.array([0.0, 0.1, 180.3, 409.5])
        frame = encode_frame({"type": "grant", "caps": caps}, quantized=("caps",))
        header_len = int.from_bytes(frame[5:9], "big")
        header = json.loads(frame[9 : 9 + header_len])
        assert header["arrays"] == [["caps", "w2", 4]]
        out = _round_trip({"type": "grant", "caps": caps}, quantized=("caps",))
        np.testing.assert_array_equal(out["caps"], caps)

    @pytest.mark.parametrize(
        "caps",
        [
            np.array([0.123]),  # off the 0.1 W lattice
            np.array([409.6]),  # above the 12-bit cap ceiling
            np.array([-1.0]),  # negative
            np.array([math.nan]),  # non-finite
        ],
        ids=["off-lattice", "over-ceiling", "negative", "nan"],
    )
    def test_quantized_key_falls_back_to_f64_rather_than_move_values(self, caps):
        frame = encode_frame({"caps": caps}, quantized=("caps",))
        header_len = int.from_bytes(frame[5:9], "big")
        header = json.loads(frame[9 : 9 + header_len])
        assert header["arrays"] == [["caps", "f8", 1]]
        out = _round_trip({"caps": caps}, quantized=("caps",))
        assert out["caps"].tobytes() == caps.tobytes()

    def test_empty_array_round_trips(self):
        out = _round_trip({"power": np.array([], dtype=np.float64)})
        assert isinstance(out["power"], np.ndarray)
        assert out["power"].size == 0

    def test_2d_array_rejected(self):
        with pytest.raises(FrameError, match="1-D"):
            encode_frame({"m": np.zeros((2, 2))})

    def test_truncated_binary_body_rejected(self):
        frame = encode_frame({"demand": np.arange(8.0)})
        body = frame[4:-8]  # drop one f64 from the payload
        blob = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError, match="overruns"):
            FrameAssembler().feed(blob)

    def test_trailing_garbage_rejected(self):
        body = encode_frame({"demand": np.arange(8.0)})[4:] + b"\x00" * 4
        blob = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError, match="trailing"):
            FrameAssembler().feed(blob)

    def test_unknown_array_code_rejected(self):
        header = json.dumps(
            {"doc": {}, "arrays": [["x", "q9", 0]]}, separators=(",", ":")
        ).encode()
        body = bytes([BINARY_TAG]) + len(header).to_bytes(4, "big") + header
        blob = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError, match="unknown binary array code"):
            FrameAssembler().feed(blob)


# Finite f64s plus the awkward citizens: NaN, signed zeros, infinities,
# subnormals — everything a power/demand vector could legally carry.
_f64s = st.floats(width=64, allow_nan=True, allow_infinity=True)
_vectors = st.lists(_f64s, max_size=64).map(
    lambda xs: np.array(xs, dtype=np.float64)
)
# Deci-watt lattice points within the 12-bit cap range [0, 409.5] W.
_lattice_caps = st.lists(
    st.integers(min_value=0, max_value=4095), max_size=64
).map(lambda decis: np.array(decis, dtype=np.float64) / 10.0)
_cap_floats = st.lists(
    st.floats(min_value=0.0, max_value=409.5, allow_nan=False), max_size=64
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestBinaryRoundTripProperties:
    @given(power=_vectors, demand=_vectors)
    @settings(max_examples=100, deadline=None)
    def test_f64_arrays_bit_exact(self, power, demand):
        doc = {"type": "cycle_ack", "step": 0, "power": power, "demand": demand}
        out = _round_trip(doc)
        assert out["power"].tobytes() == power.tobytes()
        assert out["demand"].tobytes() == demand.tobytes()

    @given(caps=_lattice_caps)
    @settings(max_examples=100, deadline=None)
    def test_u16_caps_bit_exact_on_lattice(self, caps):
        out = _round_trip({"caps": caps}, quantized=("caps",))["caps"]
        assert out.tobytes() == caps.tobytes()

    @given(caps=_cap_floats)
    @settings(max_examples=100, deadline=None)
    def test_quantized_decode_matches_protocol_quantize_w(self, caps):
        """Whatever the codec does, the decoded value is either the input
        itself (f8 fallback) or ``quantize_w`` of it (u16) — never a third
        value off both lattices."""
        out = _round_trip({"caps": caps}, quantized=("caps",))["caps"]
        for sent, got in zip(caps, out):
            assert got == sent or got == quantize_w(sent)

    @given(
        docs=st.lists(
            st.one_of(
                st.fixed_dictionaries(
                    {"type": st.just("hello"), "shard": st.text(max_size=8)}
                ),
                st.fixed_dictionaries(
                    {"type": st.just("cycle"), "demand": _vectors}
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_assembler_survives_torn_interleaved_frames(self, docs, data):
        """Binary and JSON frames interleaved, delivered in arbitrary
        fragmentation, reassemble to exactly the sent sequence."""
        blob = b"".join(encode_frame(d) for d in docs)
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(blob)), max_size=12
                )
            )
        )
        assembler = FrameAssembler()
        out = []
        start = 0
        for cut in cuts + [len(blob)]:
            out.extend(assembler.feed(blob[start:cut]))
            start = cut
        assert assembler.pending_bytes == 0
        assert len(out) == len(docs)
        for sent, got in zip(docs, out):
            assert sent.keys() == got.keys()
            for key, value in sent.items():
                if isinstance(value, np.ndarray):
                    assert got[key].tobytes() == value.tobytes()
                else:
                    assert got[key] == value


def _header_codes(frame):
    header_len = int.from_bytes(frame[5:9], "big")
    header = json.loads(frame[9 : 9 + header_len])
    return [(key, code) for key, code, _ in header["arrays"]]


class TestFillAndRepeatCodes:
    """Uniform arrays collapse to fills; unchanged arrays to repeats."""

    def test_uniform_f64_ships_as_fill(self):
        power = np.full(4096, 3.86615468)
        frame = encode_frame({"type": "cycle_ack", "power": power})
        assert _header_codes(frame) == [("power", "F8")]
        assert len(frame) < 100
        out = FrameAssembler().feed(frame)[0]["power"]
        assert out.tobytes() == power.tobytes()

    def test_uniform_nan_fill_is_bit_exact(self):
        down = np.full(16, np.nan)
        out = _round_trip({"power": down})["power"]
        assert out.tobytes() == down.tobytes()

    def test_uniform_lattice_caps_ship_as_w16_fill(self):
        caps = np.full(4096, 164.9)
        frame = encode_frame({"caps": caps}, quantized=("caps",))
        assert _header_codes(frame) == [("caps", "W2")]
        out = _round_trip({"caps": caps}, quantized=("caps",))
        np.testing.assert_array_equal(out["caps"], caps)

    def test_single_element_array_is_not_filled(self):
        frame = encode_frame({"power": np.array([1.5])})
        assert _header_codes(frame) == [("power", "f8")]

    def test_repeat_elides_unchanged_arrays_per_connection(self):
        send = ArrayCache()
        asm = FrameAssembler(cache=ArrayCache())
        demand = np.random.default_rng(3).uniform(0.0, 1.0, 512)
        first = encode_frame({"type": "cycle", "demand": demand}, cache=send)
        again = encode_frame({"type": "cycle", "demand": demand}, cache=send)
        assert _header_codes(first) == [("demand", "f8")]
        assert _header_codes(again) == [("demand", "==")]
        assert len(again) < 100 < len(first)
        out1 = asm.feed(first)[0]["demand"]
        out2 = asm.feed(again)[0]["demand"]
        assert out1.tobytes() == demand.tobytes()
        assert out2.tobytes() == demand.tobytes()

    def test_changed_array_ships_full_then_repeats_the_new_value(self):
        send = ArrayCache()
        a = np.random.default_rng(4).uniform(0.0, 1.0, 64)
        b = a + 1.0
        encode_frame({"demand": a}, cache=send)
        changed = encode_frame({"demand": b}, cache=send)
        repeated = encode_frame({"demand": b}, cache=send)
        assert _header_codes(changed) == [("demand", "f8")]
        assert _header_codes(repeated) == [("demand", "==")]

    def test_repeat_without_receive_cache_rejected(self):
        send = ArrayCache()
        demand = np.random.default_rng(5).uniform(0.0, 1.0, 32)
        encode_frame({"demand": demand}, cache=send)
        again = encode_frame({"demand": demand}, cache=send)
        with pytest.raises(FrameError, match="nothing cached"):
            FrameAssembler().feed(again)

    def test_reset_drops_the_repeat_memo_with_the_stream(self):
        """A reconnect must never satisfy repeats from the old stream."""
        send = ArrayCache()
        asm = FrameAssembler(cache=ArrayCache())
        demand = np.random.default_rng(6).uniform(0.0, 1.0, 32)
        asm.feed(encode_frame({"demand": demand}, cache=send))
        again = encode_frame({"demand": demand}, cache=send)
        asm.reset()
        with pytest.raises(FrameError, match="nothing cached"):
            asm.feed(again)

    @given(
        vectors=st.lists(
            st.one_of(
                st.lists(_f64s, min_size=1, max_size=16).map(
                    lambda xs: np.array(xs, dtype=np.float64)
                ),
                st.floats(width=64, allow_nan=True, allow_infinity=True).map(
                    lambda x: np.full(9, x)
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        repeats=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_stream_always_bit_exact(self, vectors, repeats):
        """Any send sequence through one cached pair round-trips exactly.

        Arrays are drawn from full-entropy and uniform shapes, and each
        one is optionally sent twice in a row (exercising the repeat
        path) — every decode must reproduce the sender's bytes.
        """
        send = ArrayCache()
        asm = FrameAssembler(cache=ArrayCache())
        for value, twice in zip(vectors, repeats):
            sends = 2 if twice else 1
            for _ in range(sends):
                frame = encode_frame(
                    {"type": "cycle", "demand": value}, cache=send
                )
                out = asm.feed(frame)[0]["demand"]
                assert out.tobytes() == value.tobytes()
