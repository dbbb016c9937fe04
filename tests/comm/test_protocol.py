"""3-byte wire protocol (paper §6.5)."""

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.protocol import (
    MAX_BATCH_UNITS,
    MESSAGE_SIZE_BYTES,
    MSG_CAP,
    MSG_READING,
    POLL,
    QUIT,
    decode,
    decode_batch,
    encode,
    encode_batch,
    hello,
    parse_hello,
    quantize_w,
)
from repro.comm.wire import FrameAssembler, encode_frame, encode_words, recv_frame


class TestEncoding:
    def test_exactly_three_bytes(self):
        assert len(encode(MSG_READING, 0, 0.0)) == MESSAGE_SIZE_BYTES
        assert len(encode(MSG_CAP, 1023, 409.5)) == MESSAGE_SIZE_BYTES

    def test_round_trip(self):
        msg = decode(encode(MSG_READING, 7, 123.4))
        assert msg.kind == MSG_READING
        assert msg.unit == 7
        assert msg.value_w == pytest.approx(123.4)

    def test_quantized_to_tenth_watt(self):
        msg = decode(encode(MSG_CAP, 0, 110.04))
        assert msg.value_w == pytest.approx(110.0)
        msg = decode(encode(MSG_CAP, 0, 110.06))
        assert msg.value_w == pytest.approx(110.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            encode(3, 0, 1.0)

    def test_rejects_unit_out_of_range(self):
        with pytest.raises(ValueError, match="unit"):
            encode(MSG_READING, 1024, 1.0)
        with pytest.raises(ValueError, match="unit"):
            encode(MSG_READING, -1, 1.0)

    def test_rejects_value_out_of_range(self):
        with pytest.raises(ValueError, match="value_w"):
            encode(MSG_READING, 0, 410.0)
        with pytest.raises(ValueError, match="value_w"):
            encode(MSG_READING, 0, -0.1)


class TestHalfUpBoundaries:
    """Ties at the 0.05 W midpoint round *up*, never to-even.

    Built-in ``round`` would send 0.25 W and 0.35 W to the same wire
    value (0.2 and 0.4 — round-to-even) while 0.15 W goes up; explicit
    half-up keeps every boundary direction-stable.
    """

    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0.05, 0.1),
            (0.15, 0.2),
            (0.25, 0.3),  # round() would give 0.2.
            (0.35, 0.4),
            (0.45, 0.5),  # round() would give 0.4.
            (102.25, 102.3),
            (409.45, 409.5),
        ],
    )
    def test_midpoints_round_up(self, value, expected):
        msg = decode(encode(MSG_CAP, 0, value))
        assert msg.value_w == pytest.approx(expected)
        assert quantize_w(value) == pytest.approx(expected)

    def test_quantize_matches_wire(self):
        for decis in range(0, 4096):
            value = decis / 10.0 + 0.05
            if value > 409.5:
                break
            assert decode(encode(MSG_CAP, 0, value)).value_w == pytest.approx(
                quantize_w(value)
            )

    @given(st.floats(0.0, 409.4))
    @settings(max_examples=200, deadline=None)
    def test_quantization_is_monotone(self, value):
        lo = decode(encode(MSG_READING, 0, value)).value_w
        hi = decode(encode(MSG_READING, 0, value + 0.1)).value_w
        assert hi >= lo


class TestDecoding:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="3 bytes"):
            decode(b"\x00\x00")

    def test_rejects_corrupt_kind(self):
        # Set the top kind bits to 3 (invalid).
        with pytest.raises(ValueError, match="corrupt"):
            decode(b"\xc0\x00\x00")


class TestProperties:
    @given(
        st.sampled_from([MSG_READING, MSG_CAP]),
        st.integers(0, 1023),
        st.integers(0, 4095),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact_on_grid(self, kind, unit, decis):
        value = decis / 10.0
        msg = decode(encode(kind, unit, value))
        assert msg == (kind, unit, pytest.approx(value))

    @given(st.floats(0.0, 409.5))
    @settings(max_examples=100, deadline=None)
    def test_quantization_error_bounded(self, value):
        msg = decode(encode(MSG_READING, 0, value))
        assert abs(msg.value_w - value) <= 0.05 + 1e-9


def _per_message(kind, values):
    return b"".join(encode(kind, i, v) for i, v in enumerate(values))


# Deci-watt lattice points, exact 0.05 W midpoints and arbitrary floats
# across the whole [0, 409.5] W range.
_batch_values = st.lists(
    st.one_of(
        st.integers(0, 4095).map(lambda d: d / 10.0),
        st.integers(0, 4094).map(lambda d: d / 10.0 + 0.05),
        st.floats(0.0, 409.5),
    ),
    min_size=1,
    max_size=MAX_BATCH_UNITS,
)


class TestBatch:
    """One node's messages packed and unpacked in one call."""

    @given(st.sampled_from([MSG_READING, MSG_CAP]), _batch_values)
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_per_message_codec(self, kind, values):
        words = encode_batch(kind, np.array(values))
        assert words == _per_message(kind, values)
        kinds, units, got = decode_batch(words)
        for i in range(len(values)):
            msg = decode(words[3 * i : 3 * i + 3])
            assert (kinds[i], units[i], got[i]) == (msg.kind, msg.unit, msg.value_w)

    def test_6400_caps_in_node_batches_round_trip(self):
        """6,400 caps in <= 255-unit node batches, framed and reassembled:
        exactly 3 payload bytes per unit, each cap within 0.05 W."""
        caps = np.random.default_rng(0).uniform(30.0, 165.0, 6400)
        batches = [caps[lo : lo + 255] for lo in range(0, caps.size, 255)]
        frames = b"".join(encode_words(encode_batch(MSG_CAP, b)) for b in batches)
        docs = FrameAssembler().feed(frames)
        assert sum(len(doc["words"]) for doc in docs) == 3 * caps.size
        decoded = [decode_batch(doc["words"]) for doc in docs]
        for (kinds, units, values), sent in zip(decoded, batches):
            assert (kinds == MSG_CAP).all()
            np.testing.assert_array_equal(units, np.arange(sent.size))
            assert np.abs(values - sent).max() <= 0.05 + 1e-9

    def test_rejects_empty_and_oversized_batches(self):
        with pytest.raises(ValueError, match="units"):
            encode_batch(MSG_CAP, np.array([]))
        with pytest.raises(ValueError, match="units"):
            encode_batch(MSG_CAP, np.zeros(MAX_BATCH_UNITS + 1))

    @pytest.mark.parametrize("bad", [-0.1, 410.0, float("nan")])
    def test_rejects_values_out_of_range(self, bad):
        with pytest.raises(ValueError, match="value_w"):
            encode_batch(MSG_READING, np.array([1.0, bad]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            encode_batch(3, np.array([1.0]))

    def test_decode_rejects_partial_message_and_corrupt_kind(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            decode_batch(b"\x00" * 4)
        with pytest.raises(ValueError, match="corrupt"):
            decode_batch(encode(MSG_CAP, 0, 1.0) + b"\xc0\x00\x00")


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(2.0)
    b.settimeout(2.0)
    yield a, b
    a.close()
    b.close()


class TestSession:
    """HELLO / POLL / QUIT: the control documents around the batches."""

    def test_hello_round_trip(self, pair):
        a, b = pair
        a.sendall(encode_frame(hello(7, 2)))
        assert parse_hello(recv_frame(b, FrameAssembler())) == (7, 2)

    @pytest.mark.parametrize("node_id", [-1, True, "7", None])
    def test_parse_hello_rejects_bad_node_id(self, node_id):
        with pytest.raises(ValueError, match="HELLO"):
            parse_hello({"type": "hello", "node": node_id, "units": 2})

    @pytest.mark.parametrize("n_units", [0, MAX_BATCH_UNITS + 1, 2.0, None])
    def test_parse_hello_rejects_unit_count_out_of_range(self, n_units):
        with pytest.raises(ValueError, match="HELLO"):
            parse_hello({"type": "hello", "node": 1, "units": n_units})

    def test_parse_hello_rejects_other_documents(self):
        with pytest.raises(ValueError, match="HELLO"):
            parse_hello(POLL)
        with pytest.raises(ValueError, match="HELLO"):
            parse_hello({"words": encode(MSG_READING, 0, 1.0)})

    def test_poll_and_quit_frames_arrive_in_order(self, pair):
        a, b = pair
        a.sendall(encode_frame(POLL) + encode_frame(QUIT))
        frames = FrameAssembler()
        assert recv_frame(b, frames) == POLL
        assert recv_frame(b, frames) == QUIT
