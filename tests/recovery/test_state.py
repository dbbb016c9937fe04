"""Bit-exact array/RNG serialization (the snapshot protocol's substrate)."""

import json

import numpy as np
import pytest

from repro.recovery.state import (
    decode_array,
    encode_array,
    make_rng,
    restore_rng,
    rng_state,
    to_json,
)


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.array([1.0, -2.5, 3e-300, np.inf]),
            np.array([], dtype=np.float64),
            np.arange(6, dtype=np.intp).reshape(2, 3),
            np.array([True, False, True]),
            np.float32([0.1, 0.2]),
        ],
    )
    def test_round_trip_bit_exact(self, arr):
        out = decode_array(encode_array(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()
        # And the same through the text a checkpoint stores.
        out = decode_array(json.loads(to_json(encode_array(arr))))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()

    def test_nan_payload_survives(self):
        arr = np.array([np.nan, 1.0])
        out = decode_array(encode_array(arr))
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_document_is_json_serializable(self):
        doc = encode_array(np.array([1.5, 2.5]))
        out = decode_array(json.loads(to_json(doc)))
        assert out.tolist() == [1.5, 2.5]

    def test_non_contiguous_input(self):
        arr = np.arange(10, dtype=np.float64)[::2]
        assert decode_array(encode_array(arr)).tolist() == arr.tolist()

    def test_decoded_array_is_writable(self):
        out = decode_array(encode_array(np.array([1.0, 2.0])))
        out[0] = 9.0  # Must not raise: restores assign in place.
        assert out[0] == 9.0

    def test_leaf_is_a_read_only_copy(self):
        arr = np.array([1.0, 2.0])
        leaf = encode_array(arr)
        arr[0] = 9.0
        assert leaf.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            leaf[0] = 9.0

    @pytest.mark.parametrize(
        "words, shape",
        [
            # NaN payloads, both zeros, a subnormal: nothing a float
            # comparison or a decimal round trip would tell apart.
            ([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], (3,)),
            ([0x0000000000000000, 0x8000000000000000, 1, 0x3FF0000000000000], (2, 2)),
            ([], (0,)),
        ],
    )
    def test_leaf_and_its_json_round_trip_decode_alike(self, words, shape):
        state = np.array(words, dtype=np.uint64).view(np.float64).reshape(shape)
        leaf = encode_array(state)
        direct = decode_array(leaf)
        via_disk = decode_array(json.loads(to_json(leaf)))
        for out in (direct, via_disk):
            assert out.dtype == np.float64 and out.shape == shape
            assert out.flags.writeable and not np.shares_memory(out, leaf)
            assert out.view(np.uint64).tolist() == np.reshape(
                np.array(words, dtype=np.uint64), shape
            ).tolist()

    def test_corrupt_byte_count_rejected(self):
        doc = json.loads(to_json(encode_array(np.array([1.0, 2.0, 3.0]))))
        doc["shape"] = [2]
        with pytest.raises(ValueError, match="byte"):
            decode_array(doc)


class TestRngCodec:
    def test_restored_stream_continues_identically(self):
        rng = np.random.default_rng(7)
        rng.standard_normal(13)
        state = rng_state(rng)
        a = rng.standard_normal(50)
        b = make_rng(json.loads(to_json(state))).standard_normal(50)
        assert a.tobytes() == b.tobytes()

    def test_restore_rng_in_place(self):
        rng = np.random.default_rng(3)
        state = rng_state(rng)
        drifted = np.random.default_rng(3)
        drifted.standard_normal(99)
        restore_rng(drifted, state)
        assert (
            drifted.standard_normal(10).tobytes()
            == np.random.default_rng(3).standard_normal(10).tobytes()
        )

    def test_restore_rng_requires_matching_bit_generator(self):
        state = rng_state(np.random.default_rng(0))
        other = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="stream"):
            restore_rng(other, state)

    def test_make_rng_builds_named_bit_generator(self):
        src = np.random.Generator(np.random.Philox(5))
        src.integers(0, 10, size=4)
        clone = make_rng(rng_state(src))
        assert type(clone.bit_generator) is np.random.Philox
        assert (
            clone.integers(0, 10, size=8).tobytes()
            == src.integers(0, 10, size=8).tobytes()
        )

    def test_made_generator_spawns_what_default_rng_0_spawns(self):
        # A restore binds with the generator make_rng built, and a
        # wrapper's _on_bind spawns from it: those children must be the
        # ones the bind's former default_rng(0) handed out.
        src = np.random.default_rng(11)
        src.standard_normal(5)
        made = make_rng(rng_state(src))
        for a, b in zip(made.spawn(2), np.random.default_rng(0).spawn(2)):
            assert a.bytes(32) == b.bytes(32)
        assert made.bytes(32) == src.bytes(32)

    def test_array_carrying_state_survives_the_disk(self):
        # Philox keeps its counter and key in uint64 arrays: leaves in
        # the document, dicts once it has been written and read back.
        src = np.random.Generator(np.random.Philox(5))
        src.integers(0, 10, size=4)
        clone = make_rng(json.loads(to_json(rng_state(src))))
        assert (
            clone.integers(0, 10, size=8).tobytes()
            == src.integers(0, 10, size=8).tobytes()
        )
