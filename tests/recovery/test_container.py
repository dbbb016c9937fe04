"""The binary checkpoint container: round trip, rejection, mixed formats."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.state import (
    _HEADER,
    CONTAINER_MAGIC,
    decode_array,
    encode_array,
    make_rng,
    pack,
    rng_state,
    unpack,
    unpack_from,
)
from repro.safety.invariants import _same_json

FIXTURES = Path(__file__).parent / "fixtures"

# Leaves as snapshots hold them (``encode_array`` images) and as a caller
# might hand them over raw: big-endian, 2-d, empty.
arrays = st.one_of(
    hnp.arrays(
        st.sampled_from(["<f8", ">f8", "<i8", ">i4", "?", "<u8", "<f4"]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    ),
    st.integers(0, 2**32).map(
        lambda seed: rng_state(np.random.Generator(np.random.Philox(seed)))
    ),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
documents = st.recursive(
    st.one_of(scalars, arrays, arrays.map(lambda a: [a, a])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text("abcxyz_", max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(doc=documents)
    @settings(max_examples=200, deadline=None)
    def test_unpack_of_pack_is_the_document(self, doc):
        assert _same_json(unpack(pack(doc)), doc)

    def test_leaves_come_back_as_arrays_decode_array_copies(self):
        doc = {
            "caps": encode_array(np.linspace(30.0, 165.0, 7)),
            "flags": encode_array(np.array([True, False, True])),
            "pipeline": [encode_array(np.arange(3.0)), encode_array(np.ones(3))],
            "empty": encode_array(np.zeros((0, 4))),
        }
        back = unpack(pack(doc))
        assert not back["caps"].flags.writeable
        caps = decode_array(back["caps"])
        caps[0] = 0.0  # A copy: the container's bytes stay as they are.
        assert back["caps"][0] == 30.0
        assert back["flags"].dtype == np.bool_
        assert back["empty"].shape == (0, 4)
        assert [leaf.tolist() for leaf in back["pipeline"]] == [
            [0.0, 1.0, 2.0],
            [1.0, 1.0, 1.0],
        ]

    def test_philox_stream_continues_through_the_container(self):
        rng = np.random.Generator(np.random.Philox(7))
        rng.random(5)
        revived = make_rng(unpack(pack({"rng": rng_state(rng)}))["rng"])
        assert revived.random(4).tobytes() == rng.random(4).tobytes()

    def test_leaf_bytes_are_written_raw_never_as_text(self):
        leaf = encode_array(np.arange(512, dtype=np.float64))
        packed = pack({"x": leaf})
        assert leaf.tobytes() in packed
        assert len(packed) <= leaf.nbytes + 256

    def test_not_a_snapshot_document_rejected(self):
        with pytest.raises(TypeError, match="snapshot document"):
            pack({"x": {1, 2}})


def small_store(tmp_path):
    """Two generations, the newest a few hundred bytes of every part:
    magic, digest, lengths, skeleton, blob."""
    store = CheckpointStore(tmp_path)
    store.save(10, {"caps": encode_array(np.array([100.0, 110.0]))})
    newest = store.save(
        20,
        {
            "caps": encode_array(np.array([90.0, 120.0])),
            "high": encode_array(np.array([True, False])),
        },
    )
    return store, newest


def assert_falls_back(store, newest):
    ckpt = store.load_latest()
    assert ckpt is not None and ckpt.cycle == 10
    assert store.last_rejected == [newest]


class TestRejection:
    def test_a_flip_of_any_single_byte_falls_back(self, tmp_path):
        store, newest = small_store(tmp_path)
        raw = newest.read_bytes()
        end = unpack_from(raw)[1]  # The slot's zero padding follows.
        assert end < 512
        for at in range(end):
            for bit in (0x01, 0x80):
                flipped = bytearray(raw)
                flipped[at] ^= bit
                newest.write_bytes(bytes(flipped))
                assert_falls_back(store, newest)
        newest.write_bytes(raw)
        assert store.load_latest().cycle == 20

    def test_a_cut_at_every_length_falls_back(self, tmp_path):
        store, newest = small_store(tmp_path)
        raw = newest.read_bytes()
        for length in range(unpack_from(raw)[1]):
            newest.write_bytes(raw[:length])
            assert_falls_back(store, newest)
        # Bytes after the container are not its own: what a slot keeps
        # of a longer generation it held before.
        newest.write_bytes(raw + b"\0" + raw)
        assert store.load_latest().cycle == 20

    @pytest.mark.parametrize(
        "reference",
        [
            {"__blob__": [8, 16], "dtype": "<f8", "shape": [2]},  # Past the end.
            {"__blob__": [-8, 16], "dtype": "<f8", "shape": [2]},
            {"__blob__": [0, 16], "dtype": "<f8", "shape": [3]},
            {"__blob__": [0, 16], "dtype": "<f4", "shape": [2]},
            {"__blob__": [0, -16], "dtype": "<f8", "shape": [-2]},
        ],
    )
    def test_bad_blob_reference_under_a_valid_checksum_falls_back(
        self, tmp_path, reference
    ):
        store, newest = small_store(tmp_path)
        blob = np.array([90.0, 120.0]).tobytes()

        def forge(ref):
            skeleton = json.dumps(
                {"cycle": 20, "payload": {"caps": ref}}, sort_keys=True
            ).encode("ascii")
            digest = hashlib.sha256(skeleton + blob).digest()
            head = _HEADER.pack(digest, len(skeleton), len(blob))
            return CONTAINER_MAGIC + head + skeleton + blob

        # The forgery itself is sound: a good reference loads.
        newest.write_bytes(
            forge({"__blob__": [0, 16], "dtype": "<f8", "shape": [2]})
        )
        assert store.load_latest().payload["caps"].tolist() == [90.0, 120.0]
        newest.write_bytes(forge(reference))
        assert_falls_back(store, newest)


class TestMixedDirectory:
    """What an upgrade finds: version-1 text files under new containers."""

    def payload(self):
        return {"manager": {"caps": encode_array(np.array([1.0, 2.0]))}}

    def test_newest_first_across_formats_and_fallback_to_v1(self, tmp_path):
        shutil.copy(FIXTURES / "ckpt-00000008.json", tmp_path)
        store = CheckpointStore(tmp_path)
        newest = store.save(12, self.payload())
        assert [p.name for p in store.paths()] == [
            "ckpt-00000008.json",
            "ckpt-slot-0.bin",
        ]
        assert store.load_latest().cycle == 12

        raw = newest.read_bytes()
        newest.write_bytes(raw[: unpack_from(raw)[1] - 1])
        ckpt = store.load_latest()
        assert (ckpt.cycle, ckpt.path.name) == (8, "ckpt-00000008.json")
        assert store.last_rejected == [newest]

    def test_the_format_is_read_from_the_bytes_not_the_suffix(self, tmp_path):
        shutil.copy(FIXTURES / "ckpt-00000008.json", tmp_path / "ckpt-00000008.bin")
        shutil.copy(FIXTURES / "ckpt-00000008.bin", tmp_path / "ckpt-00000009.json")
        store = CheckpointStore(tmp_path)
        assert store.load_latest().cycle == 8
        assert store.last_rejected == []

    def test_both_formats_are_pruned_as_one_series(self, tmp_path):
        # Read as one series; an older store's files are never written,
        # so never removed either — the slots outnumber them at once.
        legacy = FIXTURES / "ckpt-00000008.json"
        shutil.copy(legacy, tmp_path)
        store = CheckpointStore(tmp_path, keep=1)
        for cycle in (12, 16, 20):
            store.save(cycle, self.payload())
        assert [p.name for p in store.paths()] == [
            "ckpt-00000008.json",
            "ckpt-slot-0.bin",
            "ckpt-slot-1.bin",
        ]
        assert (tmp_path / legacy.name).read_bytes() == legacy.read_bytes()
        assert store.load_latest().cycle == 20


class TestPrinter:
    def run(self, path):
        return subprocess.run(
            [sys.executable, "-m", "repro.recovery.checkpoint", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_prints_either_generation_as_the_same_json_text(self):
        v1 = self.run(FIXTURES / "ckpt-00000008.json")
        v2 = self.run(FIXTURES / "ckpt-00000008.bin")
        assert v1.returncode == v2.returncode == 0
        assert "cycle 8, checksum ok" in v1.stderr
        assert "cycle 8, checksum ok" in v2.stderr
        assert v1.stdout == v2.stdout
        doc = json.loads(v2.stdout)
        assert doc["cycle"] == 8
        assert doc["payload"]["manager"]["caps"]["dtype"] == "<f8"

    def test_prints_a_journal_record_per_line_and_reads_a_slot(self, tmp_path):
        from repro.recovery.checkpoint import CycleJournal

        journal = CycleJournal(tmp_path / "journal.log")
        for cycle in (1, 2, 3):
            journal.append(cycle, {"power": encode_array(np.full(2, cycle / 4))})
        # A new segment: records 1-3 stay in the file, behind 4-5.
        journal.truncate()
        journal.append(4, {"power": encode_array(np.zeros(2))})
        journal.append(5, {"power": encode_array(np.ones(2))})
        journal.close()
        proc = self.run(journal.path)
        assert proc.returncode == 0
        assert "journal segment 2, 2 valid records" in proc.stderr
        docs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [d["cycle"] for d in docs] == [4, 5]
        assert docs[1]["data"]["power"]["dtype"] == "<f8"

        # The text journal of an older directory prints its lines' bodies.
        text = self.run(FIXTURES / "journal.log")
        lines = (FIXTURES / "journal.log").read_text(encoding="utf-8").splitlines()
        assert text.stdout.splitlines() == [ln.partition(" ")[2] for ln in lines]

        slot = CheckpointStore(tmp_path).save(8, {"caps": encode_array(np.ones(2))})
        proc = self.run(slot)
        assert proc.returncode == 0 and "cycle 8, checksum ok" in proc.stderr
        assert json.loads(proc.stdout)["payload"]["caps"]["shape"] == [2]

    def test_a_rejected_file_prints_no_document(self, tmp_path):
        torn = tmp_path / "ckpt-00000008.bin"
        torn.write_bytes((FIXTURES / "ckpt-00000008.bin").read_bytes()[:-3])
        proc = self.run(torn)
        assert proc.returncode == 1
        assert "container length disagrees" in proc.stderr
        assert proc.stdout == ""
