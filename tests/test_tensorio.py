import re
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glq.errors import CorruptFile, UnsupportedDtype
from glq.tensorio import (
    MAGIC,
    file_sha256,
    read_manifest,
    read_tensor,
    tensor_bytes,
    verify_manifest,
    write_json_atomic,
    write_manifest,
    write_tensor,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.linspace(-1, 1, 7, dtype=np.float32),
            np.arange(10, dtype=np.uint8).reshape(2, 5),
            np.zeros((2, 0, 3)),
            np.array(3.5),  # ndim-0
            np.array([np.nan, np.inf, -np.inf, -0.0]),
        ],
        ids=["f64-2d", "f32-1d", "u8-2d", "empty-dim", "scalar", "specials"],
    )
    def test_write_read_identity(self, tmp_path, arr):
        p = tmp_path / "t.gqt"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        npt.assert_array_equal(back, arr)  # NaN-tolerant via equal_nan on floats
        assert back.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_non_contiguous_input(self, tmp_path):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[:, ::2]
        p = tmp_path / "t.gqt"
        write_tensor(p, view)
        npt.assert_array_equal(read_tensor(p), view)

    def test_serialization_is_deterministic(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert tensor_bytes(a) == tensor_bytes(a.copy())

    def test_big_endian_input_normalized(self, tmp_path):
        a = np.arange(5, dtype=">f8")
        p = tmp_path / "t.gqt"
        write_tensor(p, a)
        back = read_tensor(p)
        npt.assert_array_equal(back, a.astype("<f8"))

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(UnsupportedDtype):
            write_tensor(tmp_path / "t.gqt", np.arange(3, dtype=np.int64))

    def test_no_tmp_residue(self, tmp_path):
        write_tensor(tmp_path / "t.gqt", np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["t.gqt"]

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.float32, np.float64, np.uint8]),
            shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
        )
    )
    def test_roundtrip_property(self, arr):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as td:
            p = Path(td) / "prop.gqt"
            write_tensor(p, arr)
            back = read_tensor(p)
        assert back.shape == arr.shape and back.dtype == arr.dtype
        assert back.tobytes() == np.asarray(arr).tobytes()


class TestCorruption:
    def _write(self, tmp_path, blob: bytes):
        p = tmp_path / "bad.gqt"
        p.write_bytes(blob)
        return p

    def test_empty_file(self, tmp_path):
        with pytest.raises(CorruptFile):
            read_tensor(self._write(tmp_path, b""))

    def test_bad_magic(self, tmp_path):
        good = tensor_bytes(np.ones(2))
        with pytest.raises(CorruptFile, match="magic"):
            read_tensor(self._write(tmp_path, b"NOTRIGHT" + good[8:]))

    def test_unknown_dtype_code(self, tmp_path):
        good = bytearray(tensor_bytes(np.ones(2)))
        good[8] = 9
        with pytest.raises(UnsupportedDtype):
            read_tensor(self._write(tmp_path, bytes(good)))

    def test_truncated_dims(self, tmp_path):
        blob = MAGIC + struct.pack("<BI", 1, 2) + struct.pack("<Q", 3)  # one of two dims
        with pytest.raises(CorruptFile, match="dims"):
            read_tensor(self._write(tmp_path, blob))

    def test_truncated_payload(self, tmp_path):
        good = tensor_bytes(np.ones(4))
        with pytest.raises(CorruptFile, match="payload"):
            read_tensor(self._write(tmp_path, good[:-8]))

    def test_trailing_bytes(self, tmp_path):
        good = tensor_bytes(np.ones(4))
        with pytest.raises(CorruptFile, match="payload"):
            read_tensor(self._write(tmp_path, good + b"\x00"))

    def test_header_only(self, tmp_path):
        blob = MAGIC + struct.pack("<BI", 1, 0)  # scalar header, payload missing
        with pytest.raises(CorruptFile):
            read_tensor(self._write(tmp_path, blob))


class TestJsonAndManifest:
    def test_json_is_canonical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json_atomic(a, {"z": 1, "a": [1, 2]})
        write_json_atomic(b, {"a": [1, 2], "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_sha_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "x.bin"
        p.write_bytes(b"abc123")
        assert file_sha256(p) == hashlib.sha256(b"abc123").hexdigest()

    def test_manifest_verifies_clean_dir(self, tmp_path):
        write_tensor(tmp_path / "w.gqt", np.ones(3))
        (tmp_path / "note.txt").write_text("hello")
        write_manifest(tmp_path, {"kind": "test"}, ["w.gqt", "note.txt"])
        man = read_manifest(tmp_path)
        assert man["kind"] == "test"
        assert sorted(man["files"]) == ["note.txt", "w.gqt"]
        assert verify_manifest(tmp_path) == []

    def test_manifest_detects_edit_and_deletion(self, tmp_path):
        write_tensor(tmp_path / "w.gqt", np.ones(3))
        (tmp_path / "note.txt").write_text("hello")
        write_manifest(tmp_path, {}, ["w.gqt", "note.txt"])
        (tmp_path / "note.txt").write_text("tampered")
        assert verify_manifest(tmp_path) == ["note.txt"]
        (tmp_path / "w.gqt").unlink()
        assert sorted(verify_manifest(tmp_path)) == ["note.txt", "w.gqt"]

    @pytest.mark.parametrize("blob,text", [
        pytest.param(b"\xff{}", "not valid JSON: ", id="not_utf8"),
        pytest.param(b"{", "not valid JSON: ", id="truncated"),
        pytest.param(b"[" * 100000, "not valid JSON: ", id="nested_too_deep"),
        pytest.param(b"7", "expected a JSON object, got int", id="number"),
        pytest.param(b'{"files": ["w.gqt"]}', "files must be an object, got ['w.gqt']",
                     id="files_a_list"),
    ])
    def test_unreadable_manifest_is_refused(self, tmp_path, blob, text):
        man = tmp_path / "manifest.json"
        man.write_bytes(blob)
        for read in (read_manifest, verify_manifest):
            with pytest.raises(CorruptFile, match=f"^{re.escape(f'{man}: {text}')}"):
                read(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptFile):
            read_manifest(tmp_path)
