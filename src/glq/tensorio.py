"""Binary tensor container and atomic artifact helpers.

File layout, all integers little-endian:

    offset 0   8 bytes   magic b"GQTENSR1"
    offset 8   1 byte    dtype code: 0 = float32, 1 = float64, 2 = uint8
    offset 9   4 bytes   ndim (u32)
    offset 13  8*ndim    dims (u64 each)
    then       payload   row-major little-endian element bytes, exactly
                         prod(dims) * itemsize long

Readers reject wrong magic, unknown dtype codes, and payloads whose
length disagrees with the header (truncated or trailing bytes alike).
Writers go through a temporary file in the same directory followed by
os.replace, so a crash never leaves a half-written artifact behind.
Write then read returns a bit-identical array.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptFile, UnsupportedDtype

MAGIC = b"GQTENSR1"

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_KIND_TO_CODE = {"f4": 0, "f8": 1, "u1": 2}


def _dtype_code(arr: np.ndarray) -> int:
    key = arr.dtype.newbyteorder("<").str.lstrip("<|=")
    if key not in _KIND_TO_CODE:
        raise UnsupportedDtype(f"cannot serialize dtype {arr.dtype}")
    return _KIND_TO_CODE[key]


def tensor_bytes(arr: np.ndarray) -> bytes:
    """Serialized form of `arr` (header + payload)."""
    code = _dtype_code(arr)
    dt = _CODE_TO_DTYPE[code]
    # ascontiguousarray alone would promote ndim-0 inputs to shape (1,)
    data = np.asarray(arr, dtype=dt)
    if data.ndim:
        data = np.ascontiguousarray(data)
    head = MAGIC + struct.pack("<BI", code, data.ndim)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    return head + data.tobytes(order="C")


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    """Atomically write `arr` to `path` in the container format."""
    write_bytes_atomic(path, tensor_bytes(arr))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor file, validating header and payload length."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 5:
        raise CorruptFile(f"{path}: shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    code, ndim = struct.unpack_from("<BI", blob, len(MAGIC))
    if code not in _CODE_TO_DTYPE:
        raise UnsupportedDtype(f"{path}: unknown dtype code {code}")
    off = len(MAGIC) + 5
    if len(blob) < off + 8 * ndim:
        raise CorruptFile(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}Q", blob, off) if ndim else ()
    off += 8 * ndim
    dt = _CODE_TO_DTYPE[code]
    count = 1
    for d in dims:
        count *= d
    expected = count * dt.itemsize
    if len(blob) - off != expected:
        raise CorruptFile(
            f"{path}: payload is {len(blob) - off} bytes, header implies {expected}"
        )
    arr = np.frombuffer(blob, dtype=dt, count=count, offset=off)
    return arr.reshape(dims).copy()


def write_bytes_atomic(path: str | Path, blob: bytes) -> None:
    """Write `blob` to a temporary file beside `path`, then os.replace
    it into place."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def write_json_atomic(path: str | Path, obj) -> None:
    """Write canonical JSON (sorted keys, fixed separators) atomically."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), indent=1).encode()
    write_bytes_atomic(path, blob + b"\n")


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(dir_path: str | Path, meta: dict, files: list[str]) -> None:
    """Manifest for an artifact directory: metadata plus one content hash
    per listed file (paths relative to the directory)."""
    dir_path = Path(dir_path)
    entry = dict(meta)
    entry["files"] = {name: file_sha256(dir_path / name) for name in sorted(files)}
    write_json_atomic(dir_path / "manifest.json", entry)


def read_json_object(path: str | Path) -> dict:
    """The JSON object stored at `path`. A file that is not UTF-8 JSON,
    or holds a value other than an object, raises CorruptFile naming
    the file."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; deep nesting
    # exhausts the decoder's recursion
    except (ValueError, RecursionError) as exc:
        raise CorruptFile(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorruptFile(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_manifest(dir_path: str | Path) -> dict:
    """The manifest of an artifact directory; CorruptFile when it is
    missing, not a JSON object, or its `files` is not an object."""
    man = Path(dir_path) / "manifest.json"
    if not man.exists():
        raise CorruptFile(f"{man}: missing manifest")
    entry = read_json_object(man)
    if not isinstance(entry.get("files", {}), dict):
        raise CorruptFile(f"{man}: files must be an object, got {entry['files']!r}")
    return entry


def stale_files(dir_path: str | Path, entry: dict) -> list[str]:
    """The names in `entry`, the already-read manifest of `dir_path`,
    whose file is missing or whose hash no longer matches."""
    dir_path = Path(dir_path)
    return [name for name, digest in entry.get("files", {}).items()
            if not (dir_path / name).exists() or file_sha256(dir_path / name) != digest]


def verify_manifest(dir_path: str | Path) -> list[str]:
    """Return the names whose on-disk hash no longer matches the manifest."""
    return stale_files(dir_path, read_manifest(dir_path))
