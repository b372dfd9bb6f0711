"""Binary model checkpoints, and the framing shared with the index store.

Both binary formats start with one preamble (magic, u32 format version,
length-prefixed JSON header) and read their little-endian payload from the
open file through the bounds-checked ``Reader``, so a malformed file fails
with a ``ValueError`` that names it. A checkpoint's header echoes the model
and vocab settings; then come tensor records: name (length-prefixed UTF-8),
dims (u8 ndim + u64 dims), a u64 byte length and raw float64 little-endian
data. Round-trips are bit-exact; writes go through a temp file and atomic
rename.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

MAGIC = b"TWCK"
FORMAT_VERSION = 1


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Reader:
    """Bounds-checked reader of the open file ``f`` at ``path``; each failure is a ValueError naming it.

    Each array is read from the file straight into an array of its own, so a
    load holds every tensor once, aligned and writable, and never a second
    copy of the file. (Views of one buffer holding the whole file would sit
    at the unaligned offsets the format gives them, and numpy copies an
    unaligned operand on every matmul.)
    """

    def __init__(self, f: BinaryIO, path: str | Path):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: {message}")

    def _advance(self, n: int) -> None:
        if not 0 <= n <= self.size - self.off:
            raise self.error(f"truncated file or bad count: {n} bytes wanted at offset {self.off}")
        self.off += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        data = self.f.read(n)
        if len(data) != n:
            raise self.error(f"file shrank while reading at offset {self.off - n}")
        return data

    def u8(self) -> int:
        return int.from_bytes(self.take(1), "little")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "little")

    def string(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"invalid UTF-8 string at offset {self.off}: {exc}") from None

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` items of ``dtype``, read into a new array."""
        dtype = np.dtype(dtype)
        self._advance(count * dtype.itemsize)  # before allocating: the count may be garbage
        out = np.empty(count, dtype=dtype)
        if self.f.readinto(out) != out.nbytes:
            raise self.error(f"file shrank while reading at offset {self.off - out.nbytes}")
        return out

    def finish(self) -> None:
        if self.off != self.size:
            raise self.error(f"{self.size - self.off} trailing bytes after offset {self.off}")


def write_preamble(magic: bytes, version: int, header: dict) -> list[bytes]:
    """Magic, u32 version and length-prefixed JSON header, as byte chunks."""
    return [magic, struct.pack("<I", version), pack_str(json.dumps(header, sort_keys=True))]


def read_preamble(f: BinaryIO, path: str | Path, magic: bytes, version: int,
                  kind: str) -> tuple[Reader, dict]:
    """Read the open file ``f`` at ``path``; check its magic and version; return (reader, header)."""
    r = Reader(f, path)
    if r.take(len(magic)) != magic:
        raise r.error(f"not a {kind} file (no {magic!r} magic)")
    if (found := r.u32()) != version:
        raise r.error(f"unsupported {kind} format version {found}")
    try:
        header = json.loads(r.string())
    except json.JSONDecodeError as exc:
        raise r.error(f"{kind} header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise r.error(f"{kind} header is not a JSON object")
    return r, header


def atomic_write(path: str | Path, chunks: Iterable) -> None:
    """Write ``chunks``, bytes-like buffers such as C-contiguous arrays, one by
    one to ``path`` via temp-file-then-rename, with ``open``'s mode: 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.urandom(4).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], header: dict) -> None:
    """Serialize named float64 tensors plus a JSON header, atomically,
    writing each tensor from its own buffer."""

    def chunks():
        yield from write_preamble(MAGIC, FORMAT_VERSION, {**header, "format_version": FORMAT_VERSION})
        names = sorted(params)
        yield struct.pack("<I", len(names))
        for name in names:
            # order="C" copies only a non-contiguous tensor; ascontiguousarray is
            # avoided because it silently promotes 0-d scalars to 1-d
            arr = np.asarray(params[name], dtype="<f8", order="C")
            yield pack_str(name)
            yield struct.pack(f"<B{arr.ndim}QQ", arr.ndim, *arr.shape, arr.nbytes)
            yield arr

    atomic_write(path, chunks())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load (params, header) from a checkpoint file."""
    with open(path, "rb") as f:
        r, header = read_preamble(f, path, MAGIC, FORMAT_VERSION, "checkpoint")
        params: dict[str, np.ndarray] = {}
        for _ in range(r.u32()):
            name = r.string()
            shape = tuple(r.u64() for _ in range(r.u8()))
            nbytes = r.u64()
            if nbytes != 8 * math.prod(shape):
                raise r.error(f"tensor {name!r}: {nbytes} bytes do not hold float64 shape {shape}")
            flat = r.array("<f8", math.prod(shape))
            try:
                params[name] = flat.reshape(shape)
            except ValueError:  # numpy rejects dims whose product overflows, even for empty arrays
                raise r.error(f"tensor {name!r}: shape {shape} is too large") from None
        r.finish()
    return params, header


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
