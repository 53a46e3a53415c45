"""Binary checkpoint format.

Layout (all integers little-endian):
  magic "SMCK" | u32 version | u16 digest length | digest (ascii hex)
  | u32 record count | records.
Record: u16 name length | name (utf-8) | u8 ndim | u32 dims | payload as
raw little-endian float64.  Values are stored in 64-bit regardless of the
model compute dtype, so save -> load -> save round-trips byte-identically.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"SMCK"
VERSION = 1


def save_checkpoint(path, digest: str, arrays) -> None:
    """Write the checkpoint through a sibling temp file that replaces
    `path` only once complete and synced, so a crash or an error
    mid-write leaves any previous checkpoint at `path` intact."""
    path = Path(path)
    records = list(arrays)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            dig = digest.encode("ascii")
            f.write(MAGIC + struct.pack("<IH", VERSION, len(dig)) + dig)
            f.write(struct.pack("<I", len(records)))
            for name, arr in records:
                nb = name.encode("utf-8")
                arr64 = np.ascontiguousarray(arr, dtype="<f8")
                f.write(struct.pack("<H", len(nb)) + nb)
                f.write(struct.pack(f"<B{arr64.ndim}I", arr64.ndim, *arr64.shape))
                f.write(arr64.tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Return (digest, {name: float64 array}) preserving record order."""
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise DataError(f"truncated checkpoint {path}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    (dlen,) = struct.unpack("<H", take(2))
    digest = bytes(take(dlen)).decode("ascii")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = bytes(take(nlen)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n_items = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape)
        arrays[name] = arr.copy()
    if pos != len(blob):
        raise DataError(f"trailing bytes in checkpoint {path}")
    return digest, arrays
