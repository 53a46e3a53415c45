"""Binary checkpoint format.

Layout (all integers little-endian):
  magic "SMCK" | u32 version | u16 digest length | digest (ascii hex)
  | u32 record count | records.
Record: u16 name length | name (utf-8) | u8 ndim | u32 dims | payload as
raw little-endian float64.  Values are stored in 64-bit regardless of the
model compute dtype, so save -> load -> save round-trips byte-identically.
Version 2 has version 1's layout; its records hold each attention block's
bypass heads as one weight and one bias (``heads.<b>.weight`` [N*K,C],
``heads.<b>.bias`` [N*K]) where version 1 held a pair per head.  A file
of another version is refused.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"SMCK"
VERSION = 2


@contextlib.contextmanager
def replacing(path):
    """Open a sibling temp file of `path` for binary writing.  On a clean
    exit the file is synced and replaces `path`; on any error it is
    removed.  So `path` holds either its previous bytes or all the new
    ones, whenever the writer stops."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, digest: str, arrays) -> None:
    """Write the checkpoint through `replacing`, so a crash or an error
    mid-write leaves any previous checkpoint at `path` intact."""
    records = list(arrays)
    with replacing(path) as f:
        dig = digest.encode("ascii")
        f.write(MAGIC + struct.pack("<IH", VERSION, len(dig)) + dig)
        f.write(struct.pack("<I", len(records)))
        for name, arr in records:
            nb = name.encode("utf-8")
            arr64 = np.ascontiguousarray(arr, dtype="<f8")
            f.write(struct.pack("<H", len(nb)) + nb)
            f.write(struct.pack(f"<B{arr64.ndim}I", arr64.ndim, *arr64.shape))
            f.write(arr64.data)  # the buffer itself, no bytes copy


def load_checkpoint(path):
    """Return (digest, {name: float64 array}) preserving record order.
    A record that holds a NaN or Inf is refused, as is any damage to the
    layout: both raise DataError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {type(exc).__name__}") from None
    view = memoryview(blob)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(blob):
            raise DataError(f"truncated checkpoint {path}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def text(n, encoding, what):
        try:
            return bytes(take(n)).decode(encoding)
        except UnicodeDecodeError:
            raise DataError(f"checkpoint {path}: {what} is not {encoding}") from None

    if bytes(take(4)) != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version} (want {VERSION})")
    (dlen,) = struct.unpack("<H", take(2))
    digest = text(dlen, "ascii", "digest")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = text(nlen, "utf-8", "record name")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        payload = take(8 * math.prod(shape))
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError:   # more dims than numpy supports
            raise DataError(f"checkpoint {path}: record {name!r} has {ndim} dims") from None
        if not np.isfinite(arr).all():
            raise DataError(f"checkpoint {path}: record {name!r} holds a NaN or Inf")
        arrays[name] = arr.copy()
    if pos != len(blob):
        raise DataError(f"trailing bytes in checkpoint {path}")
    return digest, arrays
