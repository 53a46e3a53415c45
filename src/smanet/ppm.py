"""Binary portable-pixmap (P6) and portable-graymap (P5) codec.

The only image format the package reads or writes: byte-exact,
dependency-free, maxval fixed at 255.  Color images are uint8 [H,W,3]
arrays in and out, so encoding and decoding are exact inverses;
`quantize` is the one rule that turns floats in [0,1] into uint8, and
`read_color_image` the one reader of a color image file: the manifest
reader and `export-attention` both call it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


def _parse_header(data: bytes):
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in (b"5", b"6"):
        raise DataError("not a P5/P6 portable pixmap (bad magic)")
    kind = data[1:2].decode()
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DataError("truncated pixmap header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise DataError(f"unexpected byte {ch!r} in pixmap header")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DataError("missing whitespace after pixmap maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"unsupported maxval {maxval} (only 255)")
    return kind, width, height, pos


def quantize(img: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Floats in [0,1] as uint8: scale by 255, round half to even, clip.

    Given `out`, a uint8 array of `img`'s shape (any strides), the result
    is cast into it on assignment, and the float array `img` is
    overwritten on the way as the scratch buffer."""
    scaled = np.multiply(img, 255.0, out=None if out is None else img)
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    if out is None:
        return scaled.astype(np.uint8)
    out[...] = scaled
    return out


def decode_image(data: bytes) -> np.ndarray:
    """Decode P6 to [H,W,3] or P5 to [H,W]: the uint8 payload itself,
    a read-only view of `data`."""
    kind, width, height, pos = _parse_header(data)
    channels = 3 if kind == "6" else 1
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise DataError(f"truncated pixmap payload: {len(payload)} of {need} bytes")
    arr = np.frombuffer(payload, dtype=np.uint8)
    return arr.reshape((height, width, 3) if channels == 3 else (height, width))


def read_color_image(path, size: int) -> np.ndarray:
    """The P6 file at `path` as uint8 [size,size,3].  A file that is
    missing or unreadable, is no valid pixmap, or has another shape
    raises one DataError line naming `path`."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"image {path} not found") from None
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {type(exc).__name__}") from None
    try:
        img = decode_image(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if img.shape != (size, size, 3):
        raise DataError(f"{path}: expected {size}x{size} color image, got {img.shape}")
    return img


def _encode(kind: str, raw: np.ndarray, comment: str = "") -> bytes:
    """A binary P5/P6 header for `raw`'s [H,W] (an optional comment line
    after the magic), then `raw`'s bytes as they are."""
    note = f"# {comment}\n" if comment else ""
    return f"P{kind}\n{note}{raw.shape[1]} {raw.shape[0]}\n255\n".encode("ascii") + raw.tobytes()


def encode_color(img: np.ndarray) -> bytes:
    """Encode a uint8 [H,W,3] image as binary P6, bytes as they are."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise DataError(f"encode_color needs uint8 [H,W,3], got {img.dtype} {img.shape}")
    return _encode("6", img)


def encode_heatmap(heatmap: np.ndarray, comment: str = "") -> bytes:
    """Min-max normalize a 2-d map to [0,255] and encode as binary P5.

    A constant map has no range to stretch; it encodes as all zeros.
    """
    if heatmap.ndim != 2:
        raise DataError(f"encode_heatmap needs a 2-d map, got {heatmap.shape}")
    lo, hi = float(heatmap.min()), float(heatmap.max())
    if hi - lo < 1e-12:
        raw = np.zeros(heatmap.shape, dtype=np.uint8)
    else:
        raw = quantize((heatmap - lo) / (hi - lo))
    return _encode("5", raw, comment)
