"""Binary portable-pixmap (P6) and portable-graymap (P5) codec.

The only image format the package reads or writes: byte-exact,
dependency-free, maxval fixed at 255.  Color images are uint8 [H,W,3]
arrays in and out, so encoding and decoding are exact inverses;
`quantize` is the one rule that turns floats in [0,1] into uint8.
"""

from __future__ import annotations

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


def quantize(img: np.ndarray) -> np.ndarray:
    """Floats in [0,1] as uint8: scale by 255, round half to even, clip."""
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


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


def encode_color(img: np.ndarray, comment: str = "") -> bytes:
    """Encode a uint8 [H,W,3] image as binary P6, bytes as they are."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise DataError(f"encode_color needs uint8 [H,W,3], got {img.dtype} {img.shape}")
    h, w = img.shape[:2]
    head = f"P6\n{'# ' + comment + chr(10) if comment else ''}{w} {h}\n255\n"
    return head.encode("ascii") + img.tobytes()


def encode_heatmap(heatmap: np.ndarray, comment: str = "") -> bytes:
    """Min-max normalize a 2-d map to [0,255] and encode as binary P5.

    A constant map has no range to stretch; it encodes as all zeros.
    """
    if heatmap.ndim == 3 and heatmap.shape[0] == 1:
        heatmap = heatmap[0]
    if heatmap.ndim != 2:
        raise DataError(f"encode_heatmap needs a 2-d map, got {heatmap.shape}")
    lo, hi = float(heatmap.min()), float(heatmap.max())
    if hi - lo < 1e-12:
        raw = np.zeros(heatmap.shape, dtype=np.uint8)
    else:
        raw = quantize((heatmap - lo) / (hi - lo))
    h, w = heatmap.shape
    head = f"P5\n{'# ' + comment + chr(10) if comment else ''}{w} {h}\n255\n"
    return head.encode("ascii") + raw.tobytes()
