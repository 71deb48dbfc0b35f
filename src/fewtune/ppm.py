"""Binary P6 PPM encoding and decoding for dataset directories.

8-bit, maxval 255, on the Python side a channels-first (3, H, W) float64
array in [0, 1]; quantization to bytes is round(v * 255).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataLoadError


def write_ppm(img: np.ndarray, path: str | Path) -> None:
    channels, height, width = img.shape
    if channels != 3:
        raise DataLoadError(f"P6 PPM stores RGB; image has {channels} channels")
    raw = np.round(img * 255.0).astype(np.uint8)
    body = raw.transpose(1, 2, 0).tobytes()  # interleave to row-major RGB
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + body)


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    while pos < len(data):
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataLoadError("truncated PPM header")
    return data[start:pos], pos


def _header(path: Path) -> tuple[bytes, int, int, int]:
    """The file's bytes, its width and height, and where its raster starts."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataLoadError(f"cannot read {path}: {exc}") from exc

    if data[:2] != b"P6" or not data[2:3].isspace():
        raise DataLoadError(f"{path}: not a binary P6 PPM")
    pos = 2
    try:
        w_tok, pos = _read_token(data, pos)
        h_tok, pos = _read_token(data, pos)
        max_tok, pos = _read_token(data, pos)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (ValueError, DataLoadError) as exc:
        raise DataLoadError(f"{path}: malformed PPM header") from exc
    if maxval != 255:
        raise DataLoadError(f"{path}: only maxval 255 supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise DataLoadError(f"{path}: bad dimensions {width}x{height}")
    return data, width, height, pos + 1  # single whitespace byte separates header from raster


def ppm_shape(path: str | Path) -> tuple[int, int, int]:
    """The (3, H, W) shape of the image in `path`, read from its header; no raster is decoded."""
    _, width, height, _ = _header(Path(path))
    return 3, height, width


def read_ppm(path: str | Path) -> np.ndarray:
    path = Path(path)
    data, width, height, pos = _header(path)
    expected = width * height * 3
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise DataLoadError(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0
