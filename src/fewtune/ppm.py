"""Binary P6 PPM encoding and decoding for dataset directories.

8-bit, maxval 255, on the Python side a channels-first (3, H, W) float64
array in [0, 1]; quantization to bytes is round(v * 255).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataLoadError

# after the magic number, width, height and maxval: each follows whitespace and
# '#' comments that end in a newline, and is a maximal run of non-whitespace that
# a '#' does not start; one whitespace byte, or the end of the data, ends maxval
_HEADER = re.compile(rb"P6" + 3 * rb"\s(?:\s|#[^\n]*\n)*([^\s#]\S*)" + rb"(?:\s|\Z)")


def write_ppm(img: np.ndarray, path: str | Path) -> None:
    channels, height, width = img.shape
    if channels != 3:
        raise DataLoadError(f"P6 PPM stores RGB; image has {channels} channels")
    raw = np.round(img * 255.0).astype(np.uint8)
    body = raw.transpose(1, 2, 0).tobytes()  # interleave to row-major RGB
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + body)


def _header(path: Path) -> tuple[bytes, int, int, int]:
    """The file's bytes, its width and height, and where its raster starts."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataLoadError(f"cannot read {path}: {exc}") from exc

    if data[:2] != b"P6" or not data[2:3].isspace():
        raise DataLoadError(f"{path}: not a binary P6 PPM")
    header = _HEADER.match(data)
    if header is None:
        raise DataLoadError(f"{path}: malformed PPM header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:
        raise DataLoadError(f"{path}: malformed PPM header") from exc
    if maxval != 255:
        raise DataLoadError(f"{path}: only maxval 255 supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise DataLoadError(f"{path}: bad dimensions {width}x{height}")
    return data, width, height, header.end()


def ppm_shape(path: str | Path) -> tuple[int, int, int]:
    """The (3, H, W) shape of the image in `path`, read from its header; no raster is decoded."""
    _, width, height, _ = _header(Path(path))
    return 3, height, width


def read_ppm(path: str | Path) -> np.ndarray:
    path = Path(path)
    data, width, height, pos = _header(path)
    expected = width * height * 3
    if len(data) - pos < expected:
        raise DataLoadError(f"{path}: raster has {len(data) - pos} bytes, expected {expected}")
    arr = np.frombuffer(data, np.uint8, count=expected, offset=pos).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0
