"""Binary P6 PPM encoding and decoding for dataset directories.

8-bit, maxval 255, on the Python side a channels-first (3, H, W) float64
array in [0, 1]; quantization to bytes is round(v * 255).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataLoadError

# most bytes a header may take, comments and the whitespace byte that ends it included; `ppm_shape`
# reads no more than this
MAX_HEADER_BYTES = 4096

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


def _header(path: Path, data: bytes) -> tuple[int, int, int]:
    """Width, height and where the raster starts, from the file's bytes or a prefix of at least
    MAX_HEADER_BYTES of them. A header that does not end within MAX_HEADER_BYTES is refused."""
    if data[:2] != b"P6" or not data[2:3].isspace():
        raise DataLoadError(f"{path}: not a binary P6 PPM")
    head = data[:MAX_HEADER_BYTES]
    header = _HEADER.match(head)
    # past the bound the data may go on: a header that needs more bytes, or whose maxval runs up to
    # the bound, where `\Z` would end it, does not fit
    if len(data) >= MAX_HEADER_BYTES and (header is None or header.end() == MAX_HEADER_BYTES
                                          and not head[-1:].isspace()):
        raise DataLoadError(f"{path}: PPM header is longer than {MAX_HEADER_BYTES} bytes")
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
    return width, height, header.end()


def _read(path: Path, size: int = -1) -> bytes:
    """All of the file's bytes, or its first `size`, read without a buffer so that no more are read."""
    try:
        if size < 0:
            return path.read_bytes()
        with open(path, "rb", buffering=0) as f:
            return f.read(size)
    except OSError as exc:
        raise DataLoadError(f"cannot read {path}: {exc}") from exc


def ppm_shape(path: str | Path) -> tuple[int, int, int]:
    """The (3, H, W) shape of the image in `path`, from its header; it reads at most MAX_HEADER_BYTES bytes."""
    path = Path(path)
    width, height, _ = _header(path, _read(path, MAX_HEADER_BYTES))
    return 3, height, width


def read_ppm(path: str | Path) -> np.ndarray:
    path = Path(path)
    data = _read(path)
    width, height, pos = _header(path, data)
    expected = width * height * 3
    if len(data) - pos < expected:
        raise DataLoadError(f"{path}: raster has {len(data) - pos} bytes, expected {expected}")
    arr = np.frombuffer(data, np.uint8, count=expected, offset=pos).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0
