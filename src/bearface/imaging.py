"""8-bit grayscale images and portable anymap I/O.

Only the binary formats are supported: P5 graymaps directly, P6 pixmaps
via the usual luma weights (0.299, 0.587, 0.114).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import frozen, located


@dataclass(frozen=True)
class GrayImage:
    """Row-major 8-bit intensity image."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self) -> None:
        array = np.asarray(self.pixels)
        if array.ndim != 2:
            raise ValueError(f"image must be 2-D, got shape {array.shape}")
        if array.dtype != np.uint8:
            raise ValueError(f"image must be uint8, got {array.dtype}")
        object.__setattr__(self, "pixels", frozen(array))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_array(cls, array: np.ndarray) -> "GrayImage":
        return cls(np.asarray(array, dtype=np.uint8))

# One header token, after any whitespace and `#` comments. A comment runs to
# the end of its line and a token never starts with `#`, so no match can end
# a comment early to find a token inside it.
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def _read_pnm_tokens(data: bytes, count: int, offset: int) -> tuple[list[int], int]:
    """Read whitespace/comment-separated ASCII integers from a PNM header."""
    tokens: list[int] = []
    for _ in range(count):
        match = _PNM_TOKEN.match(data, offset)
        if match is None:
            raise ValueError("truncated PNM header")
        tokens.append(int(match[1]))
        offset = match.end()
    return tokens, offset + 1  # skip the single whitespace after the last token


def read_pnm(path: str | Path) -> GrayImage:
    """Load a binary P5 graymap or P6 pixmap as grayscale.

    Samples are scaled from 0..maxval to 0..255 as rint(v * 255 / maxval)
    (for a pixmap, before the luma weights); a sample above maxval is an
    error.
    """
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r} (need P5/P6)")
    with located(path):
        (width, height, maxval), offset = _read_pnm_tokens(data, 3, 2)
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise ValueError(f"{path}: only 8-bit data supported, maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    if len(data) - offset < expected:
        raise ValueError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    if maxval != 255:
        if raster.max() > maxval:
            raise ValueError(f"{path}: sample {raster.max()} above maxval {maxval}")
        raster = np.rint(raster * 255.0 / maxval).astype(np.uint8)
    if channels == 1:
        gray = raster.reshape(height, width)
    else:
        rgb = raster.reshape(height, width, 3).astype(np.float64)
        luma = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
        gray = np.clip(np.round(luma), 0, 255).astype(np.uint8)
    return GrayImage(gray)


def pgm_bytes(image: GrayImage) -> bytes:
    """The image as a binary P5 graymap."""
    return f"P5\n{image.width} {image.height}\n255\n".encode("ascii") + image.pixels.tobytes()


def write_pgm(image: GrayImage, path: str | Path) -> None:
    """Write a binary P5 graymap in place, for input files; artifacts go
    through `records.write_atomic(path, pgm_bytes(image))`."""
    Path(path).write_bytes(pgm_bytes(image))
