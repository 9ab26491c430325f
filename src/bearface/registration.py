"""Landmark-based face registration: similarity fit, warp, crop, resize.

68-point landmark sets are aligned to a reference shape with a
least-squares similarity transform (uniform scale, rotation, translation,
no reflection), then the face is resampled straight into a square crop of
the reference-space landmark bounding box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import CropBoundsWarning
from .imaging import GrayImage
from .records import frozen, parse_records, place

LANDMARK_COUNT = 68
CROP_SIZE = 128
# Far beyond any image, and small enough that the sums of squared centred
# coordinates in `fit_similarity` (68 points, under 600 * COORDINATE_LIMIT**2)
# stay finite.
COORDINATE_LIMIT = 1e9


class DegenerateLandmarksError(ValueError):
    """Landmark configuration with no spread; the fit is singular."""


@dataclass(frozen=True)
class LandmarkSet:
    """Exactly 68 (x, y) points in image pixel coordinates.

    Every coordinate is finite and at most COORDINATE_LIMIT in magnitude.
    """

    points: np.ndarray  # (68, 2) float64

    def __post_init__(self) -> None:
        array = np.asarray(self.points, dtype=np.float64)
        if array.shape != (LANDMARK_COUNT, 2):
            raise ValueError(
                f"landmark set must be ({LANDMARK_COUNT}, 2), got {array.shape}"
            )
        if not np.isfinite(array).all():
            raise ValueError("landmark coordinates must be finite")
        if not (np.abs(array) <= COORDINATE_LIMIT).all():
            raise ValueError(
                f"landmark coordinates must be at most {COORDINATE_LIMIT:g} in magnitude"
            )
        object.__setattr__(self, "points", frozen(array))


_LANDMARK_FIELDS = (("x", float), ("y", float))


def read_landmarks(path: str | Path) -> LandmarkSet:
    """Load an 'x y' per line landmark file (one per image, same stem).

    A coordinate that is not finite or is above COORDINATE_LIMIT in
    magnitude raises a ValueError naming its `path:line`.

    A file of exactly 68 lines of two fields and no comment, the common
    case, is read with `str.split` and `float`, the conversion that
    `records.typed` applies, so it gives the records path's array. Any
    other file, and any file whose values fail, takes the records path,
    which names the place of every error.
    """
    text = Path(path).read_text(encoding="utf-8")
    if "#" not in text:
        fields = [line.split() for line in text.splitlines()]
        if len(fields) == LANDMARK_COUNT and all(len(pair) == 2 for pair in fields):
            try:
                return LandmarkSet(np.array([[float(x), float(y)] for x, y in fields]))
            except ValueError:
                pass
    rows = parse_records(text, _LANDMARK_FIELDS, str(path))
    if len(rows) != LANDMARK_COUNT:
        raise ValueError(f"{path}: expected {LANDMARK_COUNT} landmarks, got {len(rows)}")
    points = np.array([record for _, record in rows])
    try:
        return LandmarkSet(points)
    except ValueError:
        # The set holds 68 (x, y) rows, so a coordinate is at fault: name
        # the first one (the comparison is False for NaN) and its line.
        row, column = np.argwhere(~(np.abs(points) <= COORDINATE_LIMIT))[0]
        value = float(points[row, column])
        rule = f"at most {COORDINATE_LIMIT:g} in magnitude" if math.isfinite(value) else "finite"
        raise ValueError(
            f"{place(str(path), rows[row][0])}: {_LANDMARK_FIELDS[column][0]} must be "
            f"{rule}, got {value!r}"
        ) from None


def write_landmarks(landmarks: LandmarkSet, path: str | Path) -> None:
    lines = [f"{x:.6f} {y:.6f}" for x, y in landmarks.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale * R(rotation) @ p + translation."""

    scale: float
    rotation: float  # radians
    translation: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def _complex(self) -> complex:
        return self.scale * complex(math.cos(self.rotation), math.sin(self.rotation))

    def apply_complex(self, z: np.ndarray) -> np.ndarray:
        """The map on points given as complex numbers x + iy."""
        # The product stays complex: numpy's complex multiply may fuse its
        # multiply-adds, so the real form x * ar - y * ai can differ from it
        # in the last bit, and crops would no longer repeat bit for bit.
        w = z * self._complex()
        w += complex(*self.translation)
        return w

    def inverse(self) -> "SimilarityTransform":
        a = self._complex()
        b = -complex(*self.translation) / a
        return SimilarityTransform(
            scale=1.0 / self.scale,
            rotation=-self.rotation,
            translation=(b.real, b.imag),
        )


def fit_similarity(source: LandmarkSet, reference: LandmarkSet) -> SimilarityTransform:
    """Least-squares similarity mapping source points onto reference points.

    Closed form in the complex plane: with centred point sets s and r, the
    optimal rotation+scale is sum(r * conj(s)) / sum(|s|^2).
    """
    s = source.points[:, 0] + 1j * source.points[:, 1]
    r = reference.points[:, 0] + 1j * reference.points[:, 1]
    s_mean = s.mean()
    r_mean = r.mean()
    s_centered = s - s_mean
    denominator = float(np.sum(s_centered.real**2 + s_centered.imag**2))
    source_span = float(np.abs(s - s_mean).max(initial=0.0))
    if denominator <= (1e-12 * max(1.0, source_span)) ** 2 * LANDMARK_COUNT:
        raise DegenerateLandmarksError("source landmarks are all coincident")
    a = complex(np.sum((r - r_mean) * np.conj(s_centered)) / denominator)
    if a == 0:
        raise DegenerateLandmarksError("reference landmarks are all coincident")
    translation = r_mean - a * s_mean
    return SimilarityTransform(
        scale=abs(a),
        rotation=math.atan2(a.imag, a.real),
        translation=(translation.real, translation.imag),
    )


def mean_reference(landmark_sets: Sequence[LandmarkSet]) -> LandmarkSet:
    """Mean landmark shape, uniformly rescaled and centred in the crop frame."""
    if not landmark_sets:
        raise ValueError("need at least one landmark set")
    mean = np.mean([ls.points for ls in landmark_sets], axis=0)
    low = mean.min(axis=0)
    high = mean.max(axis=0)
    extent = float((high - low).max())
    if extent <= 0:
        raise DegenerateLandmarksError("mean landmark shape has no spread")
    scale = (CROP_SIZE - 1) / extent
    scaled = (mean - (low + high) / 2.0) * scale + (CROP_SIZE - 1) / 2.0
    return LandmarkSet(scaled)


def _bilinear_sample(pixels: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Sample at float coords (x cols, y rows); outside the image reads 0."""
    height, width = pixels.shape
    # The crop passes the strided .real and .imag views of a complex grid;
    # every pass below reads contiguous copies faster.
    x = np.ascontiguousarray(x)
    y = np.ascontiguousarray(y)
    # uint8 widens to float64 exactly, so one conversion serves all four
    # gathers.
    flat = pixels.astype(np.float64).ravel()
    if x.min() > 0 and y.min() > 0 and x.max() < width - 1 and y.max() < height - 1:
        # Strictly inside (NaN fails every test), so the clips and corner
        # minimums below are identities, no sample is outside, truncation
        # is the floor, and the corners are base, base + 1, base + W and
        # base + W + 1: one index into shifted views of the pixels.
        x0 = x.astype(np.intp)
        y0 = y.astype(np.intp)
        base = y0 * width
        base += x0
        value = _interpolate(
            (flat, flat[1:], flat[width:], flat[width + 1 :]), (base,) * 4, x - x0, y - y0
        )
        return value, False
    eps = 1e-9  # round-off from transform chains must not count as outside
    inside = (x >= -eps) & (x <= width - 1 + eps) & (y >= -eps) & (y <= height - 1 + eps)
    # An outside sample reads 0 below whatever its corners, so its
    # coordinates go to 0 first: a NaN (outside, as it fails every test)
    # then never reaches the integer cast.
    xs = np.clip(np.where(inside, x, 0.0), 0, width - 1)
    ys = np.clip(np.where(inside, y, 0.0), 0, height - 1)
    # Clipped coordinates are nonnegative, so truncation is the floor.
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    row0 = y0 * width
    row1 = y1 * width
    value = _interpolate(
        (flat,) * 4, (row0 + x0, row0 + x1, row1 + x0, row1 + x1), xs - x0, ys - y0
    )
    outside = ~inside
    clipped = bool(outside.any())
    if clipped:
        value[outside] = 0.0
    return value, clipped


def _interpolate(
    sources: Sequence[np.ndarray], indices: Sequence[np.ndarray], fx: np.ndarray, fy: np.ndarray
) -> np.ndarray:
    """p00 gx gy + p01 fx gy + p10 gx fy + p11 fx fy, with g = 1 - f.

    Corner k is ``sources[k].take(indices[k])``. The sum accumulates in
    place in that left-to-right order, which keeps its bits.
    """
    gx = 1 - fx
    gy = 1 - fy
    value = sources[0].take(indices[0])
    value *= gx
    value *= gy
    for source, index, across, down in zip(
        sources[1:], indices[1:], (fx, gx, fx), (gy, fy, fy)
    ):
        term = source.take(index)
        term *= across
        term *= down
        value += term
    return value


def register_and_crop(
    image: GrayImage,
    landmarks: LandmarkSet,
    reference: LandmarkSet,
) -> GrayImage:
    """Warp a face onto the reference shape and crop it to CROP_SIZE x CROP_SIZE.

    The crop window is the bounding box of the reference landmarks; output
    pixel centres span it inclusively. Sampling is bilinear through the
    inverse similarity transform in a single pass (no intermediate
    full-frame warp). Samples falling outside the source image read as 0
    and raise a CropBoundsWarning.
    """
    transform = fit_similarity(landmarks, reference)
    low = reference.points.min(axis=0)
    high = reference.points.max(axis=0)
    if not (high > low).all():
        raise DegenerateLandmarksError("reference bounding box is empty")
    grid = np.arange(CROP_SIZE)
    ref_x = low[0] + grid * (high[0] - low[0]) / (CROP_SIZE - 1)
    ref_y = low[1] + grid * (high[1] - low[1]) / (CROP_SIZE - 1)
    # The grid as x + iy directly: no (CROP_SIZE, CROP_SIZE, 2) stack to cast.
    z = np.empty((CROP_SIZE, CROP_SIZE), dtype=complex)
    z.real = ref_x
    z.imag = ref_y[:, None]
    w = transform.inverse().apply_complex(z)
    values, clipped = _bilinear_sample(image.pixels, w.real, w.imag)
    if clipped:
        warnings.warn(
            "crop window reaches outside the source image; missing pixels are 0",
            CropBoundsWarning,
            stacklevel=2,
        )
    return GrayImage.from_array(np.clip(np.round(values), 0, 255))
