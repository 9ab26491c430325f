"""Landmark-based face registration: similarity fit, warp, crop, resize.

68-point landmark sets are aligned to a reference shape with a
least-squares similarity transform (uniform scale, rotation, translation,
no reflection), then the face is resampled straight into a square crop of
the reference-space landmark bounding box.

The crop runs once per face, so it keeps its working memory small:

- The complex sampling grid depends only on the reference's bounding box.
  It is built once per box (`_crop_grid`, cached on the four bounds) and
  is read-only; every face maps it through its own inverse transform.
- The mapped coordinates become two contiguous arrays, and the complex
  product is freed before sampling starts. Every crop, inside the image
  or clipped, is then sampled in place on one path: bounds and fractional
  parts go into the coordinate arrays, the corner base into the row index
  array, and rounding and clipping into the interpolated sum. Each step
  is its out-of-place form's operation on the same operands, in the same
  order, so the bits do not depend on it. Only the returned crop is new.

Why: glibc gives free memory at the top of the C heap back to the system,
and the next allocation faults it in again. With twenty crop-sized
temporaries (2.1 MiB at peak, 2.7 MiB for a clipped crop) a describe pass
took some 240 minor page faults a face; at about 1 MiB the temporaries of
any crop fit in heap that the pass already holds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
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

    The file follows the records conventions (`records.parse_records`):
    comments, blank lines, any whitespace between the fields. Every error
    names its `path:line`, a coordinate that is not finite or is above
    COORDINATE_LIMIT in magnitude included.
    """
    text = Path(path).read_text(encoding="utf-8")
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


@lru_cache(maxsize=8)
def _crop_grid(low_x: float, low_y: float, high_x: float, high_y: float) -> np.ndarray:
    """The crop's sample points in reference coordinates, as read-only x + iy.

    Output pixel centres span the box from (low_x, low_y) to (high_x,
    high_y) inclusively. A -0.0 bound hits the cache entry of +0.0, which
    gives the same grid: its first step is low + 0.0, +0.0 either way.
    """
    steps = np.arange(CROP_SIZE)
    # The grid as x + iy directly: no (CROP_SIZE, CROP_SIZE, 2) stack to cast.
    grid = np.empty((CROP_SIZE, CROP_SIZE), dtype=complex)
    grid.real = low_x + steps * (high_x - low_x) / (CROP_SIZE - 1)
    grid.imag = (low_y + steps * (high_y - low_y) / (CROP_SIZE - 1))[:, None]
    grid.setflags(write=False)
    return grid


def _source_points(inverse: SimilarityTransform, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the grid's points mapped by `inverse`, as fresh contiguous arrays.

    The complex product is freed on return, before sampling starts.
    """
    mapped = inverse.apply_complex(grid)
    return mapped.real.copy(), mapped.imag.copy()


def _bilinear_sample(pixels: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Sample at float coords (x cols, y rows); outside the image reads 0.

    x and y are C-contiguous float64 arrays of one shape that the sampler
    owns: it overwrites them with their fractional parts.
    """
    height, width = pixels.shape
    # The pixels as float64 (uint8 widens exactly), then a row and a pixel
    # of zeros: the corners are base, base + 1, base + W and base + W + 1
    # on the last row and column too, where the fraction towards the
    # corner past the edge is exactly 0, so that corner adds +0.0.
    flat = np.zeros((height + 1) * width + 1)
    flat[: height * width] = pixels.ravel()
    clipped = False
    # Only samples not strictly inside need bounds (NaN fails every test).
    if not (x.min() > 0 and y.min() > 0 and x.max() < width - 1 and y.max() < height - 1):
        eps = 1e-9  # round-off from transform chains must not count as outside
        outside = ~((x >= -eps) & (x <= width - 1 + eps) & (y >= -eps) & (y <= height - 1 + eps))
        clipped = bool(outside.any())
        # An outside sample reads 0 below whatever its corners, so its
        # coordinates go to 0 first: a NaN (outside, as it fails every
        # test) then never reaches the integer cast.
        x[outside] = 0.0
        y[outside] = 0.0
        np.clip(x, 0, width - 1, out=x)
        np.clip(y, 0, height - 1, out=y)
    # Nonnegative now, so truncation is the floor. Each step writes into
    # an array it no longer needs.
    x0 = x.astype(np.intp)
    base = y.astype(np.intp)
    np.subtract(x, x0, out=x)
    np.subtract(y, base, out=y)
    base *= width
    base += x0
    del x0
    value = _interpolate(flat, width, base, x, y)
    if clipped:
        value[outside] = 0.0
    return value, clipped


def _interpolate(
    flat: np.ndarray, width: int, base: np.ndarray, fx: np.ndarray, fy: np.ndarray
) -> np.ndarray:
    """p00 gx gy + p01 fx gy + p10 gx fy + p11 fx fy, with g = 1 - f.

    Corner p00 is ``flat[base]``, p01 the pixel after it, p10 the one a row
    of `width` below it and p11 the one after that. The sum accumulates in
    place in that left-to-right order, which keeps its bits.
    """
    gx = 1 - fx
    gy = 1 - fy
    value = flat.take(base)
    value *= gx
    value *= gy
    for offset, across, down in ((1, fx, gy), (width, gx, fy), (width + 1, fx, fy)):
        term = flat[offset:].take(base)
        term *= across
        term *= down
        value += term
        del term  # so that the next corner's gather reuses its memory
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
    grid = _crop_grid(*low.tolist(), *high.tolist())
    # No name here holds the coordinates: the sampler works in them, and
    # they are freed as soon as it returns.
    values, clipped = _bilinear_sample(image.pixels, *_source_points(transform.inverse(), grid))
    if clipped:
        warnings.warn(
            "crop window reaches outside the source image; missing pixels are 0",
            CropBoundsWarning,
            stacklevel=2,
        )
    np.rint(values, out=values)
    np.clip(values, 0, 255, out=values)
    return GrayImage.from_array(values)
