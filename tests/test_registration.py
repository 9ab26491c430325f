"""Image I/O, similarity fitting and the registered crop."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bearface import registration
from bearface.diagnostics import CropBoundsWarning
from bearface.imaging import GrayImage, read_pnm, write_pgm
from bearface.registration import (
    CROP_SIZE,
    DegenerateLandmarksError,
    LANDMARK_COUNT,
    LandmarkSet,
    SimilarityTransform,
    fit_similarity,
    mean_reference,
    read_landmarks,
    register_and_crop,
    write_landmarks,
)


def _spread_landmarks(size: float = 127.0, offset: float = 0.0) -> LandmarkSet:
    rng = np.random.default_rng(11)
    points = rng.uniform(0, size, (LANDMARK_COUNT, 2)) + offset
    points[0] = (0 + offset, 0 + offset)
    points[1] = (size + offset, size + offset)  # pin the bounding box
    return LandmarkSet(points)


def _complex(points: np.ndarray) -> np.ndarray:
    return points[:, 0] + 1j * points[:, 1]


def reference_sample(pixels: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The float64 fancy-indexing sampler `_bilinear_sample` must reproduce."""
    height, width = pixels.shape
    eps = 1e-9
    inside = (x >= -eps) & (x <= width - 1 + eps) & (y >= -eps) & (y <= height - 1 + eps)
    xs = np.clip(x, 0, width - 1)
    ys = np.clip(y, 0, height - 1)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = xs - x0
    fy = ys - y0
    img = pixels.astype(np.float64)
    value = (
        img[y0, x0] * (1 - fx) * (1 - fy)
        + img[y0, x1] * fx * (1 - fy)
        + img[y1, x0] * (1 - fx) * fy
        + img[y1, x1] * fx * fy
    )
    value = np.where(inside, value, 0.0)
    return value, bool((~inside).any())


def reference_grid(landmarks: LandmarkSet, reference: LandmarkSet, size: int = CROP_SIZE):
    """Source coordinates of the crop, through a (size, size, 2) meshgrid."""
    transform = fit_similarity(landmarks, reference)
    low = reference.points.min(axis=0)
    high = reference.points.max(axis=0)
    grid = np.arange(size)
    ref_x = low[0] + grid * (high[0] - low[0]) / (size - 1)
    ref_y = low[1] + grid * (high[1] - low[1]) / (size - 1)
    ref_points = np.stack(np.meshgrid(ref_x, ref_y), axis=-1)
    # The arithmetic of SimilarityTransform.apply_complex, inlined so that
    # the reference shares no code with the grid under test.
    inverse = transform.inverse()
    w = (ref_points[..., 0] + 1j * ref_points[..., 1]) * inverse._complex()
    w = w + complex(*inverse.translation)
    return w.real, w.imag


def reference_register_and_crop(image: GrayImage, landmarks: LandmarkSet, reference: LandmarkSet):
    """The crop `register_and_crop` must reproduce, and whether it warns."""
    x, y = reference_grid(landmarks, reference)
    values, clipped = reference_sample(image.pixels, x, y)
    return GrayImage.from_array(np.clip(np.round(values), 0, 255)), clipped


def _posed(reference: LandmarkSet, centre, scale: float, angle: float) -> LandmarkSet:
    """Reference landmarks scaled, rotated and moved to `centre`."""
    z = (reference.points[:, 0] - 63.5) + 1j * (reference.points[:, 1] - 63.5)
    w = z * scale * complex(math.cos(angle), math.sin(angle)) + complex(*centre)
    return LandmarkSet(np.column_stack([w.real, w.imag]))


# Window centres on a 200 x 200 source: a crop of extent about 63 px around
# the centre stays inside, or hangs over one edge, or over all four.
CROP_PLACEMENTS = {
    "inside": ((100.0, 100.0), 0.9, 0.1),
    "top": ((100.0, 40.0), 0.9, 0.1),
    "bottom": ((100.0, 165.0), 0.9, -0.2),
    "left": ((35.0, 100.0), 0.9, 0.3),
    "right": ((170.0, 100.0), 0.9, -0.05),
    "all-edges": ((100.0, 100.0), 2.0, 0.7),
}


@pytest.mark.parametrize("name", sorted(CROP_PLACEMENTS))
def test_crop_matches_meshgrid_reference(monkeypatch, name):
    rng = np.random.default_rng(13)
    image = GrayImage(rng.integers(0, 256, (200, 200), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    source = _posed(reference, *CROP_PLACEMENTS[name])
    # The sampler overwrites its coordinates, so the spy keeps copies.
    seen = []
    sample = registration._bilinear_sample
    monkeypatch.setattr(
        registration,
        "_bilinear_sample",
        lambda p, x, y: seen.append((x.copy(), y.copy())) or sample(p, x, y),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crop = register_and_crop(image, source, reference)
    expected, clipped = reference_register_and_crop(image, source, reference)
    assert np.array_equal(crop.pixels, expected.pixels)
    assert [w.category for w in caught] == ([CropBoundsWarning] if clipped else [])
    assert clipped == (name != "inside")
    # The sampling grid itself is bit for bit that of meshgrid + apply_complex.
    (x, y), = seen
    expected_x, expected_y = reference_grid(source, reference)
    assert np.array_equal(x.view(np.int64), expected_x.view(np.int64))
    assert np.array_equal(y.view(np.int64), expected_y.view(np.int64))


@pytest.mark.parametrize("seed", range(6))
def test_sampler_matches_reference(seed):
    rng = np.random.default_rng(seed)
    height, width = rng.integers(8, 160, 2)
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    # Coordinates inside, on the last row and column, and beyond every edge.
    x = rng.uniform(-4, width + 3, (40, 50))
    y = rng.uniform(-4, height + 3, (40, 50))
    x[0] = width - 1
    y[:, 0] = height - 1
    x[1] = np.round(x[1])
    for xs, ys in [(x, y), (np.clip(x, 0, width - 1), np.clip(y, 0, height - 1))]:
        value, clipped = registration._bilinear_sample(pixels, xs.copy(), ys.copy())
        expected, expected_clipped = reference_sample(pixels, xs, ys)
        assert np.array_equal(value.view(np.int64), expected.view(np.int64))
        assert clipped == expected_clipped


def test_crop_outside_source_matches_reference(monkeypatch):
    rng = np.random.default_rng(12)
    image = GrayImage(rng.integers(0, 256, (90, 110), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    # Scaled up and shifted so the crop window hangs over the top-left edge.
    source = LandmarkSet(reference.points * 1.1 - np.array([25.0, 20.0]))
    with pytest.warns(CropBoundsWarning):
        crop = register_and_crop(image, source, reference)
    monkeypatch.setattr(registration, "_bilinear_sample", reference_sample)
    with pytest.warns(CropBoundsWarning):
        expected = register_and_crop(image, source, reference)
    assert (crop.pixels == 0).any()
    assert np.array_equal(crop.pixels, expected.pixels)


def _with_corner(reference: LandmarkSet, corner: float) -> LandmarkSet:
    """`reference` with its top-left bounding-box corner moved to (corner, corner)."""
    points = reference.points.copy()
    points[0] = (corner, corner)  # point 0 pins the low corner of the box
    return LandmarkSet(points)


def test_crops_stay_exact_across_grid_cache_hits_and_misses():
    rng = np.random.default_rng(15)
    image = GrayImage(rng.integers(0, 256, (200, 200), dtype=np.uint8))
    spread = _spread_landmarks(size=CROP_SIZE - 1)
    # +0.0 and -0.0 corners make one cache key, and give one grid: each
    # corner coordinate enters the grid as low + 0.0 first, which is +0.0.
    plus, minus = _with_corner(spread, 0.0), _with_corner(spread, -0.0)
    assert math.copysign(1.0, minus.points.min(axis=0)[0]) == -1.0
    other = LandmarkSet(spread.points * 0.8 + 10.0)
    registration._crop_grid.cache_clear()
    for reference in (plus, other, minus, other, plus, minus):
        for name in ("inside", "all-edges"):
            source = _posed(reference, *CROP_PLACEMENTS[name])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                crop = register_and_crop(image, source, reference)
            expected, clipped = reference_register_and_crop(image, source, reference)
            assert np.array_equal(crop.pixels, expected.pixels)
            assert [w.category for w in caught] == ([CropBoundsWarning] if clipped else [])
            assert clipped == (name != "inside")
    info = registration._crop_grid.cache_info()
    assert (info.misses, info.hits) == (2, 10)


def test_cached_grid_is_read_only_and_crops_do_not_share_it():
    rng = np.random.default_rng(16)
    image = GrayImage(rng.integers(0, 256, (200, 200), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    low = reference.points.min(axis=0)
    high = reference.points.max(axis=0)
    grid = registration._crop_grid(*low.tolist(), *high.tolist())
    assert not grid.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 0.0
    first = register_and_crop(image, _posed(reference, *CROP_PLACEMENTS["inside"]), reference)
    with pytest.warns(CropBoundsWarning):
        second = register_and_crop(image, _posed(reference, *CROP_PLACEMENTS["left"]), reference)
    assert registration._crop_grid(*low.tolist(), *high.tolist()) is grid
    assert not np.shares_memory(first.pixels, grid)
    assert not np.shares_memory(first.pixels, second.pixels)


def _crop_peak(image: GrayImage, source: LandmarkSet, reference: LandmarkSet) -> int:
    """Bytes the crop allocates at peak, traced after a warm-up crop.

    A deterministic stand-in for page faults: what the crop allocates at
    peak is what the C heap must find, or fault in, for every face.
    """
    register_and_crop(image, source, reference)  # warm-up: builds the cached grid
    tracemalloc.start()
    try:
        register_and_crop(image, source, reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_interior_crop_allocates_at_most_1_2_mib():
    rng = np.random.default_rng(17)
    image = GrayImage(rng.integers(0, 256, (CROP_SIZE, CROP_SIZE), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    source = _posed(reference, (63.5, 63.5), 0.9, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CropBoundsWarning)
        assert _crop_peak(image, source, reference) <= 1.2 * 2**20


def test_clipped_crop_allocates_at_most_1_2_mib():
    # A 128-px crop that hangs over the top-left corner of a 160-px source:
    # the bounds mask and the clips work in the sampler's own coordinates.
    rng = np.random.default_rng(18)
    image = GrayImage(rng.integers(0, 256, (160, 160), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    source = _posed(reference, (30.0, 40.0), 1.0, 0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        peak = _crop_peak(image, source, reference)
    assert [w.category for w in caught] == [CropBoundsWarning] * 2
    assert peak <= 1.2 * 2**20


def _sample(pixels, x, y):
    """`_bilinear_sample` of copies of the coordinates, which it overwrites."""
    return registration._bilinear_sample(pixels, x.copy(), y.copy())


def _assert_matches_reference(pixels, x, y, clipped: bool):
    value, flag = _sample(pixels, x, y)
    expected, expected_flag = reference_sample(pixels, x, y)
    assert flag == expected_flag == clipped
    assert np.array_equal(value.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("shape", [(2, 2), (3, 7), (128, 128), (90, 110)])
def test_interior_sampler_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    height, width = shape
    pixels = rng.integers(0, 256, shape, dtype=np.uint8)
    # Strictly inside, down to the last representable step off each edge.
    x = rng.uniform(0, width - 1, (30, 40))
    y = rng.uniform(0, height - 1, (30, 40))
    x[0, :4] = [np.nextafter(0, 1), np.nextafter(width - 1, 0), 0.5, width - 1.5]
    y[1, :4] = [np.nextafter(0, 1), np.nextafter(height - 1, 0), 0.5, height - 1.5]
    x = np.clip(x, np.nextafter(0, 1), np.nextafter(width - 1, 0))
    y = np.clip(y, np.nextafter(0, 1), np.nextafter(height - 1, 0))
    _assert_matches_reference(pixels, x, y, clipped=False)


EDGE_COORDINATES = {
    # On an edge, within eps outside of one, or beyond.
    "x-at-0": (0.0, None, False),
    "x-at-last-column": ("last", None, False),
    "y-at-0": (None, 0.0, False),
    "y-at-last-row": (None, "last", False),
    "x-within-eps-before-0": (-1e-10, None, False),
    "y-within-eps-after-last-row": (None, "last+", False),
    "x-outside": (-0.5, None, True),
    "y-outside": (None, "last+1", True),
    "x-infinite": (np.inf, None, True),
    "y-minus-infinite": (None, -np.inf, True),
}


@pytest.mark.parametrize("name", sorted(EDGE_COORDINATES))
def test_edge_coordinates_match_reference(name):
    rng = np.random.default_rng(21)
    height, width = 40, 50
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    x = rng.uniform(1, width - 2, (12, 16))
    y = rng.uniform(1, height - 2, (12, 16))
    at_x, at_y, outside = EDGE_COORDINATES[name]
    for grid, at, last in ((x, at_x, width - 1), (y, at_y, height - 1)):
        if at is not None:
            grid[3, 5] = {"last": last, "last+": last + 1e-10, "last+1": last + 1.0}.get(at, at)
    _assert_matches_reference(pixels, x, y, clipped=outside)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2), (40, 50)])
def test_last_pixel_reads_the_padding_as_nothing(shape):
    # At exactly (W - 1, H - 1), within eps past it, or on the last row or
    # column, the corners past the edge are the zero padding, or the next
    # row's first pixel, with a fraction of exactly 0: the sample is the
    # pixel itself, or its blend along the edge, bit for bit.
    rng = np.random.default_rng(23)
    height, width = shape
    pixels = rng.integers(1, 256, shape, dtype=np.uint8)
    last_x, last_y = width - 1.0, height - 1.0
    x = np.array([[last_x, last_x + 1e-10, last_x, max(last_x - 0.25, 0.0)]])
    y = np.array([[last_y, last_y, last_y + 1e-10, last_y]])
    value, clipped = _sample(pixels, x, y)
    assert not clipped
    assert value[0, 0] == value[0, 1] == value[0, 2] == pixels[-1, -1]
    _assert_matches_reference(pixels, x, y, clipped=False)


def test_nan_coordinate_reads_zero_as_outside():
    # A NaN used to reach the integer cast (INT_MIN) and end in IndexError.
    rng = np.random.default_rng(22)
    pixels = rng.integers(1, 256, (10, 10), dtype=np.uint8)
    x = rng.uniform(1, 8, (4, 5))
    y = rng.uniform(1, 8, (4, 5))
    x[1, 2] = np.nan
    y[3, 0] = np.nan
    value, clipped = _sample(pixels, x, y)
    assert clipped
    assert value[1, 2] == value[3, 0] == 0.0
    tame = np.isfinite(x) & np.isfinite(y)
    expected, _ = reference_sample(pixels, np.where(tame, x, 4.0), np.where(tame, y, 4.0))
    assert np.array_equal(value[tame].view(np.int64), expected[tame].view(np.int64))


def test_crop_on_the_source_edges_matches_reference():
    # Landmarks equal to the reference: the crop grid spans the whole
    # 128 x 128 source, edges included, up to rounding.
    rng = np.random.default_rng(14)
    image = GrayImage(rng.integers(0, 256, (CROP_SIZE, CROP_SIZE), dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    x, y = reference_grid(reference, reference)
    assert x.min() <= 0 and y.min() <= 0 and x.max() == y.max() == CROP_SIZE - 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        crop = register_and_crop(image, reference, reference)
    expected, clipped = reference_register_and_crop(image, reference, reference)
    assert caught == [] and not clipped
    assert np.array_equal(crop.pixels, expected.pixels)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    image = GrayImage(rng.integers(0, 256, (17, 23), dtype=np.uint8))
    path = tmp_path / "x.pgm"
    write_pgm(image, path)
    loaded = read_pnm(path)
    assert np.array_equal(loaded.pixels, image.pixels)


def test_pgm_comments_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    image = read_pnm(path)
    assert image.pixels.tolist() == [[0, 1], [2, 3]]
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P4\n2 2\n255\n\x00\x01\x02\x03")
    with pytest.raises(ValueError, match="magic"):
        read_pnm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_pnm(short)


def test_ppm_luma(tmp_path):
    path = tmp_path / "c.ppm"
    # one pure-red and one pure-green pixel
    path.write_bytes(b"P6\n2 1\n255\n\xff\x00\x00\x00\xff\x00")
    image = read_pnm(path)
    assert image.pixels[0, 0] == round(0.299 * 255)
    assert image.pixels[0, 1] == round(0.587 * 255)


def test_pnm_samples_scale_from_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 3 1 15\n\x0f\x07\x00")
    assert read_pnm(path).pixels.tolist() == [[255, 119, 0]]  # rint(7 * 255 / 15)
    for maxval in (1, 2, 3, 100, 254):
        path.write_bytes(b"P5 %d 1 %d\n" % (maxval + 1, maxval) + bytes(range(maxval + 1)))
        expected = [round(v * 255 / maxval) for v in range(maxval + 1)]
        assert read_pnm(path).pixels[0].tolist() == expected
    # A pixmap's samples are scaled before the luma weights.
    ppm = tmp_path / "m.ppm"
    ppm.write_bytes(b"P6 2 1 1\n\x01\x00\x00\x00\x01\x00")
    assert read_pnm(ppm).pixels.tolist() == [[round(0.299 * 255), round(0.587 * 255)]]


def test_pnm_sample_above_maxval_is_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5 2 1 15\n\x0f\xc8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample 200 above maxval 15")):
        read_pnm(path)
    ppm = tmp_path / "over.ppm"
    ppm.write_bytes(b"P6 1 1 100\n\x00\x65\x00")
    with pytest.raises(ValueError, match=re.escape(f"{ppm}: sample 101 above maxval 100")):
        read_pnm(ppm)


def test_landmark_file_round_trip(tmp_path):
    landmarks = _spread_landmarks()
    path = tmp_path / "face.pts"
    write_landmarks(landmarks, path)
    loaded = read_landmarks(path)
    assert np.allclose(loaded.points, landmarks.points, atol=1e-5)
    path.write_text("0 0\n1 1\n")
    with pytest.raises(ValueError, match="68"):
        read_landmarks(path)


def reference_read_landmarks(path):
    """Every landmark file through the records path, which names places."""
    text = path.read_text(encoding="utf-8")
    fields = (("x", float), ("y", float))
    rows = registration.parse_records(text, fields, str(path))
    if len(rows) != LANDMARK_COUNT:
        raise ValueError(f"{path}: expected {LANDMARK_COUNT} landmarks, got {len(rows)}")
    points = np.array([record for _, record in rows])
    try:
        return LandmarkSet(points)
    except ValueError:
        row, column = np.argwhere(~(np.abs(points) <= registration.COORDINATE_LIMIT))[0]
        value = float(points[row, column])
        rule = "at most 1e+09 in magnitude" if math.isfinite(value) else "finite"
        raise ValueError(
            f"{path}:{rows[row][0]}: {'xy'[column]} must be {rule}, got {value!r}"
        ) from None


def _landmark_outcome(read, path):
    try:
        return read(path).points.tobytes(), None
    except ValueError as error:
        return None, str(error)


def _landmark_texts():
    rng = np.random.default_rng(12)
    lines = [f"{x!r} {y!r}" for x, y in rng.uniform(-5.0, 130.0, (LANDMARK_COUNT, 2)).tolist()]
    lines[3] = "1e2 -0.0"
    lines[4] = "  7   8.5  "
    plain = "\n".join(lines) + "\n"
    yield "plain", plain
    yield "no final newline", plain.rstrip("\n")
    yield "crlf", plain.replace("\n", "\r\n")
    yield "tabs", plain.replace(" ", "\t")
    yield "comment", "# face 7\n" + plain
    yield "trailing comment", plain.replace("\n", " # point\n", 1)
    yield "blank line", plain.replace("\n", "\n\n", 1)
    yield "blank lines only at the end", plain + "\n   \n"
    yield "third field", plain.replace(lines[10], lines[10] + " 3.0")
    yield "one field", plain.replace(lines[10], "4.5")
    yield "missing line", plain.replace(lines[10] + "\n", "")
    yield "extra line", plain + "1 2\n"
    yield "not a number", plain.replace(lines[20], "1.5 abc")
    for bad in ("nan", "-inf", "1e300", "-1e300", "1000000000.0001"):
        yield bad, plain.replace(lines[30], f"2.0 {bad}")
        yield bad + " with a comment", "# x\n" + plain.replace(lines[30], f"{bad} 2.0")
    yield "underscore digits", plain.replace(lines[40], "1_000 2")
    yield "empty", ""


@pytest.mark.parametrize("name, text", list(_landmark_texts()))
def test_landmark_reader_matches_the_records_path(tmp_path, name, text):
    path = tmp_path / "face.pts"
    path.write_bytes(text.encode("utf-8"))
    assert _landmark_outcome(read_landmarks, path) == _landmark_outcome(reference_read_landmarks, path)


def test_landmark_coordinates_are_bounded():
    limit = registration.COORDINATE_LIMIT
    points = _spread_landmarks().points.copy()
    points[5, 1] = -limit
    LandmarkSet(points.copy())  # the limit itself is allowed
    points[5, 1] = np.nextafter(-limit, -np.inf)
    with pytest.raises(ValueError, match=r"^landmark coordinates must be at most 1e\+09 in magnitude$"):
        LandmarkSet(points)


def test_fit_identity():
    landmarks = _spread_landmarks()
    transform = fit_similarity(landmarks, landmarks)
    assert transform.scale == pytest.approx(1.0, abs=1e-9)
    assert transform.rotation == pytest.approx(0.0, abs=1e-9)
    assert transform.translation[0] == pytest.approx(0.0, abs=1e-7)
    assert transform.translation[1] == pytest.approx(0.0, abs=1e-7)


def test_fit_recovers_rotation():
    reference = _spread_landmarks()
    angle = math.radians(30.0)
    rot = np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    source = LandmarkSet(reference.points @ rot.T)
    transform = fit_similarity(source, reference)
    assert transform.rotation == pytest.approx(-angle, abs=1e-6)
    assert transform.scale == pytest.approx(1.0, abs=1e-9)
    aligned = transform.apply_complex(_complex(source.points))
    assert np.allclose(aligned, _complex(reference.points), atol=1e-6)


def test_fit_recovers_scale_and_shift():
    reference = _spread_landmarks()
    source = LandmarkSet(reference.points * 2.0 + np.array([10.0, 5.0]))
    transform = fit_similarity(source, reference)
    assert transform.scale == pytest.approx(0.5, abs=1e-9)
    aligned = transform.apply_complex(_complex(source.points))
    assert np.allclose(aligned, _complex(reference.points), atol=1e-6)


def test_fit_translation_equivariance():
    reference = _spread_landmarks()
    base = fit_similarity(reference, reference)
    shifted = LandmarkSet(reference.points + np.array([3.0, -7.0]))
    moved = fit_similarity(shifted, reference)
    assert moved.scale == pytest.approx(base.scale, abs=1e-9)
    assert moved.rotation == pytest.approx(base.rotation, abs=1e-9)
    assert moved.translation[0] == pytest.approx(-3.0, abs=1e-6)
    assert moved.translation[1] == pytest.approx(7.0, abs=1e-6)


def test_fit_rejects_degenerate_source():
    reference = _spread_landmarks()
    flat = LandmarkSet(np.full((LANDMARK_COUNT, 2), 4.2))
    with pytest.raises(DegenerateLandmarksError):
        fit_similarity(flat, reference)


def test_transform_inverse_round_trip():
    transform = SimilarityTransform(scale=1.7, rotation=0.3, translation=(4.0, -2.0))
    points = np.array([1.0 + 2.0j, -3.0 + 0.5j])
    back = transform.inverse().apply_complex(transform.apply_complex(points))
    assert np.allclose(back, points, atol=1e-12)


def test_register_and_crop_idempotent():
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, (CROP_SIZE, CROP_SIZE), dtype=np.uint8)
    image = GrayImage(pixels)
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    out = register_and_crop(image, reference, reference)
    assert out.pixels.shape == (CROP_SIZE, CROP_SIZE)
    diff = np.abs(out.pixels.astype(int) - pixels.astype(int)).mean()
    assert diff < 2.0


def test_register_and_crop_output_size_and_constants():
    image = GrayImage(np.full((300, 200), 77, dtype=np.uint8))
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    # A geometrically related source: scaled down and shifted into the frame.
    source = LandmarkSet(reference.points * 0.6 + np.array([30.0, 40.0]))
    out = register_and_crop(image, source, reference)
    assert out.pixels.shape == (CROP_SIZE, CROP_SIZE)
    assert np.all(out.pixels == 77)  # warping preserves constants


def test_register_and_crop_out_of_bounds_warns():
    image = GrayImage(np.full((40, 40), 200, dtype=np.uint8))
    rng = np.random.default_rng(6)
    source = LandmarkSet(rng.uniform(0, 39, (LANDMARK_COUNT, 2)) + 30)
    reference = _spread_landmarks(size=CROP_SIZE - 1)
    with pytest.warns(CropBoundsWarning):
        out = register_and_crop(image, source, reference)
    assert (out.pixels == 0).any()


def test_mean_reference_fits_frame():
    rng = np.random.default_rng(9)
    sets = [
        LandmarkSet(rng.uniform(0, 300, (LANDMARK_COUNT, 2))) for _ in range(5)
    ]
    reference = mean_reference(sets)
    low = reference.points.min(axis=0)
    high = reference.points.max(axis=0)
    assert (low >= -1e-9).all()
    assert (high <= CROP_SIZE - 1 + 1e-9).all()
    assert max(high - low) == pytest.approx(CROP_SIZE - 1)
