"""Shared fixtures: default tables/templates and a synthetic image dataset."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from bearface.expressions import CLASS_ORDER, Expression, load_templates
from bearface.imaging import GrayImage, write_pgm
from bearface.registration import LANDMARK_COUNT, LandmarkSet, write_landmarks
from bearface.visemes import load_viseme_table

# `pytest --hypothesis-profile=ci` runs every property with more examples.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def viseme_table():
    return load_viseme_table()


@pytest.fixture(scope="session")
def templates():
    return load_templates()


def base_landmark_layout(size: int) -> np.ndarray:
    """68 points on a 4x17 grid spanning most of a size x size image."""
    xs = np.linspace(8, size - 9, 17)
    ys = np.linspace(10, size - 11, 4)
    points = [(x, y) for y in ys for x in xs]
    return np.asarray(points[:LANDMARK_COUNT], dtype=float)


def class_pattern(
    size: int, class_index: int, strength: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-class sinusoidal grating plus noise; strength 0 is the shared base."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    fx = 1 + class_index % 4
    fy = 1 + class_index // 4
    wave = np.sin(2 * np.pi * (fx * xx + fy * yy) / size)
    image = 128 + strength * 90 * wave + rng.normal(0, 4, (size, size))
    return np.clip(np.round(image), 0, 255).astype(np.uint8)


def build_synthetic_dataset(
    root: Path,
    sequences_per_class: int = 2,
    frames: int = 4,
    size: int = 64,
    seed: int = 7,
) -> Path:
    """Write PGMs, landmark files and a manifest; returns the manifest path.

    Every basic expression gets `sequences_per_class` sequences of `frames`
    frames; frame 0 of each sequence is the featureless base pattern (the
    neutral sample under peak-frame ingestion).
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    base = base_landmark_layout(size)
    classes = [e.value for e in CLASS_ORDER]
    basic = [c for c in classes if c != Expression.NEUTRAL.value]
    rows = []
    for class_index, label in enumerate(basic):
        for seq in range(sequences_per_class):
            subject = f"s{(class_index * sequences_per_class + seq) % 4:02d}"
            sequence = f"{label}{seq}"
            for frame in range(frames):
                strength = frame / (frames - 1)
                stem = f"{label}_{seq}_{frame}"
                image = class_pattern(size, class_index, strength, rng)
                write_pgm(GrayImage(image), root / f"{stem}.pgm")
                jitter = rng.normal(0, 0.4, base.shape)
                write_landmarks(LandmarkSet(base + jitter), root / f"{stem}.pts")
                rows.append(
                    "\t".join(
                        (
                            f"{stem}.pgm",
                            f"{stem}.pts",
                            label,
                            subject,
                            sequence,
                            str(frame),
                        )
                    )
                )
    text = "bearface-manifest 1\n" + "classes = " + " ".join(classes) + "\n"
    text += "\n".join(rows) + "\n"
    manifest_path = root / "dataset.manifest"
    manifest_path.write_text(text, encoding="utf-8")
    return manifest_path


@pytest.fixture(scope="session")
def synthetic_dataset(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("dataset")
    return build_synthetic_dataset(root)
