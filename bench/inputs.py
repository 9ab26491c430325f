"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the run's seed:
synthetic 128-px faces with 68 landmarks, aligned transcripts and vote
files. The face generator has the shape of the test-suite generator: a
4x17 landmark grid, a per-class sinusoidal grating whose strength rises
over a four-frame sequence, and Gaussian pixel noise. Frame 0 of every
sequence is the featureless base pattern (the neutral sample under
peak-frame ingestion).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bearface.expressions import CLASS_ORDER, Expression
from bearface.imaging import GrayImage, write_pgm
from bearface.registration import LANDMARK_COUNT, LandmarkSet, write_landmarks

FACE_SIZE = 128
FRAMES_PER_SEQUENCE = 4
CLASS_NAMES = tuple(e.value for e in CLASS_ORDER)
BASIC_CLASSES = tuple(c for c in CLASS_NAMES if c != Expression.NEUTRAL.value)
NEUTRAL = Expression.NEUTRAL.value

# Phonemes for generated transcripts: the pool of the acceptance test for
# viseme smoothing, which covers silence, the labial class and vowels.
PHONEME_POOL = ("m", "a", "b", "i", "t", "s", "p", "u", "k", "sil")


@dataclass(frozen=True)
class Face:
    """One decoded face with its landmarks and the label training gives it."""

    image: GrayImage
    landmarks: LandmarkSet
    label: str        # label after ingestion: frame 0 is neutral
    raw_label: str    # the sequence's expression, as a manifest lists it
    sequence: int
    frame: int
    subject: str

    @property
    def stem(self) -> str:
        return f"{self.raw_label}_{self.sequence}_{self.frame}"


def landmark_layout(size: int = FACE_SIZE) -> np.ndarray:
    """68 points on a 4x17 grid spanning most of a size x size image."""
    xs = np.linspace(8, size - 9, 17)
    ys = np.linspace(10, size - 11, 4)
    points = [(x, y) for y in ys for x in xs]
    return np.asarray(points[:LANDMARK_COUNT], dtype=float)


def _grating(size: int, class_index: int, strength: float, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    fx = 1 + class_index % 4
    fy = 1 + class_index // 4
    wave = np.sin(2 * np.pi * (fx * xx + fy * yy) / size)
    image = 128 + strength * 90 * wave + rng.normal(0, 4, (size, size))
    return np.clip(np.round(image), 0, 255).astype(np.uint8)


def make_faces(seed: int, sequences_per_class: int) -> list[Face]:
    """Four-frame sequences for every basic expression, in a fixed order."""
    rng = np.random.default_rng(seed)
    base = landmark_layout()
    faces = []
    for class_index, label in enumerate(BASIC_CLASSES):
        for seq in range(sequences_per_class):
            subject = f"s{(class_index * sequences_per_class + seq) % 4:02d}"
            for frame in range(FRAMES_PER_SEQUENCE):
                strength = frame / (FRAMES_PER_SEQUENCE - 1)
                image = GrayImage(_grating(FACE_SIZE, class_index, strength, rng))
                landmarks = LandmarkSet(base + rng.normal(0, 0.4, base.shape))
                faces.append(
                    Face(
                        image=image,
                        landmarks=landmarks,
                        label=NEUTRAL if frame == 0 else label,
                        raw_label=label,
                        sequence=seq,
                        frame=frame,
                        subject=subject,
                    )
                )
    return faces


def write_dataset(faces: list[Face], root: Path, tick) -> Path:
    """PGMs, landmark files and a manifest listing every face; returns it.

    `tick` runs after every face.
    """
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for face in faces:
        write_pgm(face.image, root / f"{face.stem}.pgm")
        write_landmarks(face.landmarks, root / f"{face.stem}.pts")
        tick()
        rows.append(
            "\t".join(
                (
                    f"{face.stem}.pgm",
                    f"{face.stem}.pts",
                    face.raw_label,
                    face.subject,
                    f"{face.raw_label}{face.sequence}",
                    str(face.frame),
                )
            )
        )
    text = "bearface-manifest 1\nclasses = " + " ".join(CLASS_NAMES) + "\n"
    path = root / "dataset.manifest"
    path.write_text(text + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def make_transcript(seed: int, segments: int) -> list[tuple[float, float, str]]:
    """Back-to-back (start, end, phoneme) segments of 15-350 ms."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0, 0.05))
    out = []
    for _ in range(segments):
        phoneme = PHONEME_POOL[int(rng.integers(len(PHONEME_POOL)))]
        duration = float(rng.uniform(0.015, 0.35))
        out.append((t, t + duration, phoneme))
        t += duration
    return out


def write_transcript(segments: list[tuple[float, float, str]], path: Path) -> None:
    # repr keeps every digit, so the benchmark and the program read the
    # same floats.
    lines = [f"{start!r} {end!r} {phoneme}" for start, end, phoneme in segments]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_votes(seed: int, runs: int, run_length: int) -> list[tuple[float, str, int]]:
    """Per-frame (time, winner, votes) results in runs of one winner.

    Consecutive runs always change the winner; votes are drawn from the
    one-vs-one range 0..P-1 so each run starts a new expression.
    """
    rng = np.random.default_rng(seed)
    P = len(CLASS_NAMES)
    out = []
    previous = None
    frame = 0
    for _ in range(runs):
        choices = [c for c in CLASS_NAMES if c != previous]
        winner = choices[int(rng.integers(len(choices)))]
        for _ in range(run_length):
            out.append((frame / 10.0, winner, int(rng.integers(0, P))))
            frame += 1
        previous = winner
    return out


def write_votes(votes: list[tuple[float, str, int]], path: Path) -> None:
    lines = [f"{t!r} {winner} {count}" for t, winner, count in votes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
