"""Dataset-level feature extraction and the feature cache.

Ties the imaging pieces together: ingest a manifest, build the mean
reference shape from the dataset's landmarks, register and crop every
face, run the configured descriptors and keep everything in one cache
file. Per-image work is pure, so order never affects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .arraystore import read_store, write_store
from .diagnostics import progress
from .hog import hog
from .imaging import GrayImage, read_pnm
from .lbp import lbph
from .manifest import DatasetManifest, ingest_sequences
from .modelio import FeatureParams
from .records import check_finite
from .registration import LandmarkSet, mean_reference, read_landmarks, register_and_crop


@dataclass(frozen=True)
class FeatureSet:
    """Descriptor blocks of a labeled sample set, one per descriptor of `feature`
    and each finite; the class order is not stored, it comes from the labels."""

    blocks: Mapping[str, np.ndarray]   # name -> (n, d)
    labels: tuple[str, ...]
    subjects: tuple[str, ...]
    reference: LandmarkSet
    feature: FeatureParams
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, rows in self.blocks.items():
            for field, values in (("labels", self.labels), ("subjects", self.subjects)):
                if len(values) != len(rows):
                    raise ValueError(f"{field} has {len(values)} entries, expected one "
                                     f"per row of block {name!r} ({len(rows)})")
            check_finite(rows, f"values in block {name!r} row")

    def __len__(self) -> int:
        return len(self.labels)


def describe_image(
    image: GrayImage,
    landmarks: LandmarkSet,
    reference: LandmarkSet,
    feature: FeatureParams,
) -> dict[str, np.ndarray]:
    """Registered-crop descriptors of one face, keyed by block name."""
    crop = register_and_crop(image, landmarks, reference)
    grid = (feature.grid, feature.grid)
    out = {}
    if "lbph" in feature.descriptors:
        out["lbph"] = lbph(crop, grid)
    if "hog" in feature.descriptors:
        out["hog"] = hog(crop, grid, feature.hog_bins)
    return out


def describe_faces(
    faces: Sequence[tuple[Path, LandmarkSet]],
    reference: LandmarkSet,
    feature: FeatureParams,
) -> dict[str, np.ndarray]:
    """Descriptor blocks of faces given as (image path, landmarks) pairs.

    Row i of each block describes face i. Needs at least one face, on
    which the blocks are allocated, in `feature.descriptors` order.
    """
    blocks: dict[str, np.ndarray] = {}
    for index, (image_path, landmarks) in enumerate(faces):
        progress(f"describe {index + 1}/{len(faces)}: {image_path.name}")
        described = describe_image(read_pnm(image_path), landmarks, reference, feature)
        if not blocks:
            blocks = {name: np.empty((len(faces), described[name].size))
                      for name in feature.descriptors}
        for name, block in blocks.items():
            block[index] = described[name]
    return blocks


def extract_dataset(manifest: DatasetManifest, feature: FeatureParams) -> FeatureSet:
    """Extract descriptors for every ingested sample of a manifest.

    The registration reference is the mean landmark shape over the ingested
    samples, scaled into the crop frame; it is stored with the features so
    later stages (and trained models) reuse the identical mapping.
    """
    samples, diagnostics = ingest_sequences(manifest)
    if not samples:
        raise ValueError("manifest yields no usable samples")
    landmark_sets = [read_landmarks(sample.landmarks) for sample in samples]
    reference = mean_reference(landmark_sets)
    faces = [(sample.image, landmarks) for sample, landmarks in zip(samples, landmark_sets)]
    blocks = describe_faces(faces, reference, feature)
    return FeatureSet(
        blocks=blocks,
        labels=tuple(s.label for s in samples),
        subjects=tuple(s.subject for s in samples),
        reference=reference,
        feature=feature,
        diagnostics=tuple(diagnostics),
    )


def save_features(features: FeatureSet, path: str | Path) -> None:
    entries: dict[str, object] = {
        "kind": "features",
        "labels": " ".join(features.labels),
        # subjects may contain spaces; tabs separate them
        "subjects": "\t".join(features.subjects),
        "reference": features.reference.points,
        **features.feature.entries(),
        "diagnostic_count": len(features.diagnostics),
    }
    for index, note in enumerate(features.diagnostics):
        entries[f"diagnostic{index}"] = note
    for name in sorted(features.blocks):
        entries[f"block_{name}"] = np.asarray(features.blocks[name], dtype=np.float64)
    write_store(entries, path)


def load_features(path: str | Path) -> FeatureSet:
    entries = read_store(path)
    if entries.get("kind") != "features":
        raise ValueError(f"{path} is not a feature cache")
    feature = FeatureParams.from_entries(entries)
    return entries.build(
        FeatureSet,
        blocks={
            name: entries.typed(f"block_{name}", np.ndarray)
            for name in sorted(feature.descriptors)
        },
        labels=tuple(entries.typed("labels", str).split()),
        subjects=tuple(entries.typed("subjects", str).split("\t")),
        reference=entries.build(LandmarkSet, entries.typed("reference", np.ndarray)),
        feature=feature,
        diagnostics=tuple(
            entries.typed(f"diagnostic{i}", str)
            for i in range(entries.typed("diagnostic_count", int))
        ),
    )
