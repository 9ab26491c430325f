"""Dataset manifests and the sequence frame-sampling rule.

A manifest is a tab-separated text file pairing each image with its
landmark file, label, subject, sequence and frame index. Sequence
ingestion follows the standard peak-frame protocol: the first frame of
every sequence is a neutral sample, the last three frames carry the
sequence's expression, and sequences shorter than four frames are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .records import content_lines, place, typed

NEUTRAL_LABEL = "neutral"


@dataclass(frozen=True)
class ManifestEntry:
    image: Path
    landmarks: Path
    label: str
    subject: str
    sequence: str
    frame: int


@dataclass(frozen=True)
class DatasetManifest:
    class_names: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]


def parse_manifest(
    text: str, root: Path, check_files: bool = True, origin: str | None = None
) -> DatasetManifest:
    """The manifest in `text`, paths relative to `root`; errors name `origin:line`."""
    class_names: tuple[str, ...] | None = None
    entries = []
    for number, line in content_lines(text, "manifest", origin):
        where = place(origin, number)
        if class_names is None:
            key, _, value = line.partition("=")
            class_names = tuple(value.split())
            if key.strip() != "classes" or not class_names:
                raise ValueError(f"{where}: manifest must declare 'classes = ...' first")
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ValueError(f"{where}: expected 6 tab-separated fields, got {len(fields)}")
        image_path, landmark_path, label, subject, sequence, frame = fields
        if label not in class_names:
            raise ValueError(f"{where}: label {label!r} not in declared classes")
        entry = ManifestEntry(
            image=root / image_path,
            landmarks=root / landmark_path,
            label=label,
            subject=subject,
            sequence=sequence,
            frame=typed(int, "frame", frame, where),
        )
        if check_files:
            for path in (entry.image, entry.landmarks):
                if not path.is_file():
                    raise FileNotFoundError(f"{where}: missing file {path}")
        entries.append(entry)
    if class_names is None:
        raise ValueError(f"{origin or 'manifest'}: no 'classes = ...' line")
    return DatasetManifest(class_names=class_names, entries=tuple(entries))


def read_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    return parse_manifest(path.read_text(encoding="utf-8"), path.parent, origin=str(path))


def training_labels(manifest: DatasetManifest) -> list[str]:
    """Per entry, the label sequence ingestion trains it under.

    The first frame of each (subject, sequence) is a neutral sample; every
    other entry keeps its own label.
    """
    first: dict[tuple[str, str], int] = {}
    for entry in manifest.entries:
        key = (entry.subject, entry.sequence)
        first[key] = min(entry.frame, first.get(key, entry.frame))
    return [
        NEUTRAL_LABEL if entry.frame == first[(entry.subject, entry.sequence)]
        else entry.label
        for entry in manifest.entries
    ]


def ingest_sequences(
    manifest: DatasetManifest,
) -> tuple[list[ManifestEntry], list[str]]:
    """Apply the peak-frame sampling rule to every sequence.

    Per sequence (grouped by subject and sequence id, ordered by frame
    index): the first frame becomes a neutral sample and the last three
    frames become samples of the sequence's expression (the label of its
    final entry). Sequences with fewer than four frames are skipped and
    reported in the diagnostics list.
    """
    if NEUTRAL_LABEL not in manifest.class_names:
        raise ValueError(
            f"manifest classes must include {NEUTRAL_LABEL!r} for sequence sampling"
        )
    groups: dict[tuple[str, str], list[ManifestEntry]] = {}
    for entry in manifest.entries:
        groups.setdefault((entry.subject, entry.sequence), []).append(entry)

    samples: list[ManifestEntry] = []
    diagnostics: list[str] = []
    for key in sorted(groups):
        frames = sorted(groups[key], key=lambda e: e.frame)
        if len(frames) < 4:
            diagnostics.append(
                f"sequence {key[0]}/{key[1]}: only {len(frames)} frames, skipped"
            )
            continue
        label = frames[-1].label
        picks = [(frames[0], NEUTRAL_LABEL)] + [(f, label) for f in frames[-3:]]
        samples += [replace(entry, label=assigned) for entry, assigned in picks]
    return samples, diagnostics
