"""Viseme classes, the phoneme lookup table and aligned transcripts.

A viseme groups phonemes that look alike on the lips. The engine works
with exactly 20 classes; class membership comes from a replaceable table
file so other languages or groupings can be dropped in. Transcripts are
time-aligned phoneme segments, one per line, as produced by a forced
aligner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import check_duration
from .records import boolean, located, packaged_text, parse_records, place

VISEME_CLASS_COUNT = 20


class UnknownPhonemeError(KeyError):
    """A phoneme does not appear in the active viseme table."""

    def __init__(self, phoneme: str):
        super().__init__(phoneme)
        self.phoneme = phoneme

    def __str__(self) -> str:
        return f"phoneme {self.phoneme!r} is not in the viseme table"


@dataclass(frozen=True)
class VisemeClass:
    """One mouth-shape class: id, member phonemes, lips-closed flag."""

    id: int
    phonemes: frozenset[str]
    labial: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.id < VISEME_CLASS_COUNT):
            raise ValueError(f"viseme class id {self.id} outside 0..19")
        if not self.phonemes:
            raise ValueError(f"viseme class {self.id} has no member phonemes")


class VisemeTable:
    """Complete 20-class partition of the supported phoneme inventory."""

    def __init__(self, classes: Sequence[VisemeClass]):
        if len(classes) != VISEME_CLASS_COUNT:
            raise ValueError(
                f"viseme table needs exactly {VISEME_CLASS_COUNT} classes, "
                f"got {len(classes)}"
            )
        by_id = {c.id: c for c in classes}
        if sorted(by_id) != list(range(VISEME_CLASS_COUNT)):
            raise ValueError("viseme class ids must cover 0..19 exactly once")
        owner: dict[str, int] = {}
        for cls in classes:
            for phoneme in cls.phonemes:
                if phoneme in owner:
                    raise ValueError(
                        f"phoneme {phoneme!r} appears in classes "
                        f"{owner[phoneme]} and {cls.id}"
                    )
                owner[phoneme] = cls.id
        for labial_phoneme in ("b", "p", "m"):
            cls_id = owner.get(labial_phoneme)
            if cls_id is None or not by_id[cls_id].labial:
                raise ValueError(
                    f"phoneme {labial_phoneme!r} must belong to a labial class"
                )
        self.classes: tuple[VisemeClass, ...] = tuple(
            by_id[i] for i in range(VISEME_CLASS_COUNT)
        )
        self._owner = owner

    def class_id(self, phoneme: str) -> int:
        try:
            return self._owner[phoneme]
        except KeyError:
            raise UnknownPhonemeError(phoneme) from None

    def labial_ids(self) -> frozenset[int]:
        return frozenset(c.id for c in self.classes if c.labial)


_TABLE_FIELDS = (("id", int), ("labial", boolean), ("phonemes", frozenset))


def parse_viseme_table(text: str, origin: str | None = None) -> VisemeTable:
    """Parse a table file: 'id labial_flag phoneme...' per line.

    Errors in a line name `origin:line` (`line N` without an origin).
    """
    classes = []
    for number, (class_id, labial, phonemes) in parse_records(
        text, _TABLE_FIELDS, origin, kind="visemes", rest=True
    ):
        with located(place(origin, number)):
            classes.append(VisemeClass(id=class_id, labial=labial, phonemes=phonemes))
    return VisemeTable(classes)


def load_viseme_table(path: str | Path | None = None) -> VisemeTable:
    """Load a table file, or the packaged English default when no path."""
    if path is None:
        return parse_viseme_table(packaged_text("visemes_en20.txt"))
    return parse_viseme_table(Path(path).read_text(encoding="utf-8"), str(path))


# ---------------------------------------------------------------------------
# Aligned transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhonemeSegment:
    """One aligned phoneme: symbol plus start/end time in seconds."""

    phoneme: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.phoneme:
            raise ValueError("segment phoneme symbol is empty")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(
                f"segment {self.phoneme!r}: times must be finite, got "
                f"{self.start} and {self.end}"
            )
        if not (self.start < self.end):
            raise ValueError(
                f"segment {self.phoneme!r}: start {self.start} must precede "
                f"end {self.end}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


def validate_transcript(segments: Sequence[PhonemeSegment]) -> None:
    """Reject unordered or overlapping segment lists."""
    for previous, current in zip(segments, segments[1:]):
        if current.start < previous.end:
            raise ValueError(
                f"segments {previous.phoneme!r} and {current.phoneme!r} overlap "
                f"or are out of order at t={current.start}"
            )


_TRANSCRIPT_FIELDS = (("start", float), ("end", float), ("phoneme", str))


def parse_transcript(text: str, origin: str | None = None) -> tuple[PhonemeSegment, ...]:
    """Parse 'start end phoneme' lines into a validated transcript.

    Times must be finite, and the span from the first start to the last end
    follows the duration rule of `config.check_duration`, since a rendered
    timeline holds a frame per 1/frame_rate of it. Errors in a line name
    `origin:line` (`line N` without an origin).
    """
    segments = []
    for number, (start, end, phoneme) in parse_records(text, _TRANSCRIPT_FIELDS, origin):
        with located(place(origin, number)):
            segments.append(PhonemeSegment(phoneme=phoneme, start=start, end=end))
            check_duration("transcript span", end - segments[0].start)
    transcript = tuple(segments)
    validate_transcript(transcript)
    return transcript


def read_transcript(path: str | Path) -> tuple[PhonemeSegment, ...]:
    return parse_transcript(Path(path).read_text(encoding="utf-8"), str(path))


def bundled_transcript() -> tuple[PhonemeSegment, ...]:
    """The transcript shipped with the package (demo material for the CLI)."""
    return parse_transcript(packaged_text("demo.align"))

