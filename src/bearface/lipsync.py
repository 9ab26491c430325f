"""Per-frame mouth morph weights from aligned transcripts.

Each phoneme segment spreads its viseme's influence over time with a
parabolic (Epanechnikov) kernel centred on the segment; at any instant the
overlapping kernel values are normalized to sum to one, so frames are
convex combinations of mouth shapes. Lips-closed phonemes get their
segments widened first so at least one rendered frame is a pure closure.
Expression offsets ride on top as independent additive channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .diagnostics import clamped
from .expressions import BASIC_EXPRESSIONS, Expression
from .records import csv_text, write_atomic, write_jsonl
from .visemes import PhonemeSegment, VisemeTable, VISEME_CLASS_COUNT

DEFAULT_FRAME_RATE = 85.0      # mouth display runs 80-90 fps; midpoint
DEFAULT_BANDWIDTH_SCALE = 1.0
DEFAULT_CLOSURE_MARGIN = 0.4   # fraction of the labial segment, per side


def epanechnikov(u: np.ndarray | float) -> np.ndarray | float:
    """0.75 * (1 - u^2) on |u| <= 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


class MouthFrame(NamedTuple):
    """One frame of a `MouthFrames`, for readers that go frame by frame."""

    timestamp: float
    visemes: np.ndarray
    expressions: dict[str, float]


@dataclass(frozen=True)
class MouthFrames:
    """Mouth animation frames as arrays.

    `times` is (T,). `visemes` is (T, classes), indexed by viseme class id;
    each row is nonnegative and sums to one whenever anything is active,
    and an all-zero row lies outside the utterance. `expressions` maps each
    expression channel the frames carry to its (T,) levels in [0, 1];
    channels it does not name are zero throughout.
    """

    times: np.ndarray
    visemes: np.ndarray
    expressions: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[MouthFrame]:
        levels = {name: column.tolist() for name, column in self.expressions.items()}
        for k, t in enumerate(self.times.tolist()):
            yield MouthFrame(t, self.visemes[k], {n: v[k] for n, v in levels.items()})

    def channel_table(self) -> np.ndarray:
        """(T, classes + 6): the viseme weights, then EXPRESSION_CHANNELS."""
        levels = [self.expressions.get(n, np.zeros(len(self))) for n in EXPRESSION_CHANNELS]
        return np.column_stack([self.visemes] + levels)


# ---------------------------------------------------------------------------
# Kernel smoothing
# ---------------------------------------------------------------------------


def class_weights_at(
    segments: Sequence[PhonemeSegment],
    times: Sequence[float] | np.ndarray,
    table: VisemeTable,
    bandwidth_scale: float = DEFAULT_BANDWIDTH_SCALE,
) -> np.ndarray:
    """Kernel-smoothed viseme weights at each time, shape (classes, len(times)).

    Each segment contributes 0.75*(1-u^2) to its viseme's class with
    u = (t - midpoint) / (bandwidth_scale * half_duration), clipped to its
    support; kernels of segments sharing a viseme accumulate, and each
    time's weights are then normalized to sum to one. Times outside the
    transcript's overall span are silent (all zero).
    """
    if not bandwidth_scale > 0:
        raise ValueError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
    times = np.asarray(times, dtype=float)
    weights = np.zeros((VISEME_CLASS_COUNT, len(times)))
    if not segments:
        return weights
    for segment in segments:
        half = 0.5 * segment.duration
        u = (times - segment.midpoint) / (bandwidth_scale * half)
        weights[table.class_id(segment.phoneme)] += epanechnikov(u)
    first = min(s.start for s in segments)
    last = max(s.end for s in segments)
    weights[:, (times < first) | (times > last)] = 0.0
    totals = weights.sum(axis=0)
    covered = totals > 0.0
    weights[:, covered] /= totals[covered]
    return weights


def force_labial_closure(
    segments: Sequence[PhonemeSegment],
    table: VisemeTable,
    margin: float = DEFAULT_CLOSURE_MARGIN,
) -> tuple[PhonemeSegment, ...]:
    """Widen lips-closed segments so their kernel can win outright.

    Each labial segment grows toward an adjacent segment by
    margin * its own duration, capped at half the neighbour's duration;
    a side with no neighbour is left alone. The result may overlap its
    neighbours, which the smoother handles by normalization. Transcripts
    without labials come back unchanged.
    """
    if margin < 0:
        raise ValueError("closure margin must be nonnegative")
    labial_ids = table.labial_ids()
    out = []
    for index, segment in enumerate(segments):
        if table.class_id(segment.phoneme) not in labial_ids:
            out.append(segment)
            continue
        grow = margin * segment.duration
        start, end = segment.start, segment.end
        if index > 0:
            start -= min(grow, 0.5 * segments[index - 1].duration)
        if index + 1 < len(segments):
            end += min(grow, 0.5 * segments[index + 1].duration)
        out.append(PhonemeSegment(segment.phoneme, start, end))
    return tuple(out)


def render_timeline(
    segments: Sequence[PhonemeSegment],
    expression_track: Sequence[tuple[float, Expression | str, float]],
    table: VisemeTable,
    frame_rate: float = DEFAULT_FRAME_RATE,
    bandwidth_scale: float = DEFAULT_BANDWIDTH_SCALE,
    closure_margin: float = DEFAULT_CLOSURE_MARGIN,
) -> MouthFrames:
    """Closure-forced, smoothed, expression-blended frames for an utterance.

    Frames are spaced 1/frame_rate apart starting at the first segment's
    start; floor(span * frame_rate) + 1 frames cover the utterance. The
    expression track is a step function of (time, expression, level)
    entries, each expression an `Expression` or its name; entries naming
    'neutral' clear the offset. Each basic expression is a unit direction
    in morph space, so an entry sets its level on its own channel; levels
    outside [0, 1] are clamped with a ClampWarning. Deterministic for
    identical inputs.
    """
    if frame_rate <= 0:
        raise ValueError("frame rate must be positive")
    track = sorted(
        ((time, Expression(name), level) for time, name, level in expression_track),
        key=lambda entry: entry[0],
    )
    if not segments:
        return MouthFrames(np.zeros(0), np.zeros((0, VISEME_CLASS_COUNT)), {})
    forced = force_labial_closure(segments, table, closure_margin)

    start = min(s.start for s in forced)
    span = max(s.end for s in forced) - start
    count = int(math.floor(span * frame_rate)) + 1
    times = start + np.arange(count) / frame_rate
    weights = class_weights_at(forced, times, table, bandwidth_scale)

    # Each frame takes the last entry before the first one later than it,
    # as a scan of the sorted track would; a NaN time never ends the scan.
    entry_times = np.array([time for time, _, _ in track], dtype=float)
    reached = np.maximum.accumulate(np.where(np.isnan(entry_times), -np.inf, entry_times))
    state = np.searchsorted(reached, times, side="right") - 1
    expressions: dict[str, np.ndarray] = {}
    for index, (_, expression, level) in enumerate(track):
        held = state == index
        if expression is Expression.NEUTRAL or not held.any():
            continue
        level = clamped(level, "blend level")
        expressions.setdefault(expression.value, np.zeros(count))[held] = level
    return MouthFrames(times, weights.T, expressions)


# ---------------------------------------------------------------------------
# Timeline output
# ---------------------------------------------------------------------------

EXPRESSION_CHANNELS: tuple[str, ...] = tuple(e.value for e in BASIC_EXPRESSIONS)


def timeline_columns(class_count: int = VISEME_CLASS_COUNT) -> list[str]:
    names = [f"viseme_{i:02d}" for i in range(class_count)]
    return ["t"] + names + list(EXPRESSION_CHANNELS)


def write_timeline_csv(frames: MouthFrames, path: str | Path) -> None:
    table = np.column_stack([frames.times, frames.channel_table()])
    write_atomic(path, csv_text(timeline_columns(frames.visemes.shape[1]), table))


def write_timeline_jsonl(frames: MouthFrames, path: str | Path) -> None:
    levels = sorted((name, column.tolist()) for name, column in frames.expressions.items())
    rows = zip(frames.times.tolist(), frames.visemes.tolist())
    write_jsonl(path, (
        {
            "t": t,
            "visemes": visemes,
            "expressions": {name: column[k] for name, column in levels if column[k] != 0.0},
        }
        for k, (t, visemes) in enumerate(rows)
    ))


def write_preview_pgms(frames: MouthFrames, directory: str | Path) -> list[Path]:
    """A 64-px-high graymap bar chart of each frame's channels, for eyeballing timelines."""
    from .imaging import GrayImage, pgm_bytes

    height, bar_width = 64, 5
    bars = np.rint(np.clip(frames.channel_table(), 0.0, 1.0) * (height - 1))
    rows = np.arange(height)[:, None]
    gap = np.arange(bar_width * bars.shape[1]) % bar_width == bar_width - 1
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"frame_{index:05d}.pgm" for index in range(len(frames))]
    for path, bar in zip(paths, bars):
        lit = np.repeat(rows >= height - bar, bar_width, axis=1) & ~gap
        write_atomic(path, pgm_bytes(GrayImage.from_array(lit * 255)))
    return paths
