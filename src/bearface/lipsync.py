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
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .diagnostics import ClampWarning
from .expressions import BASIC_EXPRESSIONS, Expression
from .records import write_atomic, write_jsonl
from .visemes import PhonemeSegment, VisemeTable, VISEME_CLASS_COUNT

DEFAULT_FRAME_RATE = 85.0      # mouth display runs 80-90 fps; midpoint
DEFAULT_BANDWIDTH_SCALE = 1.0
DEFAULT_CLOSURE_MARGIN = 0.4   # fraction of the labial segment, per side


def epanechnikov(u: np.ndarray | float) -> np.ndarray | float:
    """0.75 * (1 - u^2) on |u| <= 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@dataclass(frozen=True)
class MorphWeights:
    """One animation frame: viseme weights plus expression offsets.

    `visemes` is indexed by viseme class id. Weights are nonnegative and
    sum to one whenever anything is active; an all-zero vector means the
    frame lies outside the utterance. Expression offsets are additive
    channels in [0, 1], keyed by expression name.
    """

    timestamp: float
    visemes: np.ndarray
    expressions: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vector = np.asarray(self.visemes, dtype=float)
        vector.setflags(write=False)
        object.__setattr__(self, "visemes", vector)

    @property
    def active(self) -> bool:
        return bool(self.visemes.sum() > 0.0)


def silence_frame(
    timestamp: float = 0.0, class_count: int = VISEME_CLASS_COUNT
) -> MorphWeights:
    return MorphWeights(timestamp, np.zeros(class_count))


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


def blend_expression(
    frame: MorphWeights, expression: Expression, level: float
) -> MorphWeights:
    """Set one expression offset channel on a frame.

    Viseme weights pass through untouched; each basic expression is a unit
    direction in morph space, so blending reduces to storing the level on
    the channel named `expression.value`. Neutral is the resting mouth and
    has no channel. Levels outside [0, 1] are clamped with a ClampWarning.
    """
    if expression is Expression.NEUTRAL:
        raise ValueError("neutral is the resting mouth, not an expression channel")
    if not (0.0 <= level <= 1.0):
        warnings.warn(
            f"blend level {level} clamped to [0, 1]", ClampWarning, stacklevel=2
        )
        level = min(1.0, max(0.0, level))
    offsets = dict(frame.expressions)
    offsets[expression.value] = level
    return MorphWeights(frame.timestamp, frame.visemes, offsets)


ExpressionTrack = Sequence[tuple[float, Expression | str, float]]


def _track_state(track: ExpressionTrack, t: float) -> tuple[Expression, float] | None:
    """Latest (expression, level) entry at or before t, if any."""
    state = None
    for time, name, level in track:
        if time > t:
            break
        state = (name, level)
    return state


def render_timeline(
    segments: Sequence[PhonemeSegment],
    expression_track: ExpressionTrack,
    table: VisemeTable,
    frame_rate: float = DEFAULT_FRAME_RATE,
    bandwidth_scale: float = DEFAULT_BANDWIDTH_SCALE,
    closure_margin: float = DEFAULT_CLOSURE_MARGIN,
) -> list[MorphWeights]:
    """Closure-forced, smoothed, expression-blended frames for an utterance.

    Frames are spaced 1/frame_rate apart starting at the first segment's
    start; floor(span * frame_rate) + 1 frames cover the utterance. The
    expression track is a step function of (time, expression, level)
    entries, each expression an `Expression` or its name; entries naming
    'neutral' clear the offset. Deterministic for identical inputs.
    """
    if frame_rate <= 0:
        raise ValueError("frame rate must be positive")
    track = sorted(
        ((time, Expression(name), level) for time, name, level in expression_track),
        key=lambda entry: entry[0],
    )
    if not segments:
        return []
    forced = force_labial_closure(segments, table, closure_margin)

    start = min(s.start for s in forced)
    span = max(s.end for s in forced) - start
    count = int(math.floor(span * frame_rate)) + 1
    times = start + np.arange(count) / frame_rate
    weights = class_weights_at(forced, times, table, bandwidth_scale)

    frames = []
    for column, t in zip(weights.T, times):
        frame = MorphWeights(float(t), column)
        state = _track_state(track, t)
        if state is not None and state[0] is not Expression.NEUTRAL:
            frame = blend_expression(frame, *state)
        frames.append(frame)
    return frames


# ---------------------------------------------------------------------------
# Timeline output
# ---------------------------------------------------------------------------

EXPRESSION_CHANNELS: tuple[str, ...] = tuple(e.value for e in BASIC_EXPRESSIONS)


def timeline_columns(class_count: int = VISEME_CLASS_COUNT) -> list[str]:
    names = [f"viseme_{i:02d}" for i in range(class_count)]
    return ["t"] + names + list(EXPRESSION_CHANNELS)


def _frame_row(frame: MorphWeights) -> list[float]:
    row = [frame.timestamp]
    row.extend(float(v) for v in frame.visemes)
    row.extend(float(frame.expressions.get(name, 0.0)) for name in EXPRESSION_CHANNELS)
    return row


def write_timeline_csv(frames: Sequence[MorphWeights], path: str | Path) -> None:
    class_count = len(frames[0].visemes) if frames else VISEME_CLASS_COUNT
    lines = [",".join(timeline_columns(class_count))]
    for frame in frames:
        lines.append(",".join(f"{value:.9g}" for value in _frame_row(frame)))
    write_atomic(path, "\n".join(lines) + "\n")


def write_timeline_jsonl(frames: Sequence[MorphWeights], path: str | Path) -> None:
    write_jsonl(path, (
        {
            "t": frame.timestamp,
            "visemes": [float(v) for v in frame.visemes],
            "expressions": {
                name: float(level)
                for name, level in sorted(frame.expressions.items())
                if level != 0.0
            },
        }
        for frame in frames
    ))


def frame_preview(frame: MorphWeights, height: int = 64, bar_width: int = 5) -> np.ndarray:
    """Grayscale bar chart of one frame's channels (rows x cols, uint8)."""
    values = _frame_row(frame)[1:]
    width = bar_width * len(values)
    image = np.zeros((height, width), dtype=np.uint8)
    for index, value in enumerate(values):
        bar = int(round(min(max(value, 0.0), 1.0) * (height - 1)))
        if bar > 0:
            left = index * bar_width
            image[height - bar :, left : left + bar_width - 1] = 255
    return image


def write_preview_pgms(
    frames: Sequence[MorphWeights], directory: str | Path, height: int = 64
) -> list[Path]:
    """One portable-graymap bar chart per frame, for eyeballing timelines."""
    from .imaging import GrayImage, write_pgm

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, frame in enumerate(frames):
        path = directory / f"frame_{index:05d}.pgm"
        write_pgm(GrayImage.from_array(frame_preview(frame, height)), path)
        paths.append(path)
    return paths
