"""Mirroring a recognized expression back onto the face.

The recognizer's vote count doubles as a confidence signal: it maps
linearly onto a single intensity that drives both the mechanical pose and
the mouth expression channel. With P classes the map is
(2 * votes - P + 1) / (P - 1), clamped to [0, 1], so a bare majority of
(P - 1) / 2 wins produces a neutral-intensity response and a sweep of all
P - 1 matches the full expression.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .diagnostics import VoteRangeWarning
from .dof import Pose, Trajectory
from .expressions import Expression, Mode, TemplateSet, hold_poses, pose_for, trajectory
from .lipsync import DEFAULT_FRAME_RATE, MouthFrames
from .multiclass import VoteResult
from .records import write_jsonl
from .visemes import VISEME_CLASS_COUNT


def vote_to_intensity(votes: int, class_count: int) -> float:
    """Map a winner's vote count to a shared expression intensity.

    Strictly increasing in the vote count before clamping. A count above
    the one-vs-one maximum of P - 1 raises a VoteRangeWarning and clamps.
    """
    if class_count < 2:
        raise ValueError(f"need at least 2 classes, got {class_count}")
    if votes < 0:
        raise ValueError(f"vote count must be nonnegative, got {votes}")
    if votes > class_count - 1:
        warnings.warn(
            f"vote count {votes} exceeds the one-vs-one maximum "
            f"{class_count - 1}; clamping",
            VoteRangeWarning,
            stacklevel=2,
        )
    intensity = (2.0 * votes - class_count + 1.0) / (class_count - 1.0)
    return min(1.0, max(0.0, intensity))


@dataclass(frozen=True)
class ImitationRecord:
    """One emitted command plus its trigger, for offline analysis."""

    timestamp: float
    winner: str
    votes: int
    intensity: float
    pose: Pose


class ImitationSession:
    """Debounced consumer of per-frame recognition results.

    Re-targets only after `debounce` consecutive identical winners, which
    keeps the face from chattering on noisy frame-by-frame classifications.
    Feed results in time order from a single thread.
    """

    def __init__(
        self,
        templates: TemplateSet,
        *,
        mode: Mode = Mode.AU_ANIMAL,
        debounce: int = 3,
        frame_rate: float = DEFAULT_FRAME_RATE,
        transition_duration: float = 1.5,
        hold_duration: float = 1.0,
    ):
        if debounce < 1:
            raise ValueError("debounce must be at least 1")
        self.templates = templates
        self.mode = mode
        self.debounce = debounce
        self.frame_rate = frame_rate
        self.transition_duration = transition_duration
        self.hold_duration = hold_duration
        self.current_pose = templates.neutral_pose
        self.current_expression: Expression | None = None
        self._streak_winner: str | None = None
        self._streak = 0
        self.records: list[ImitationRecord] = []

    def consume(
        self, result: VoteResult, timestamp: float
    ) -> tuple[Trajectory, MouthFrames] | None:
        """Feed one recognition result; returns the emitted motion, if any."""
        try:
            expression = Expression(result.winner)
        except ValueError:
            raise ValueError(f"unknown expression label {result.winner!r}") from None
        if result.winner == self._streak_winner:
            self._streak += 1
        else:
            self._streak_winner = result.winner
            self._streak = 1
        if self._streak < self.debounce:
            return None
        if expression is self.current_expression:
            return None
        intensity = vote_to_intensity(result.votes, len(result.class_names))
        frames, morphs = self._mirror(expression, intensity)
        end = frames.pose(-1)
        self.current_expression = expression
        self.current_pose = end if expression is not Expression.NEUTRAL else (
            self.templates.neutral_pose
        )
        self.records.append(
            ImitationRecord(
                timestamp=timestamp,
                winner=result.winner,
                votes=result.votes,
                intensity=intensity,
                pose=end,
            )
        )
        return frames, morphs

    def _mirror(
        self, expression: Expression, intensity: float
    ) -> tuple[Trajectory, MouthFrames]:
        """Pose trajectory and mouth frames of one command.

        One intensity drives both outputs. The mechanical axes sweep from
        `current_pose` to the template pose at `intensity` over
        `transition_duration`, then hold for `hold_duration` (with the ear
        wiggle running if the template uses it). Mouth frames are silent
        and carry the expression's channel at the same intensity on every
        frame, even at 0; a neutral winner produces a neutral pose and no
        channel.
        """
        template = self.templates.get(expression, self.mode)
        neutral = expression is Expression.NEUTRAL
        level = 0.0 if neutral else intensity
        rate = self.frame_rate
        sweep = trajectory(
            self.current_pose, pose_for(template, level), self.transition_duration, rate
        )
        t_hold = np.arange(1, int(self.hold_duration * rate) + 1) / rate
        frames = Trajectory(
            np.concatenate([sweep.times, self.transition_duration + t_hold]),
            np.concatenate([sweep.poses, hold_poses(template, level, t_hold)]),
        )
        count = len(frames)
        channels = {} if neutral else {expression.value: np.full(count, level)}
        return frames, MouthFrames(frames.times, np.zeros((count, VISEME_CLASS_COUNT)), channels)


def write_imitation_log(records: Iterable[ImitationRecord], path: str | Path) -> None:
    """Line-delimited JSON: timestamp, winner, votes, intensity, pose."""
    write_jsonl(path, (
        {"t": r.timestamp, "winner": r.winner, "votes": r.votes,
         "intensity": r.intensity, "pose": list(r.pose.values)}
        for r in records
    ))
