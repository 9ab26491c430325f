"""Expression templates and pose synthesis for the mechanical face.

Each of the six basic expressions (plus an explicit neutral) exists in two
flavours: a plain facial-action mode driving only the muscles the coding
system prescribes, and an animal mode that adds ear and forehead gestures.
`EXPRESSION_DOFS` is the one statement of the axes each pair may move; a
template stores the neutral and full-intensity poses, and synthesis
interpolates between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .diagnostics import clamped
from .dof import ALL_DOFS, Dof, Pose, Trajectory, dof_label, lerp, parse_dof
from .records import boolean, content_lines, located, packaged_text, place, typed


class Expression(str, Enum):
    ANGER = "anger"
    SURPRISE = "surprise"
    DISGUST = "disgust"
    FEAR = "fear"
    JOY = "joy"
    SADNESS = "sadness"
    NEUTRAL = "neutral"


#: Report/row ordering used by every confusion matrix and report: the
#: declaration order of `Expression`.
CLASS_ORDER: tuple[Expression, ...] = tuple(Expression)

BASIC_EXPRESSIONS: tuple[Expression, ...] = tuple(
    e for e in CLASS_ORDER if e is not Expression.NEUTRAL
)


class Mode(str, Enum):
    AU = "au"
    AU_ANIMAL = "au-animal"


# Mechanical axes each (expression, mode) pair may move. The mouth display
# is engaged for every expression except neutral and is driven separately,
# through the expression's channel of the mouth frames. Joy moves no
# mechanical axis in plain mode; in animal mode its ears wiggle continuously
# instead of holding a target.
_AU = {
    Expression.JOY: frozenset(),
    Expression.SADNESS: frozenset({Dof.BROW_L, Dof.BROW_R, Dof.LID_L, Dof.LID_R}),
    Expression.FEAR: frozenset({Dof.BROW_L, Dof.BROW_R, Dof.LID_L, Dof.LID_R}),
    Expression.DISGUST: frozenset({Dof.FOREHEAD}),
    Expression.ANGER: frozenset({Dof.BROW_L, Dof.BROW_R, Dof.LID_L, Dof.LID_R}),
    Expression.SURPRISE: frozenset({Dof.BROW_L, Dof.BROW_R, Dof.LID_L, Dof.LID_R}),
    Expression.NEUTRAL: frozenset(),
}
_ANIMAL_EXTRA = {
    Expression.JOY: frozenset({Dof.EAR_L, Dof.EAR_R}),
    Expression.SADNESS: frozenset({Dof.FOREHEAD, Dof.EAR_L, Dof.EAR_R}),
    Expression.FEAR: frozenset({Dof.FOREHEAD, Dof.EAR_L, Dof.EAR_R}),
    Expression.DISGUST: frozenset({Dof.EAR_L, Dof.EAR_R}),
    Expression.ANGER: frozenset({Dof.EAR_L, Dof.EAR_R}),
    # Surprise additionally recoils the neck.
    Expression.SURPRISE: frozenset(
        {Dof.FOREHEAD, Dof.EAR_L, Dof.EAR_R, Dof.NECK_PITCH}
    ),
    Expression.NEUTRAL: frozenset(),
}

EXPRESSION_DOFS: dict[tuple[Expression, Mode], frozenset[Dof]] = {}
for _expr in Expression:
    EXPRESSION_DOFS[(_expr, Mode.AU)] = _AU[_expr]
    EXPRESSION_DOFS[(_expr, Mode.AU_ANIMAL)] = _AU[_expr] | _ANIMAL_EXTRA[_expr]


@dataclass(frozen=True)
class ExpressionTemplate:
    """Neutral and full-intensity poses for one (expression, mode) pair.

    The axes it may move are its `EXPRESSION_DOFS` entry; every other axis
    must peak at its neutral value (so a neutral template moves nothing).
    """

    expression: Expression
    mode: Mode
    neutral_pose: Pose
    max_pose: Pose
    uses_ear_oscillation: bool = False

    @property
    def active_dofs(self) -> frozenset[Dof]:
        return EXPRESSION_DOFS[(self.expression, self.mode)]

    def __post_init__(self) -> None:
        for dof in ALL_DOFS:
            if dof not in self.active_dofs and self.max_pose[dof] != self.neutral_pose[dof]:
                raise ValueError(
                    f"{self.expression.value}/{self.mode.value}: inactive axis "
                    f"{dof_label(dof)} moves in the peak pose"
                )


def pose_for(template: ExpressionTemplate, intensity: float) -> Pose:
    """Pose of the template at a given intensity.

    Every axis interpolates linearly (`dof.lerp`) between its neutral and
    peak values, so an axis the expression does not move, whose peak is its
    neutral value, holds that value exactly. Intensity 0 reproduces the
    neutral pose exactly and intensity 1 the peak pose exactly. Values
    outside [0, 1] are clamped with a ClampWarning.
    """
    intensity = clamped(intensity, "intensity")
    neutral, peak = np.array(template.neutral_pose.values), np.array(template.max_pose.values)
    return Pose(tuple(lerp(neutral, peak, intensity).tolist()))


def ear_oscillation(intensity: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ear drive levels of the continuous joy wiggle at each time.

    Returns per-ear interpolation factors in [0, intensity]: 0 is the ear's
    neutral position and `intensity` its intensity-scaled peak. The ears run
    in antiphase (their factors always sum to `intensity`) so they move in
    reverse directions, and the period shrinks linearly with intensity:
    1.5 s at the low end down to 0.5 s at full intensity. The left ear
    starts at neutral at t = 0. Each cosine is `math.cos` of one time.

    Intensity 0 disables the motion entirely; one outside [0, 1], NaN
    included, is clamped with a ClampWarning.
    """
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("time must be non-negative")
    intensity = clamped(intensity, "oscillation intensity")
    if intensity == 0.0:
        return np.zeros_like(times), np.zeros_like(times)
    period = 1.5 - intensity
    phase = 2.0 * math.pi * times / period
    cosine = np.array([math.cos(angle) for angle in phase.ravel().tolist()]).reshape(times.shape)
    left = 0.5 * intensity * (1.0 - cosine)
    return left, intensity - left


def hold_poses(
    template: ExpressionTemplate, intensity: float, times: np.ndarray
) -> np.ndarray:
    """Template pose held at each time, shape (len(times), 10): the `pose_for`
    values, with the ears moving through `ear_oscillation` if the template wiggles."""
    pose = pose_for(template, intensity)
    poses = np.tile(np.array(pose.values), (len(times), 1))
    if template.uses_ear_oscillation and intensity > 0.0:
        neutral, peak = template.neutral_pose, template.max_pose
        for dof, factor in zip((Dof.EAR_L, Dof.EAR_R), ear_oscillation(intensity, times)):
            poses[:, int(dof) - 1] = lerp(neutral[dof], peak[dof], factor)
    return poses


def trajectory(
    start: Pose, end: Pose, duration: float = 1.5, frame_rate: float = 85.0
) -> Trajectory:
    """Timed linear sweep from one pose to another.

    Emits floor(duration * frame_rate) + 1 frames evenly spanning
    [0, duration] at u = k / (count - 1); the first frame is `start` and
    the last is `end`, bit-exact. At least two frames are always produced.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if frame_rate <= 0:
        raise ValueError("frame rate must be positive")
    count = max(2, int(math.floor(duration * frame_rate)) + 1)
    u = np.arange(count) / (count - 1)
    poses = lerp(np.array(start.values), np.array(end.values), u[:, None])
    return Trajectory(u * duration, poses)


# ---------------------------------------------------------------------------
# Template files
# ---------------------------------------------------------------------------

class TemplateSet:
    """All fourteen (expression, mode) templates plus the shared neutral pose."""

    def __init__(self, neutral_pose: Pose, templates: dict[tuple[Expression, Mode], ExpressionTemplate]):
        for expr in Expression:
            for mode in Mode:
                if (expr, mode) not in templates:
                    raise ValueError(
                        f"missing template for {expr.value}/{mode.value}"
                    )
        self.neutral_pose = neutral_pose
        self._templates = dict(templates)

    def get(self, expression: Expression, mode: Mode) -> ExpressionTemplate:
        return self._templates[(expression, mode)]

def _section(name: str) -> tuple[Expression, Mode]:
    expression, _, mode = name.partition(" ")
    try:
        return Expression(expression), Mode(mode)
    except ValueError:
        raise ValueError(f"bad template section name [{name}]") from None


def parse_templates(text: str, origin: str | None = None) -> TemplateSet:
    """Parse the template file format; errors name `origin:line`.

    After the `bearface-templates 1` header, each line is a `[<section>]`
    header or a `key = value` line of the section above it. `[neutral]`
    lists all ten axes; each `[<expression> <mode>]` section gives the
    peak values of exactly the axes `EXPRESSION_DOFS` lets it move (an
    extra axis is reported at its line, a missing one at the header) and
    an optional `ear_oscillation = true` flag. Sections and keys may not
    repeat; the neutral ones need no section.
    """
    # Per section: its header's place, its values, and each key's place.
    sections: dict[str, tuple[str, dict[Dof | str, float | bool], dict[Dof | str, str]]] = {}
    values = places = None
    for number, line in content_lines(text, "templates", origin):
        where = place(origin, number)
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            name = " ".join(line[1:-1].split())
            if name in sections:
                raise ValueError(f"{where}: duplicate section [{name}]")
            values, places = {}, {}
            sections[name] = (where, values, places)
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{where}: expected '[section]' or 'key = value'")
        if values is None:
            raise ValueError(f"{where}: {key!r} is outside any section")
        if key == "ear_oscillation":
            slot, parsed = key, typed(boolean, key, value, where)
        else:
            with located(where):
                slot = parse_dof(key)
            parsed = typed(float, key, value, where)
            if not 0.0 <= parsed <= 1.0:
                raise ValueError(f"{where}: {slot.name} value {parsed} outside [0, 1]")
        if slot in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        values[slot] = parsed
        places[slot] = where

    file = origin or "template text"
    if "neutral" not in sections:
        raise ValueError(f"{file}: no [neutral] section")
    templates: dict[tuple[Expression, Mode], ExpressionTemplate] = {}
    where, values, _ = sections.pop("neutral")
    with located(where):
        if "ear_oscillation" in values:
            raise ValueError("[neutral] takes axis values only")
        neutral_pose = Pose.from_mapping(values)
    for name, (where, values, places) in sections.items():
        with located(where):
            expression, mode = _section(name)
        oscillate = values.pop("ear_oscillation", False)
        moved = EXPRESSION_DOFS[(expression, mode)]
        table = sorted(dof_label(d) for d in moved)
        # An axis too many is the fault of its own line; one too few is
        # the section's, named at its header.
        for dof in values:
            if dof not in moved:
                raise ValueError(
                    f"{places[dof]}: {expression.value}/{mode.value}: {dof_label(dof)} "
                    f"is not an axis this expression moves {table}"
                )
        if set(values) != moved:
            raise ValueError(
                f"{where}: {expression.value}/{mode.value}: active axes "
                f"{sorted(dof_label(d) for d in values)} do not match the expression "
                f"table {table}"
            )
        templates[(expression, mode)] = ExpressionTemplate(
            expression, mode, neutral_pose, neutral_pose.replace(values), oscillate
        )

    # Neutral templates are implicit: peak equals neutral in both modes.
    for mode in Mode:
        templates.setdefault(
            (Expression.NEUTRAL, mode),
            ExpressionTemplate(Expression.NEUTRAL, mode, neutral_pose, neutral_pose),
        )
    with located(file):
        return TemplateSet(neutral_pose, templates)


def load_templates(path: str | Path | None = None) -> TemplateSet:
    """Load templates from a file, or the packaged defaults when no path."""
    if path is None:
        return parse_templates(packaged_text("expression_templates.txt"))
    return parse_templates(Path(path).read_text(encoding="utf-8"), str(path))
