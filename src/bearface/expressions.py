"""Expression templates and pose synthesis for the mechanical face.

Each of the six basic expressions (plus an explicit neutral) exists in two
flavours: a plain facial-action mode driving only the muscles the coding
system prescribes, and an animal mode that adds ear and forehead gestures.
A template stores the neutral pose, the full-intensity pose and the set of
axes the expression is allowed to move; synthesis interpolates between the
two poses.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from .diagnostics import ClampWarning
from .dof import ALL_DOFS, Dof, Pose, dof_label, lerp_pose, parse_dof
from .records import check_header, packaged_text


class Expression(str, Enum):
    ANGER = "anger"
    SURPRISE = "surprise"
    DISGUST = "disgust"
    FEAR = "fear"
    JOY = "joy"
    SADNESS = "sadness"
    NEUTRAL = "neutral"


#: Report/row ordering used by every confusion matrix and report.
CLASS_ORDER: tuple[Expression, ...] = (
    Expression.ANGER,
    Expression.SURPRISE,
    Expression.DISGUST,
    Expression.FEAR,
    Expression.JOY,
    Expression.SADNESS,
    Expression.NEUTRAL,
)

BASIC_EXPRESSIONS: tuple[Expression, ...] = tuple(
    e for e in CLASS_ORDER if e is not Expression.NEUTRAL
)


class Mode(str, Enum):
    AU = "au"
    AU_ANIMAL = "au-animal"


class TargetKind(str, Enum):
    VISEME = "viseme"
    EXPRESSION = "expression"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class MorphTargetRef:
    """Reference to a named extreme deformation of the mouth display."""

    name: str
    kind: TargetKind


#: The single resting-mouth target; all morph weights are offsets from it.
NEUTRAL_TARGET = MorphTargetRef("neutral", TargetKind.NEUTRAL)


def expression_target(expression: Expression) -> MorphTargetRef:
    if expression is Expression.NEUTRAL:
        return NEUTRAL_TARGET
    return MorphTargetRef(expression.value, TargetKind.EXPRESSION)


def viseme_target(class_id: int) -> MorphTargetRef:
    return MorphTargetRef(f"viseme_{class_id:02d}", TargetKind.VISEME)


# Mechanical axes each (expression, mode) pair may move. The mouth display
# is engaged for every expression and is tracked separately through the
# template's morph target. Joy moves no mechanical axis in plain mode; in
# animal mode its ears wiggle continuously instead of holding a target.
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
    """Neutral and full-intensity poses for one (expression, mode) pair."""

    expression: Expression
    mode: Mode
    neutral_pose: Pose
    max_pose: Pose
    active_dofs: frozenset[Dof]
    lcd_morph_max: MorphTargetRef = field(default=NEUTRAL_TARGET)
    uses_ear_oscillation: bool = False

    def __post_init__(self) -> None:
        expected = EXPRESSION_DOFS[(self.expression, self.mode)]
        if self.active_dofs != expected:
            got = sorted(dof_label(d) for d in self.active_dofs)
            want = sorted(dof_label(d) for d in expected)
            raise ValueError(
                f"{self.expression.value}/{self.mode.value}: active axes {got} "
                f"do not match the expression table {want}"
            )
        for dof in ALL_DOFS:
            if dof not in self.active_dofs:
                if self.max_pose[dof] != self.neutral_pose[dof]:
                    raise ValueError(
                        f"{self.expression.value}/{self.mode.value}: inactive axis "
                        f"{dof_label(dof)} moves in the peak pose"
                    )
        if self.expression is Expression.NEUTRAL:
            if self.max_pose != self.neutral_pose:
                raise ValueError("neutral template must not move any axis")


def pose_for(template: ExpressionTemplate, intensity: float) -> Pose:
    """Pose of the template at a given intensity.

    Active axes interpolate linearly between the neutral and peak values;
    every other axis holds its neutral value. Intensity 0 reproduces the
    neutral pose exactly and intensity 1 the peak pose exactly. Values
    outside [0, 1] are clamped with a ClampWarning.
    """
    if not (0.0 <= intensity <= 1.0):
        warnings.warn(
            f"intensity {intensity} clamped to [0, 1]", ClampWarning, stacklevel=2
        )
        intensity = min(1.0, max(0.0, intensity))
    values = []
    for dof in ALL_DOFS:
        base = template.neutral_pose[dof]
        if dof in template.active_dofs:
            peak = template.max_pose[dof]
            values.append((1.0 - intensity) * base + intensity * peak)
        else:
            values.append(base)
    return Pose(tuple(values))


def ear_oscillation(intensity: float, t: float) -> tuple[float, float]:
    """Instantaneous ear drive levels for the continuous joy wiggle.

    Returns per-ear interpolation factors in [0, intensity]: 0 is the ear's
    neutral position and `intensity` its intensity-scaled peak. The ears run
    in antiphase (their factors always sum to `intensity`) so they move in
    reverse directions, and the period shrinks linearly with intensity:
    1.5 s at the low end down to 0.5 s at full intensity. The left ear
    starts at neutral at t = 0.

    Intensity 0 disables the motion entirely.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    if intensity < 0.0 or intensity > 1.0:
        warnings.warn(
            f"oscillation intensity {intensity} clamped to [0, 1]",
            ClampWarning,
            stacklevel=2,
        )
        intensity = min(1.0, max(0.0, intensity))
    if intensity == 0.0:
        return (0.0, 0.0)
    period = 1.5 - intensity
    phase = 2.0 * math.pi * t / period
    left = 0.5 * intensity * (1.0 - math.cos(phase))
    right = intensity - left
    return (left, right)


def oscillating_pose(
    template: ExpressionTemplate, intensity: float, t: float
) -> Pose:
    """Template pose with the ear wiggle applied at time t.

    Falls back to the static pose when the template does not use the
    oscillation.
    """
    pose = pose_for(template, intensity)
    if not template.uses_ear_oscillation or intensity <= 0.0:
        return pose
    left, right = ear_oscillation(intensity, t)
    updates = {}
    for dof, factor in ((Dof.EAR_L, left), (Dof.EAR_R, right)):
        base = template.neutral_pose[dof]
        peak = template.max_pose[dof]
        updates[dof] = (1.0 - factor) * base + factor * peak
    return pose.replace(updates)


def trajectory(
    start: Pose, end: Pose, duration: float = 1.5, frame_rate: float = 85.0
) -> list[tuple[float, Pose]]:
    """Timed linear sweep from one pose to another.

    Emits floor(duration * frame_rate) + 1 frames evenly spanning
    [0, duration]; the first frame is `start` and the last is `end`,
    bit-exact. At least two frames are always produced.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if frame_rate <= 0:
        raise ValueError("frame rate must be positive")
    count = max(2, int(math.floor(duration * frame_rate)) + 1)
    frames = []
    for k in range(count):
        u = k / (count - 1)
        frames.append((u * duration, lerp_pose(start, end, u)))
    return frames


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

    def __iter__(self) -> Iterable[ExpressionTemplate]:
        return iter(self._templates.values())

    def __len__(self) -> int:
        return len(self._templates)


def _build_template(
    expression: Expression,
    mode: Mode,
    neutral_pose: Pose,
    peaks: dict[Dof, float],
    ear_oscillation_flag: bool,
) -> ExpressionTemplate:
    max_pose = neutral_pose.replace(peaks)
    return ExpressionTemplate(
        expression=expression,
        mode=mode,
        neutral_pose=neutral_pose,
        max_pose=max_pose,
        active_dofs=frozenset(peaks),
        lcd_morph_max=expression_target(expression),
        uses_ear_oscillation=ear_oscillation_flag,
    )


def parse_templates(text: str, origin: str | None = None) -> TemplateSet:
    """Parse the template file format.

    The file is INI-style: a `[neutral]` section listing all ten axes,
    then one `[<expression> <mode>]` section per pair with the peak values
    of the axes that expression moves and an optional
    `ear_oscillation = true` flag. The first line must identify the format
    and version.
    """
    lines = text.splitlines()
    check_header(lines, "templates", origin)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep axis names case-sensitive
    try:
        parser.read_string("\n".join(lines[1:]))
    except configparser.Error as error:
        raise ValueError(f"malformed template file: {error}") from error

    if "neutral" not in parser:
        raise ValueError("template file is missing the [neutral] section")
    neutral_values = {
        parse_dof(key): float(value) for key, value in parser["neutral"].items()
    }
    neutral_pose = Pose.from_mapping(neutral_values)

    templates: dict[tuple[Expression, Mode], ExpressionTemplate] = {}
    for section in parser.sections():
        if section == "neutral":
            continue
        parts = section.split()
        if len(parts) != 2:
            raise ValueError(f"bad template section name [{section}]")
        try:
            expression = Expression(parts[0])
            mode = Mode(parts[1])
        except ValueError:
            raise ValueError(f"bad template section name [{section}]") from None
        peaks: dict[Dof, float] = {}
        oscillate = False
        for key, value in parser[section].items():
            if key == "ear_oscillation":
                oscillate = value.strip().lower() in ("1", "true", "yes", "on")
                continue
            peaks[parse_dof(key)] = float(value)
        templates[(expression, mode)] = _build_template(
            expression, mode, neutral_pose, peaks, oscillate
        )

    # Neutral templates are implicit: peak equals neutral in both modes.
    for mode in Mode:
        templates.setdefault(
            (Expression.NEUTRAL, mode),
            _build_template(Expression.NEUTRAL, mode, neutral_pose, {}, False),
        )
    return TemplateSet(neutral_pose, templates)


def load_templates(path: str | Path | None = None) -> TemplateSet:
    """Load templates from a file, or the packaged defaults when no path."""
    if path is None:
        return parse_templates(packaged_text("expression_templates.txt"))
    return parse_templates(Path(path).read_text(encoding="utf-8"), str(path))


def format_templates(templates: TemplateSet) -> str:
    """Serialize a TemplateSet back into the template file format."""
    out = ["bearface-templates 1", "", "[neutral]"]
    for dof in ALL_DOFS:
        out.append(f"{dof_label(dof)} = {templates.neutral_pose[dof]:g}")
    for expr in CLASS_ORDER:
        if expr is Expression.NEUTRAL:
            continue
        for mode in Mode:
            template = templates.get(expr, mode)
            out.append("")
            out.append(f"[{expr.value} {mode.value}]")
            for dof in sorted(template.active_dofs):
                out.append(f"{dof_label(dof)} = {template.max_pose[dof]:g}")
            if template.uses_ear_oscillation:
                out.append("ear_oscillation = true")
    out.append("")
    return "\n".join(out)
