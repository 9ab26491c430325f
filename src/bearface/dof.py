"""The ten mechanical axes of the face and normalized pose values.

Every axis is stored as a normalized position in [0, 1]; 0 and 1 are the
two mechanical limits. Servo pulse widths live in a separate calibration
layer (see `bearface.servo`), which keeps all pose math unit-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping


class Dof(IntEnum):
    """Mechanical face axes f1..f10."""

    BROW_L = 1        # left eyebrow roll
    BROW_R = 2        # right eyebrow roll
    FOREHEAD = 3      # forehead tilt
    EYE_YAW = 4       # both eyeballs, yaw
    LID_L = 5         # left eyelid pitch (openness)
    LID_R = 6         # right eyelid pitch
    EAR_L = 7         # left ear pitch
    EAR_R = 8         # right ear pitch
    NECK_PITCH = 9
    NECK_YAW = 10


ALL_DOFS: tuple[Dof, ...] = tuple(Dof)


@dataclass(frozen=True)
class Pose:
    """A snapshot of all ten axes, each in [0, 1].

    Immutable; `values` is ordered f1..f10.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(ALL_DOFS):
            raise ValueError(
                f"pose needs {len(ALL_DOFS)} axis values, got {len(self.values)}"
            )
        for dof, value in zip(ALL_DOFS, self.values):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{dof.name} value {value} outside [0, 1]")

    def __getitem__(self, dof: Dof) -> float:
        return self.values[int(dof) - 1]

    def replace(self, updates: Mapping[Dof, float]) -> "Pose":
        """A copy with some axes overridden."""
        values = list(self.values)
        for dof, value in updates.items():
            values[int(dof) - 1] = value
        return Pose(tuple(values))

    @classmethod
    def from_mapping(cls, values: Mapping[Dof, float]) -> "Pose":
        missing = [dof.name for dof in ALL_DOFS if dof not in values]
        if missing:
            raise ValueError(f"pose is missing axes: {', '.join(missing)}")
        return cls(tuple(float(values[dof]) for dof in ALL_DOFS))

    @classmethod
    def uniform(cls, value: float) -> "Pose":
        return cls((float(value),) * len(ALL_DOFS))


def lerp(a: float, b: float, t: float) -> float:
    """Linear interpolation; t=0 returns `a` exactly, t=1 returns `b` exactly.

    Equal endpoints pass through bit-exact at every t.
    """
    return a if a == b else (1.0 - t) * a + t * b


def lerp_pose(a: Pose, b: Pose, t: float) -> Pose:
    """`lerp` on every axis."""
    return Pose(tuple(lerp(va, vb, t) for va, vb in zip(a.values, b.values)))


def parse_dof(name: str) -> Dof:
    """Accepts 'f1'..'f10' (any case) or axis names like 'EAR_L'."""
    text = name.strip()
    if text.lower().startswith("f") and text[1:].isdigit():
        index = int(text[1:])
        if 1 <= index <= 10:
            return Dof(index)
    try:
        return Dof[text.upper()]
    except KeyError:
        raise ValueError(f"unknown axis name {name!r}") from None


def dof_label(dof: Dof) -> str:
    return f"f{int(dof)}"
