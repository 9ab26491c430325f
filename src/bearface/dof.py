"""The ten mechanical axes of the face and normalized pose values.

Every axis is stored as a normalized position in [0, 1]; 0 and 1 are the
two mechanical limits. Servo pulse widths live in a separate calibration
layer (see `bearface.servo`), which keeps all pose math unit-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

import numpy as np


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
        _check_unit_range(np.array([self.values], dtype=float))

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


@dataclass(frozen=True)
class Trajectory:
    """Timed poses as arrays: `times` (T,) in seconds, `poses` (T, 10) f1..f10.

    As in `Pose`, every value lies in [0, 1]; one check covers the array.
    """

    times: np.ndarray
    poses: np.ndarray

    def __post_init__(self) -> None:
        _check_unit_range(self.poses)

    def __len__(self) -> int:
        return len(self.times)

    def pose(self, index: int) -> Pose:
        return Pose(tuple(self.poses[index].tolist()))


def _check_unit_range(poses: np.ndarray) -> None:
    """Reject the first value outside [0, 1], row by row, naming its axis."""
    outside = ~((poses >= 0.0) & (poses <= 1.0))
    if outside.any():
        row, axis = np.argwhere(outside)[0]
        raise ValueError(f"{ALL_DOFS[axis].name} value {float(poses[row, axis])} outside [0, 1]")


def lerp(a: np.ndarray | float, b: np.ndarray | float, t: np.ndarray | float) -> np.ndarray:
    """Linear interpolation `(1 - t) * a + t * b`, element-wise on arrays.

    t=0 returns `a` exactly and t=1 returns `b` exactly; equal endpoints
    pass through bit-exact at every t.
    """
    return np.where(a == b, a, (1.0 - t) * a + t * b)


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
