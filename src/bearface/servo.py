"""Pose serialization as servo-controller commands.

Targets are pulse widths in quarter-microseconds, sent with the compact
set-target command used by the common 12-channel hobby controllers:

    0x84, channel, low 7 bits of target, high 7 bits of target

Four bytes per axis, ten axes per pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dof import ALL_DOFS, Dof, Pose, Trajectory, dof_label

SET_TARGET = 0x84
TARGET_MAX = 0x3FFF  # 14 bits


@dataclass(frozen=True)
class ServoChannel:
    """Calibration of one axis: controller channel and pulse-width range."""

    channel: int
    minimum: int   # quarter-microseconds at normalized position 0
    maximum: int   # quarter-microseconds at normalized position 1

    def __post_init__(self) -> None:
        if not (0 <= self.channel <= 11):
            raise ValueError(f"channel {self.channel} outside 0..11")
        if not (0 <= self.minimum < self.maximum <= TARGET_MAX):
            raise ValueError(
                f"channel {self.channel}: need 0 <= minimum < maximum <= {TARGET_MAX}, "
                f"got {self.minimum}/{self.maximum}"
            )


@dataclass(frozen=True)
class ServoCalibration:
    """Channel assignment and pulse ranges for all ten axes."""

    channels: Mapping[Dof, ServoChannel]

    def __post_init__(self) -> None:
        missing = [dof_label(d) for d in ALL_DOFS if d not in self.channels]
        if missing:
            raise ValueError(f"calibration missing axes: {', '.join(missing)}")
        numbers = [c.channel for c in self.channels.values()]
        if len(set(numbers)) != len(numbers):
            raise ValueError("calibration reuses a channel number")

    def __getitem__(self, dof: Dof) -> ServoChannel:
        return self.channels[dof]


def default_calibration() -> ServoCalibration:
    """Axes f1..f10 on channels 0..9, symmetric 1000-2000 us range."""
    return ServoCalibration(
        {
            dof: ServoChannel(channel=int(dof) - 1, minimum=4000, maximum=8000)
            for dof in ALL_DOFS
        }
    )


def pose_target(value, channel: ServoChannel):
    """Pulse-width targets for normalized axis values (a float or an array),
    nearest quarter-us; `np.rint` rounds half to even, as `round` does."""
    span = channel.maximum - channel.minimum
    return np.rint(channel.minimum + value * span).astype(np.int64)


def set_target_command(channel, target) -> bytes:
    """Set-target commands for channels and targets broadcast together, in C order."""
    channel, target = np.broadcast_arrays(*(np.asarray(a, np.int64) for a in (channel, target)))
    for name, values, top in (("target", target, TARGET_MAX), ("channel", channel, 11)):
        outside = (values < 0) | (values > top)
        if outside.any():
            raise ValueError(f"{name} {int(values[outside][0])} outside 0..{top}")
    commands = [np.full_like(target, SET_TARGET), channel, target & 0x7F, target >> 7]
    return np.stack(commands, axis=-1).astype(np.uint8).tobytes()


def to_servo_commands(pose: Pose, calibration: ServoCalibration) -> bytes:
    """Serialize a pose as one set-target command per axis, f1..f10 order."""
    frames = Trajectory(np.zeros(1), np.array([pose.values]))
    return trajectory_to_servo_commands(frames, calibration)


def decode_servo_commands(data: bytes) -> list[tuple[int, int]]:
    """Parse a command stream back into (channel, target) pairs."""
    if len(data) % 4 != 0:
        raise ValueError(f"command stream length {len(data)} is not a multiple of 4")
    decoded = []
    for offset in range(0, len(data), 4):
        opcode, channel, low, high = data[offset : offset + 4]
        if opcode != SET_TARGET:
            raise ValueError(f"unexpected opcode 0x{opcode:02X} at byte {offset}")
        if low & 0x80 or high & 0x80:
            raise ValueError(f"payload byte with high bit set at byte {offset}")
        decoded.append((channel, (high << 7) | low))
    return decoded


def trajectory_to_servo_commands(
    frames: Trajectory, calibration: ServoCalibration
) -> bytes:
    """Concatenated per-frame command blocks for a pose trajectory."""
    specs = [calibration[dof] for dof in ALL_DOFS]
    targets = [pose_target(frames.poses[:, k], spec) for k, spec in enumerate(specs)]
    return set_target_command([spec.channel for spec in specs], np.column_stack(targets))
