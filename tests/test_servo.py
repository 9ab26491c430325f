"""Servo command encoding and calibration."""

import pytest

from bearface.dof import ALL_DOFS, Dof, Pose
from bearface.servo import (
    ServoCalibration,
    ServoChannel,
    decode_servo_commands,
    default_calibration,
    pose_target,
    set_target_command,
    to_servo_commands,
)


def test_worked_examples():
    assert set_target_command(0, 6000) == bytes((0x84, 0x00, 0x70, 0x2E))
    assert set_target_command(3, 4000) == bytes((0x84, 0x03, 0x20, 0x1F))


def test_round_trip_all_targets():
    for target in range(0, 16384):
        decoded = decode_servo_commands(set_target_command(5, target))
        assert decoded == [(5, target)]


def test_target_range_validation():
    with pytest.raises(ValueError):
        set_target_command(0, 16384)
    with pytest.raises(ValueError):
        set_target_command(0, -1)
    with pytest.raises(ValueError):
        set_target_command(12, 6000)


def test_pose_boundaries_hit_calibrated_limits():
    spec = ServoChannel(channel=2, minimum=4200, maximum=7900)
    assert pose_target(0.0, spec) == 4200
    assert pose_target(1.0, spec) == 7900
    assert pose_target(0.5, spec) == 6050


def test_to_servo_commands_order_and_values():
    calibration = default_calibration()
    pose = Pose((0.5,) * 10)
    data = to_servo_commands(pose, calibration)
    assert len(data) == 40
    decoded = decode_servo_commands(data)
    assert [channel for channel, _ in decoded] == list(range(10))
    assert all(target == 6000 for _, target in decoded)


def test_to_servo_commands_varied_pose():
    calibration = default_calibration()
    pose = Pose((0.5,) * 10).replace({Dof.EAR_L: 1.0, Dof.BROW_L: 0.0})
    decoded = decode_servo_commands(to_servo_commands(pose, calibration))
    by_channel = dict(decoded)
    assert by_channel[0] == 4000   # f1 at its low limit
    assert by_channel[6] == 8000   # f7 at its high limit


def test_calibration_validation():
    channels = {
        dof: ServoChannel(channel=int(dof) - 1, minimum=4000, maximum=8000)
        for dof in ALL_DOFS
    }
    broken = dict(channels)
    broken[Dof.NECK_YAW] = ServoChannel(channel=0, minimum=4000, maximum=8000)
    with pytest.raises(ValueError, match="reuses"):
        ServoCalibration(broken)
    for minimum, maximum in ((8000, 8000), (8000, 6000), (-1, 8000), (4000, 16384)):
        with pytest.raises(ValueError, match="need 0 <= minimum < maximum <= 16383"):
            ServoChannel(channel=0, minimum=minimum, maximum=maximum)
    incomplete = dict(channels)
    del incomplete[Dof.EAR_R]
    with pytest.raises(ValueError, match="missing"):
        ServoCalibration(incomplete)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError, match="multiple of 4"):
        decode_servo_commands(b"\x84\x00\x70")
    with pytest.raises(ValueError, match="opcode"):
        decode_servo_commands(b"\x85\x00\x70\x2e")
    with pytest.raises(ValueError, match="high bit"):
        decode_servo_commands(b"\x84\x00\xf0\x2e")
