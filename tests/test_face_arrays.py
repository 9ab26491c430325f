"""Face-side commands as arrays give the bytes of the per-frame code.

The references below are the per-frame implementations the array code
replaced: one Python float operation per axis and frame, one `f"{v:.9g}"`
call per written value, one `round` per servo target. Every test writes
both and compares bytes.
"""

import json
import math
import warnings

import numpy as np
import pytest

from bearface.cli import write_trajectory_csv
from bearface.diagnostics import ClampWarning
from bearface.dof import ALL_DOFS, Dof, Pose, Trajectory, dof_label
from bearface.expressions import Expression, Mode, trajectory
from bearface.imitation import ImitationSession
from bearface.lipsync import (
    EXPRESSION_CHANNELS,
    class_weights_at,
    force_labial_closure,
    render_timeline,
    timeline_columns,
    write_timeline_csv,
    write_timeline_jsonl,
)
from bearface.multiclass import VoteResult
from bearface.servo import (
    ServoCalibration,
    ServoChannel,
    default_calibration,
    trajectory_to_servo_commands,
)
from bearface.visemes import VISEME_CLASS_COUNT, PhonemeSegment, load_viseme_table

TABLE = load_viseme_table()
CLASSES = tuple(e.value for e in Expression)
INTENSITIES = (0.0, 1 / 3, 0.6, 1.0)


def reference_lerp(a, b, t):
    return a if a == b else (1.0 - t) * a + t * b


def reference_trajectory(start, end, duration, frame_rate):
    """(t, pose values) per frame of the linear sweep."""
    count = max(2, int(math.floor(duration * frame_rate)) + 1)
    frames = []
    for k in range(count):
        u = k / (count - 1)
        frames.append((u * duration, tuple(reference_lerp(a, b, u) for a, b in zip(start, end))))
    return frames


def reference_mirror(expression, level, templates, mode, start, frame_rate, transition, hold):
    """(t, pose values) frames and (t, visemes, expressions) mouth frames."""
    template = templates.get(expression, mode)
    neutral = expression is Expression.NEUTRAL
    level = 0.0 if neutral else level
    low, high = template.neutral_pose.values, template.max_pose.values
    target = tuple(reference_lerp(a, b, level) for a, b in zip(low, high))
    frames = reference_trajectory(start, target, transition, frame_rate)
    for k in range(1, int(hold * frame_rate) + 1):
        t_hold = k / frame_rate
        pose = list(target)
        if template.uses_ear_oscillation and level > 0.0:
            phase = 2.0 * math.pi * t_hold / (1.5 - level)
            left = 0.5 * level * (1.0 - math.cos(phase))
            for dof, factor in ((Dof.EAR_L, left), (Dof.EAR_R, level - left)):
                axis = int(dof) - 1
                pose[axis] = reference_lerp(low[axis], high[axis], factor)
        frames.append((transition + t_hold, tuple(pose)))
    channel = {} if neutral else {expression.value: level}
    morphs = [(t, [0.0] * VISEME_CLASS_COUNT, channel) for t, _ in frames]
    return frames, morphs


def reference_trajectory_csv(frames):
    lines = ["t," + ",".join(dof_label(d) for d in ALL_DOFS)]
    for t, pose in frames:
        lines.append(f"{t:.9g}," + ",".join(f"{v:.9g}" for v in pose))
    return ("\n".join(lines) + "\n").encode()


def reference_timeline_csv(morphs):
    lines = [",".join(timeline_columns())]
    for t, visemes, expressions in morphs:
        row = [t] + [float(v) for v in visemes]
        row += [float(expressions.get(name, 0.0)) for name in EXPRESSION_CHANNELS]
        lines.append(",".join(f"{value:.9g}" for value in row))
    return ("\n".join(lines) + "\n").encode()


def reference_timeline_jsonl(morphs):
    return "".join(
        json.dumps({
            "t": t,
            "visemes": [float(v) for v in visemes],
            "expressions": {
                name: float(level) for name, level in sorted(expressions.items()) if level != 0.0
            },
        }, sort_keys=True) + "\n"
        for t, visemes, expressions in morphs
    ).encode()


def reference_servo(frames, calibration):
    out = bytearray()
    for _, pose in frames:
        for dof, value in zip(ALL_DOFS, pose):
            spec = calibration[dof]
            target = int(round(spec.minimum + value * (spec.maximum - spec.minimum)))
            if not 0 <= target <= 0x3FFF:
                raise ValueError(f"target {target} outside 0..{0x3FFF}")
            out += bytes((0x84, spec.channel, target & 0x7F, (target >> 7) & 0x7F))
    return bytes(out)


def reference_track_morphs(segments, track, frame_rate):
    """Mouth frames of `render_timeline`, the track looked up frame by frame."""
    forced = force_labial_closure(segments, TABLE)
    start = min(s.start for s in forced)
    count = int(math.floor((max(s.end for s in forced) - start) * frame_rate)) + 1
    times = start + np.arange(count) / frame_rate
    weights = class_weights_at(forced, times, TABLE)
    entries = sorted(((time, Expression(name), level) for time, name, level in track),
                     key=lambda entry: entry[0])
    morphs = []
    for column, t in zip(weights.T, times):
        state = None
        for time, expression, level in entries:
            if time > t:
                break
            state = (expression, level)
        channel = {}
        if state is not None and state[0] is not Expression.NEUTRAL:
            channel = {state[0].value: min(1.0, max(0.0, state[1]))}
        morphs.append((float(t), column, channel))
    return morphs


def written(write, value, path):
    write(value, path)
    return path.read_bytes()


def assert_command_bytes(motion, reference, path):
    frames, mouth = motion
    ref_frames, ref_morphs = reference
    assert written(write_trajectory_csv, frames, path) == reference_trajectory_csv(ref_frames)
    assert written(write_timeline_csv, mouth, path) == reference_timeline_csv(ref_morphs)
    assert written(write_timeline_jsonl, mouth, path) == reference_timeline_jsonl(ref_morphs)
    calibration = default_calibration()
    assert trajectory_to_servo_commands(frames, calibration) == reference_servo(
        ref_frames, calibration
    )


@pytest.mark.parametrize("frame_rate", [30.0, 80.0, 85.0, 90.0])
@pytest.mark.parametrize("mode", list(Mode))
def test_mirror_matches_reference(templates, tmp_path, mode, frame_rate):
    neutral = templates.neutral_pose.values
    for expression in Expression:
        for level in INTENSITIES:
            for hold in (1.0, 0.0):
                session = ImitationSession(
                    templates, mode=mode, frame_rate=frame_rate, hold_duration=hold
                )
                motion = session._mirror(expression, level)
                reference = reference_mirror(
                    expression, level, templates, mode, neutral, frame_rate, 1.5, hold
                )
                assert_command_bytes(motion, reference, tmp_path / "out.csv")


@pytest.mark.parametrize("mode", list(Mode))
def test_chained_commands_match_reference(templates, tmp_path, mode):
    # Each command starts where the previous one ended, ear wiggle included.
    session = ImitationSession(templates, mode=mode, debounce=1, frame_rate=85.0)
    start = templates.neutral_pose.values
    winners = [("joy", 6), ("anger", 5), ("joy", 4), ("surprise", 6), ("neutral", 6),
               ("sadness", 2), ("fear", 6), ("disgust", 5)]
    for time, (winner, votes) in enumerate(winners):
        result = VoteResult(winner, votes, (), {}, CLASSES)
        motion = session.consume(result, float(time))
        level = session.records[-1].intensity
        reference = reference_mirror(
            Expression(winner), level, templates, mode, start, 85.0, 1.5, 1.0
        )
        assert_command_bytes(motion, reference, tmp_path / "out.csv")
        end = reference[0][-1][1]
        assert session.records[-1].pose.values == end
        start = templates.neutral_pose.values if winner == "neutral" else end


def test_imitate_matches_reference(templates, tmp_path):
    for votes in range(7):
        session = ImitationSession(templates, debounce=1)
        motion = session.consume(VoteResult("joy", votes, (), {}, CLASSES), 0.0)
        level = max(0.0, (2.0 * votes - 6.0) / 6.0)
        reference = reference_mirror(
            Expression.JOY, level, templates, Mode.AU_ANIMAL,
            templates.neutral_pose.values, 85.0, 1.5, 1.0,
        )
        assert_command_bytes(motion, reference, tmp_path / "out.csv")


def test_trajectory_matches_reference():
    rng = np.random.default_rng(11)
    calibration = default_calibration()
    for _ in range(40):
        start, end = (tuple(rng.uniform(0, 1, len(ALL_DOFS)).tolist()) for _ in range(2))
        end = tuple(a if rng.random() < 0.3 else b for a, b in zip(start, end))
        duration = float(rng.uniform(0.01, 3.0))
        frame_rate = float(rng.choice([30.0, 80.0, 85.0, 90.0, rng.uniform(1, 240)]))
        frames = trajectory(Pose(start), Pose(end), duration, frame_rate)
        reference = reference_trajectory(start, end, duration, frame_rate)
        assert frames.times.tolist() == [t for t, _ in reference]
        assert frames.poses.tolist() == [list(pose) for _, pose in reference]
        assert trajectory_to_servo_commands(frames, calibration) == reference_servo(
            reference, calibration
        )


def test_servo_matches_reference_on_random_poses():
    rng = np.random.default_rng(12)
    poses = rng.uniform(0, 1, (500, len(ALL_DOFS)))
    poses[:50] = rng.integers(0, 2, (50, len(ALL_DOFS)))  # the limits exactly
    frames = Trajectory(np.arange(len(poses)) / 85.0, poses)
    reference = [(t, tuple(p)) for t, p in zip(frames.times.tolist(), poses.tolist())]
    calibration = default_calibration()
    assert trajectory_to_servo_commands(frames, calibration) == reference_servo(
        reference, calibration
    )


def test_servo_rounds_exact_halves_to_even():
    # Spans of 4096 and 2048 quarter-us put odd multiples of 1/8192 (and
    # 1/4096) exactly on a half quarter-us, where rounding must go to even.
    calibration = ServoCalibration({
        dof: ServoChannel(int(dof) - 1, 4096 if dof % 2 else 5120,
                          8192 if dof % 2 else 7168)
        for dof in ALL_DOFS
    })
    values = (2 * np.arange(400) + 1) / 8192.0
    poses = np.repeat(values[:, None], len(ALL_DOFS), axis=1)
    poses[:, 1::2] = (2 * np.arange(400)[:, None] + 1) / 4096.0
    spans = np.array([calibration[d].maximum - calibration[d].minimum for d in ALL_DOFS])
    lows = np.array([calibration[d].minimum for d in ALL_DOFS])
    assert ((lows + poses * spans) % 1 == 0.5).all()
    frames = Trajectory(np.arange(len(poses)) / 85.0, poses)
    reference = [(t, tuple(p)) for t, p in zip(frames.times.tolist(), poses.tolist())]
    payload = trajectory_to_servo_commands(frames, calibration)
    assert payload == reference_servo(reference, calibration)
    targets = np.frombuffer(payload, np.uint8).reshape(-1, 4)
    assert ((targets[:, 2].astype(int) | targets[:, 3].astype(int) << 7) % 2 == 0).all()


@pytest.mark.parametrize("frame_rate", [30.0, 85.0, 90.0])
@pytest.mark.parametrize("track", [
    [],
    [(0.0, "joy", 0.6)],
    [(0.0, "anger", 0.5), (0.5, "neutral", 0.0)],
    [(0.3, "fear", 1.5), (0.1, "joy", 0.25), (0.1, "sadness", -2.0), (0.7, "joy", 0.0),
     (0.75, "surprise", 1.0), (0.75, "neutral", 1.0), (5.0, "disgust", 0.5)],
    [(float("nan"), "joy", 0.5), (0.2, "anger", float("nan")), (0.4, "fear", 0.3)],
])
def test_timeline_matches_reference(tmp_path, frame_rate, track):
    speech = (PhonemeSegment("m", 0.0, 0.2), PhonemeSegment("a", 0.2, 0.55),
              PhonemeSegment("b", 0.55, 0.7), PhonemeSegment("i", 0.7, 1.05))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        mouth = render_timeline(speech, track, TABLE, frame_rate=frame_rate)
    morphs = reference_track_morphs(speech, track, frame_rate)
    path = tmp_path / "timeline"
    assert written(write_timeline_csv, mouth, path) == reference_timeline_csv(morphs)
    assert written(write_timeline_jsonl, mouth, path) == reference_timeline_jsonl(morphs)


def test_pose_array_range_check_names_axis_and_value():
    poses = np.full((3, len(ALL_DOFS)), 0.5)
    poses[1, 4] = 1.25
    poses[2, 0] = -0.5
    with pytest.raises(ValueError, match=r"^LID_L value 1.25 outside \[0, 1\]$"):
        Trajectory(np.arange(3.0), poses)
    poses[1, 4] = float("nan")
    with pytest.raises(ValueError, match=r"^LID_L value nan outside \[0, 1\]$"):
        Trajectory(np.arange(3.0), poses)
