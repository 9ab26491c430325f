"""Pose synthesis, ear oscillation, trajectories and template files."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bearface.diagnostics import ClampWarning
from bearface.dof import ALL_DOFS, Dof, Pose, parse_dof
from bearface.expressions import (
    EXPRESSION_DOFS,
    Expression,
    ExpressionTemplate,
    Mode,
    ear_oscillation,
    hold_poses,
    load_templates,
    parse_templates,
    pose_for,
    trajectory,
)
from bearface.lipsync import render_timeline
from bearface.records import packaged_text
from bearface.visemes import bundled_transcript, load_viseme_table


def test_dof_identities():
    assert len(ALL_DOFS) == 10
    assert [int(d) for d in ALL_DOFS] == list(range(1, 11))
    assert parse_dof("f7") is Dof.EAR_L
    assert parse_dof("NECK_YAW") is Dof.NECK_YAW
    with pytest.raises(ValueError):
        parse_dof("f11")


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose((0.5,) * 9)
    with pytest.raises(ValueError):
        Pose((0.5,) * 9 + (1.5,))
    with pytest.raises(ValueError, match="missing"):
        Pose.from_mapping({Dof.BROW_L: 0.5})


@pytest.fixture(scope="module")
def template_set():
    return load_templates()


def _all_templates(template_set):
    """The fourteen (expression, mode) templates, in `EXPRESSION_DOFS` order."""
    return [template_set.get(expression, mode) for expression, mode in EXPRESSION_DOFS]


def test_pose_for_endpoints_exact(template_set):
    for template in _all_templates(template_set):
        assert pose_for(template, 0.0) == template.neutral_pose
        assert pose_for(template, 1.0) == template.max_pose


def test_pose_for_midpoint_value():
    neutral = Pose((0.5,) * 10)
    peak = neutral.replace({Dof.EAR_L: 0.9, Dof.EAR_R: 0.9})
    template = ExpressionTemplate(
        expression=Expression.JOY,
        mode=Mode.AU_ANIMAL,
        neutral_pose=neutral,
        max_pose=peak,
    )
    pose = pose_for(template, 0.5)
    assert pose[Dof.EAR_L] == pytest.approx(0.7, abs=1e-15)
    assert pose[Dof.BROW_L] == 0.5  # inactive axes stay neutral


def test_pose_for_matches_the_per_axis_formula(template_set):
    # pose_for goes through dof.lerp, which passes equal endpoints through
    # unchanged; on the shipped templates (no active axis peaks at its
    # neutral value) it gives the per-axis formula bit for bit.
    for template in _all_templates(template_set):
        for intensity in [k / 64 for k in range(65)] + [0.1, 1 / 3, 0.7]:
            pose = pose_for(template, intensity)
            for dof in ALL_DOFS:
                base, peak = template.neutral_pose[dof], template.max_pose[dof]
                if dof in template.active_dofs:
                    assert pose[dof] == (1.0 - intensity) * base + intensity * peak
                else:
                    assert pose[dof] == base
            t = intensity / 3
            left, right = ear_oscillation(intensity, [t])
            moved = Pose(tuple(hold_poses(template, intensity, [t])[0].tolist()))
            if template.uses_ear_oscillation and intensity > 0.0:
                for dof, factor in ((Dof.EAR_L, left[0]), (Dof.EAR_R, right[0])):
                    base, peak = template.neutral_pose[dof], template.max_pose[dof]
                    assert moved[dof] == (1.0 - factor) * base + factor * peak
            else:
                assert moved == pose


def test_pose_for_clamps_with_warning(template_set):
    template = template_set.get(Expression.ANGER, Mode.AU)
    with pytest.warns(ClampWarning):
        high = pose_for(template, 1.7)
    assert high == template.max_pose
    with pytest.warns(ClampWarning):
        low = pose_for(template, -0.2)
    assert low == template.neutral_pose


@given(
    mu1=st.floats(0, 1, allow_nan=False),
    mu2=st.floats(0, 1, allow_nan=False),
)
def test_pose_for_linearity(mu1, mu2):
    template_set = load_templates()
    template = template_set.get(Expression.SURPRISE, Mode.AU_ANIMAL)
    mid = pose_for(template, (mu1 + mu2) / 2.0)
    a = pose_for(template, mu1)
    b = pose_for(template, mu2)
    for dof in ALL_DOFS:
        assert mid[dof] == pytest.approx((a[dof] + b[dof]) / 2.0, abs=1e-12)


def test_mode_containment():
    for expression in Expression:
        au = EXPRESSION_DOFS[(expression, Mode.AU)]
        animal = EXPRESSION_DOFS[(expression, Mode.AU_ANIMAL)]
        assert au <= animal


def test_expression_table_contents():
    assert EXPRESSION_DOFS[(Expression.JOY, Mode.AU)] == frozenset()
    assert EXPRESSION_DOFS[(Expression.JOY, Mode.AU_ANIMAL)] == {Dof.EAR_L, Dof.EAR_R}
    assert EXPRESSION_DOFS[(Expression.DISGUST, Mode.AU)] == {Dof.FOREHEAD}
    assert Dof.NECK_PITCH in EXPRESSION_DOFS[(Expression.SURPRISE, Mode.AU_ANIMAL)]
    assert EXPRESSION_DOFS[(Expression.ANGER, Mode.AU_ANIMAL)] == {
        Dof.BROW_L, Dof.BROW_R, Dof.LID_L, Dof.LID_R, Dof.EAR_L, Dof.EAR_R,
    }


def test_template_active_dofs_are_the_table_entries(template_set):
    templates = _all_templates(template_set)
    assert len(templates) == 14
    assert [(t.expression, t.mode) for t in templates] == list(EXPRESSION_DOFS)
    for template in templates:
        assert template.active_dofs == EXPRESSION_DOFS[(template.expression, template.mode)]


def test_template_validation_rejects_moving_inactive_axis():
    neutral = Pose((0.5,) * 10)
    moved = neutral.replace({Dof.NECK_YAW: 0.9})
    with pytest.raises(ValueError, match="inactive"):
        ExpressionTemplate(
            expression=Expression.JOY,
            mode=Mode.AU,
            neutral_pose=neutral,
            max_pose=moved,
        )


def test_neutral_template_is_static(template_set):
    for mode in Mode:
        template = template_set.get(Expression.NEUTRAL, mode)
        assert template.max_pose == template.neutral_pose


def test_ear_oscillation_zero_intensity():
    assert ear_oscillation(0.0, 3.2) == (0.0, 0.0)


def test_ear_oscillation_start_and_antiphase():
    left, right = ear_oscillation(1.0, 0.0)
    assert left == pytest.approx(0.0, abs=1e-15)
    assert right == pytest.approx(1.0, abs=1e-15)
    for t in (0.0, 0.1, 0.37, 2.0):
        left, right = ear_oscillation(0.8, t)
        assert left + right == pytest.approx(0.8, abs=1e-12)
        assert 0.0 <= left <= 0.8 and 0.0 <= right <= 0.8


def test_ear_oscillation_period():
    # Full intensity: period 0.5 s, so t and t + 0.5 coincide.
    for t in (0.0, 0.25, 0.3):
        assert ear_oscillation(1.0, t)[0] == pytest.approx(
            ear_oscillation(1.0, t + 0.5)[0], abs=1e-12
        )
    # The period formula 1.5 - intensity stays inside the 0.5..1.5 s band.
    for intensity in (0.01, 0.5, 1.0):
        period = 1.5 - intensity
        assert 0.5 <= period < 1.5
        left_a = ear_oscillation(intensity, 0.1)[0]
        left_b = ear_oscillation(intensity, 0.1 + period)[0]
        assert left_a == pytest.approx(left_b, abs=1e-12)


@pytest.mark.parametrize("value, expected", [(float("nan"), 0.0), (-0.5, 0.0), (1.5, 1.0)])
def test_every_clamp_warns_at_its_caller(template_set, value, expected):
    # NaN clamps to 0 with a warning in all three, ear_oscillation included.
    template = template_set.get(Expression.JOY, Mode.AU_ANIMAL)
    times = np.array([0.0, 0.3])
    with pytest.warns(ClampWarning) as caught:
        pose = pose_for(template, value)
        left, right = ear_oscillation(value, times)
        frames = render_timeline(bundled_transcript(), [(0.0, "fear", value)], load_viseme_table())
    assert [str(w.message) for w in caught] == [
        f"intensity {value} clamped to [0, 1]",
        f"oscillation intensity {value} clamped to [0, 1]",
        f"blend level {value} clamped to [0, 1]",
    ]
    assert {w.filename for w in caught} == {__file__}
    assert pose == pose_for(template, expected)
    for got, want in zip((left, right), ear_oscillation(expected, times)):
        np.testing.assert_array_equal(got, want)
    assert (frames.expressions["fear"] == expected).all()


def test_ear_oscillation_validation():
    with pytest.raises(ValueError):
        ear_oscillation(0.5, -0.1)
    with pytest.warns(ClampWarning):
        ear_oscillation(1.4, 0.0)


def test_oscillating_pose(template_set):
    template = template_set.get(Expression.JOY, Mode.AU_ANIMAL)
    static = np.array(pose_for(template, 1.0).values)
    quarter = 0.5 / 4  # quarter period at full intensity
    moved = hold_poses(template, 1.0, [0.0, quarter])
    assert moved[1, Dof.EAR_L - 1] != static[Dof.EAR_L - 1]
    others = [int(dof) - 1 for dof in ALL_DOFS if dof not in (Dof.EAR_L, Dof.EAR_R)]
    assert (moved[:, others] == static[others]).all()
    # Templates without the wiggle hold the static pose.
    sadness = template_set.get(Expression.SADNESS, Mode.AU_ANIMAL)
    held = hold_poses(sadness, 0.7, [0.2, 0.4])
    assert (held == np.array(pose_for(sadness, 0.7).values)).all()


def test_trajectory_frame_count():
    start = Pose((0.2,) * 10)
    end = Pose((0.8,) * 10)
    frames = trajectory(start, end, duration=1.5, frame_rate=85.0)
    assert len(frames) == 128  # floor(1.5 * 85) + 1


def test_trajectory_endpoints_bit_exact():
    start = Pose((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.55))
    end = Pose((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.45))
    frames = trajectory(start, end, duration=0.7, frame_rate=30.0)
    assert frames.pose(0) == start
    assert frames.pose(-1) == end
    assert frames.times[0] == 0.0
    assert frames.times[-1] == 0.7


def test_trajectory_linear_midpoint():
    start = Pose((0.0,) * 10)
    end = Pose((1.0,) * 10)
    frames = trajectory(start, end, duration=1.0, frame_rate=2.0)
    assert frames.poses[:, Dof.BROW_L - 1].tolist() == [0.0, 0.5, 1.0]


def test_trajectory_constant_when_start_equals_end():
    pose = Pose((0.42,) * 10)
    frames = trajectory(pose, pose, duration=0.5, frame_rate=10.0)
    assert (frames.poses == np.array(pose.values)).all()


@given(
    duration=st.floats(0.05, 3.0, allow_nan=False),
    frame_rate=st.floats(1.0, 120.0, allow_nan=False),
)
def test_trajectory_properties(duration, frame_rate):
    start = Pose((0.25,) * 10)
    end = Pose((0.75,) * 10)
    frames = trajectory(start, end, duration, frame_rate)
    assert frames.pose(0) == start
    assert frames.pose(-1) == end
    times = frames.times
    assert times[0] == 0.0
    assert times[-1] == duration
    assert (np.diff(times) > 0).all()
    values = frames.poses[:, Dof.BROW_L - 1]
    assert (np.diff(values) >= 0).all()  # monotone sweep


def test_trajectory_validation():
    pose = Pose((0.5,) * 10)
    with pytest.raises(ValueError):
        trajectory(pose, pose, duration=0.0, frame_rate=10.0)
    with pytest.raises(ValueError):
        trajectory(pose, pose, duration=1.0, frame_rate=0.0)


def test_template_file_rejects_bad_header():
    with pytest.raises(ValueError, match="must start"):
        parse_templates("not-a-template-file\n")
    with pytest.raises(ValueError, match="neutral"):
        parse_templates("bearface-templates 1\n[joy au]\n")
    with pytest.raises(ValueError, match="section name"):
        parse_templates(
            "bearface-templates 1\n[neutral]\n"
            + "\n".join(f"f{i} = 0.5" for i in range(1, 11))
            + "\n[happy au]\nf7 = 0.9\n"
        )


SHIPPED = packaged_text("expression_templates.txt").splitlines()


@pytest.mark.parametrize(
    ("section", "old", "new", "at", "problem"),
    [
        ("anger au", "f1 = 0.15", ["f1 = x"], "line", "f1 must be float, got 'x'"),
        ("joy au-animal", "ear_oscillation = true", ["ear_oscillation = maybe"], "line",
         "ear_oscillation must be boolean, got 'maybe'"),
        ("anger au-animal", "[anger au-animal]", ["[anger au]"], "line",
         "duplicate section [anger au]"),
        ("anger au", "[anger au]", ["[DEFAULT]", "[anger au]"], "line",
         "bad template section name [DEFAULT]"),
        ("anger au", "f2 = 0.15", ["f1 = 0.2"], "line", "duplicate key 'f1'"),
        ("neutral", "[neutral]", ["f1 = 0.5", "[neutral]"], "line",
         "'f1' is outside any section"),
        ("anger au", "f1 = 0.15", ["f1: 0.15"], "line", "expected '[section]' or 'key = value'"),
        ("anger au", "f1 = 0.15", ["f1 = 1.5"], "line", "BROW_L value 1.5 outside [0, 1]"),
        ("neutral", "f1 = 0.5", ["f1 = -0.5"], "line", "BROW_L value -0.5 outside [0, 1]"),
        ("neutral", "f1 = 0.5", ["f1 = nan"], "line", "BROW_L value nan outside [0, 1]"),
        ("neutral", "f10 = 0.5", [], "section", "pose is missing axes: NECK_YAW"),
        ("anger au", "f1 = 0.15", [], "section",
         "anger/au: active axes ['f2', 'f5', 'f6'] do not match the expression table "
         "['f1', 'f2', 'f5', 'f6']"),
        ("anger au", "f2 = 0.15", ["f9 = 0.3", "f2 = 0.15"], "line",
         "anger/au: f9 is not an axis this expression moves ['f1', 'f2', 'f5', 'f6']"),
    ],
    ids=["value", "flag", "duplicate-section", "default-section", "duplicate-key",
         "outside-section", "colon", "value-high", "neutral-value-low", "neutral-value-nan",
         "missing-neutral-axis", "active-axes", "extra-axis"],
)
def test_template_errors_name_path_and_line(tmp_path, section, old, new, at, problem):
    lines = list(SHIPPED)
    head = lines.index(f"[{section}]")
    index = lines.index(old, head)
    lines[index:index + 1] = new
    path = tmp_path / "templates.txt"
    path.write_text("\n".join(lines) + "\n")
    number = (index if at == "line" else head) + 1
    with pytest.raises(ValueError, match=re.escape(f"{path}:{number}: {problem}")):
        load_templates(path)


def test_missing_section_names_the_file(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_text("\n".join(line for line in SHIPPED if line != "[joy au]") + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing template for joy/au")):
        load_templates(path)


def test_template_lines_take_inline_comments(template_set):
    text = "\n".join(
        line + "  # tuned" if "=" in line else line for line in SHIPPED
    )
    parsed = parse_templates(text)
    assert parsed.neutral_pose == template_set.neutral_pose
    for expression, mode in EXPRESSION_DOFS:
        assert parsed.get(expression, mode) == template_set.get(expression, mode)


def test_joy_animal_uses_oscillation(template_set):
    assert template_set.get(Expression.JOY, Mode.AU_ANIMAL).uses_ear_oscillation
    assert not template_set.get(Expression.JOY, Mode.AU).uses_ear_oscillation
