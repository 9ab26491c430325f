"""Vote-to-intensity mapping and the imitation loop."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bearface.diagnostics import VoteRangeWarning
from bearface.dof import ALL_DOFS, Dof
from bearface.expressions import Expression, Mode, pose_for
from bearface.imitation import ImitationSession, vote_to_intensity, write_imitation_log
from bearface.multiclass import VoteResult

CLASSES = tuple(e.value for e in Expression)


def _result(winner: str, votes: int) -> VoteResult:
    return VoteResult(
        winner=winner, votes=votes, tally=(), decisions={}, class_names=CLASSES
    )


def _command(templates, winner: str, votes: int, **settings):
    """The motion a fresh session, which starts from neutral, emits at once."""
    session = ImitationSession(templates, debounce=1, **settings)
    return session.consume(_result(winner, votes), 0.0)


def test_vote_intensity_table_seven_classes():
    expected = {
        3: float(Fraction(2 * 3 - 6, 6)),
        4: float(Fraction(2 * 4 - 6, 6)),
        5: float(Fraction(2 * 5 - 6, 6)),
        6: float(Fraction(2 * 6 - 6, 6)),
    }
    assert expected == {3: 0.0, 4: 1 / 3, 5: 2 / 3, 6: 1.0}
    for votes, intensity in expected.items():
        assert vote_to_intensity(votes, 7) == intensity


def test_vote_intensity_monotone_and_clamped():
    values = [vote_to_intensity(v, 7) for v in range(0, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # Strictly increasing inside the linear region.
    linear = values[3:7]
    assert all(b > a for a, b in zip(linear, linear[1:]))
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] == 0.0
    with pytest.warns(VoteRangeWarning):
        assert vote_to_intensity(7, 7) == 1.0


def test_vote_intensity_validation():
    with pytest.raises(ValueError):
        vote_to_intensity(3, 1)
    with pytest.raises(ValueError):
        vote_to_intensity(-1, 7)


def test_imitate_neutral_winner(templates):
    frames, morphs = _command(templates, "neutral", 6)
    assert (frames.poses == np.array(templates.neutral_pose.values)).all()
    for morph in morphs:
        assert not morph.visemes.any()
        assert all(level == 0.0 for level in morph.expressions.values())


def test_imitate_joy_full_intensity(templates):
    frames, morphs = _command(
        templates, "joy", 6, mode=Mode.AU_ANIMAL,
        transition_duration=1.0, hold_duration=0.5, frame_rate=40.0,
    )
    template = templates.get(Expression.JOY, Mode.AU_ANIMAL)
    transition_count = 41  # floor(1.0 * 40) + 1
    assert frames.pose(transition_count - 1) == template.max_pose
    assert morphs.expressions["joy"][0] == 1.0
    # Ear oscillation active during the hold: the ears move between frames.
    hold_left = frames.poses[transition_count:, Dof.EAR_L - 1]
    assert len(set(hold_left.tolist())) > 1
    # Mouth channel and axis intensity agree on every frame.
    assert all(m.expressions["joy"] == 1.0 for m in morphs)


def test_imitate_sadness_one_third(templates):
    frames, morphs = _command(templates, "sadness", 4, mode=Mode.AU_ANIMAL, hold_duration=0.0)
    template = templates.get(Expression.SADNESS, Mode.AU_ANIMAL)
    expected = pose_for(template, 1 / 3)
    final = frames.pose(-1)
    assert final == expected
    for dof in template.active_dofs:
        base = template.neutral_pose[dof]
        peak = template.max_pose[dof]
        assert final[dof] == pytest.approx(base + (peak - base) / 3, abs=1e-12)
    assert morphs.expressions["sadness"][-1] == pytest.approx(1 / 3)


def test_imitate_intensity_equality(templates):
    # The same number drives the axes and the mouth channel.
    intensity = vote_to_intensity(5, len(CLASSES))
    frames, morphs = _command(templates, "fear", 5, hold_duration=0.0)
    template = templates.get(Expression.FEAR, Mode.AU_ANIMAL)
    assert frames.pose(-1) == pose_for(template, intensity)
    assert morphs.expressions["fear"][-1] == intensity


def test_imitate_deterministic(templates):
    a = _command(templates, "anger", 5)
    b = _command(templates, "anger", 5)
    assert np.array_equal(a[0].times, b[0].times)
    assert np.array_equal(a[0].poses, b[0].poses)
    assert all(
        np.array_equal(x.visemes, y.visemes) and x.expressions == y.expressions
        for x, y in zip(a[1], b[1])
    )


@pytest.mark.parametrize("winner", [e.value for e in Expression])
@pytest.mark.parametrize("votes", [0, 1, 2])
def test_mouth_channel_on_every_frame(templates, winner, votes):
    # A robot loop reads the mouth frame by frame: a non-neutral command
    # carries its channel on each frame, at exactly 0.0 when the vote count
    # maps to no intensity; a neutral command carries no channel at all.
    frames, morphs = _command(templates, winner, votes)
    assert len(list(morphs)) == len(frames) == len(morphs)
    for frame in morphs:
        if winner == "neutral":
            assert frame.expressions == {}
        else:
            assert frame.expressions == {winner: 0.0}
            assert frame.expressions.get(winner, -1.0) == 0.0


def test_imitate_unknown_label(templates):
    with pytest.raises(ValueError, match="^unknown expression label 'confusion'$"):
        _command(templates, "confusion", 4)


def test_unknown_label_is_rejected_before_the_debounce(templates):
    # The label used to count into the streak first, so a default session
    # returned None twice and raised only on the third result.
    session = ImitationSession(templates)
    with pytest.raises(ValueError, match="^unknown expression label 'confusion'$"):
        session.consume(_result("confusion", 4), 0.0)


def test_session_debounce(templates):
    session = ImitationSession(templates, debounce=3, hold_duration=0.0)
    assert session.consume(_result("joy", 6), 0.0) is None
    assert session.consume(_result("joy", 6), 0.1) is None
    assert session.consume(_result("sadness", 5), 0.2) is None  # streak broken
    assert session.consume(_result("sadness", 5), 0.3) is None
    emitted = session.consume(_result("sadness", 5), 0.4)
    assert emitted is not None
    # Same stable winner does not re-target.
    assert session.consume(_result("sadness", 5), 0.5) is None
    assert len(session.records) == 1
    record = session.records[0]
    assert record.winner == "sadness"
    assert record.intensity == pytest.approx(2 / 3)
    assert record.timestamp == 0.4


def test_over_range_emission_warns_once(templates):
    session = ImitationSession(templates, debounce=1, hold_duration=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert session.consume(_result("joy", 9), 0.0) is not None
    assert [w.category for w in caught].count(VoteRangeWarning) == 1
    assert session.records[0].intensity == 1.0


def test_session_log_round_trip(templates, tmp_path):
    session = ImitationSession(templates, debounce=1, hold_duration=0.0)
    session.consume(_result("joy", 6), 0.0)
    session.consume(_result("anger", 4), 1.0)
    path = tmp_path / "imitation.jsonl"
    write_imitation_log(session.records, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["winner"] for r in records] == ["joy", "anger"]
    assert len(records[0]["pose"]) == len(ALL_DOFS)
    assert records[1]["intensity"] == pytest.approx(1 / 3)
