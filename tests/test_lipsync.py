"""Kernel smoothing, labial closure and timeline rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bearface.diagnostics import ClampWarning
from bearface.expressions import Expression
from bearface.imaging import read_pnm
from bearface.imitation import ImitationSession
from bearface import records
from bearface.lipsync import (
    class_weights_at,
    epanechnikov,
    force_labial_closure,
    render_timeline,
    timeline_columns,
    write_preview_pgms,
    write_timeline_csv,
    write_timeline_jsonl,
)
from bearface.multiclass import VoteResult
from bearface.visemes import VISEME_CLASS_COUNT, PhonemeSegment, load_viseme_table

TABLE = load_viseme_table()
LABIAL_ID = next(iter(TABLE.labial_ids()))


def weights_at(segments, t, bandwidth_scale=1.0):
    """The viseme weights of one instant."""
    return class_weights_at(segments, [t], TABLE, bandwidth_scale)[:, 0]


def test_epanechnikov_shape():
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(2.0) == 0.0
    assert epanechnikov(0.5) == pytest.approx(0.75 * 0.75)


def test_single_segment_center_weight_one():
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    weights = weights_at(segments, 0.5)
    a_id = TABLE.class_id("a")
    assert weights[a_id] == pytest.approx(1.0)
    assert weights.sum() == pytest.approx(1.0)


def test_kernel_edge_contributes_zero():
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    assert weights_at(segments, 1.0).sum() == 0.0


def test_shared_boundary_splits_evenly():
    segments = (PhonemeSegment("a", 0.0, 1.0), PhonemeSegment("i", 1.0, 2.0))
    weights = weights_at(segments, 1.0, bandwidth_scale=2.0)
    assert weights[TABLE.class_id("a")] == pytest.approx(0.5)
    assert weights[TABLE.class_id("i")] == pytest.approx(0.5)


def test_outside_span_is_silent():
    segments = (PhonemeSegment("a", 0.5, 1.0),)
    for t in (0.4, 1.1, -3.0):
        assert weights_at(segments, t, bandwidth_scale=5.0).sum() == 0.0


def test_same_viseme_accumulates_before_normalization():
    # Two /m/ segments and one /a/, all overlapping t=0.5 at scale 4.
    segments = (
        PhonemeSegment("m", 0.0, 0.4),
        PhonemeSegment("a", 0.4, 0.6),
        PhonemeSegment("m", 0.6, 1.0),
    )
    scale = 4.0
    t = 0.5
    raw = {}
    for seg in segments:
        u = (t - seg.midpoint) / (scale * seg.duration / 2)
        raw[seg] = 0.75 * (1 - u * u) if abs(u) <= 1 else 0.0
    m_raw = raw[segments[0]] + raw[segments[2]]
    a_raw = raw[segments[1]]
    weights = weights_at(segments, t, bandwidth_scale=scale)
    assert weights[TABLE.class_id("m")] == pytest.approx(m_raw / (m_raw + a_raw))
    assert weights[TABLE.class_id("a")] == pytest.approx(a_raw / (m_raw + a_raw))


def test_closure_no_labials_unchanged():
    segments = (PhonemeSegment("a", 0.0, 0.5), PhonemeSegment("i", 0.5, 1.0))
    assert force_labial_closure(segments, TABLE) == segments


def test_closure_lone_labial_unchanged():
    segments = (PhonemeSegment("b", 0.0, 0.5),)
    assert force_labial_closure(segments, TABLE) == segments


def test_closure_extends_toward_neighbours():
    segments = (
        PhonemeSegment("a", 0.0, 1.0),
        PhonemeSegment("m", 1.0, 1.1),
        PhonemeSegment("a", 1.1, 2.1),
    )
    forced = force_labial_closure(segments, TABLE, margin=0.4)
    labial = forced[1]
    assert labial.start == pytest.approx(1.0 - 0.04)  # 40% of 0.1
    assert labial.end == pytest.approx(1.1 + 0.04)
    assert forced[0] == segments[0]
    assert forced[2] == segments[2]


def test_closure_capped_at_half_neighbour():
    segments = (
        PhonemeSegment("a", 0.0, 0.02),
        PhonemeSegment("m", 0.02, 0.42),   # 40% would be 0.16
        PhonemeSegment("i", 0.42, 0.46),
    )
    forced = force_labial_closure(segments, TABLE, margin=0.4)
    assert forced[1].start == pytest.approx(0.02 - 0.01)  # half of 0.02
    assert forced[1].end == pytest.approx(0.42 + 0.02)    # half of 0.04


def test_mama_has_pure_labial_frames():
    segments = (
        PhonemeSegment("m", 0.0, 0.12),
        PhonemeSegment("a", 0.12, 0.30),
        PhonemeSegment("m", 0.30, 0.42),
        PhonemeSegment("a", 0.42, 0.60),
    )
    frames = render_timeline(segments, [], TABLE, frame_rate=85.0)
    for labial in (segments[0], segments[2]):
        inside = [
            f for f in frames if labial.start <= f.timestamp <= labial.end
        ]
        assert inside, "no frames landed inside the labial segment"
        assert max(f.visemes[LABIAL_ID] for f in inside) >= 0.99


SPEECH = (PhonemeSegment("a", 0.0, 0.5), PhonemeSegment("m", 0.5, 1.0))


def test_blend_zero_level_is_identity():
    plain = render_timeline(SPEECH, [], TABLE)
    blended = render_timeline(SPEECH, [(0.0, "joy", 0.0)], TABLE)
    assert np.array_equal(blended.visemes, plain.visemes)
    assert (blended.expressions["joy"] == 0.0).all()


def test_blend_full_level():
    plain = render_timeline(SPEECH, [], TABLE, frame_rate=10.0)
    blended = render_timeline(SPEECH, [(0.25, "joy", 1.0)], TABLE, frame_rate=10.0)
    assert np.array_equal(blended.times, plain.times)
    assert np.array_equal(blended.visemes, plain.visemes)
    assert blended.expressions["joy"].tolist() == [0.0] * 3 + [1.0] * 8


def test_blend_silence_half_joy(templates):
    # Five classes: 3 of 4 possible votes map to intensity 0.5.
    result = VoteResult("joy", 3, (), {}, ("joy", "fear", "anger", "sadness", "neutral"))
    _, mouth = ImitationSession(templates, debounce=1).consume(result, 0.0)
    assert mouth.visemes.sum() == 0.0
    assert (mouth.expressions["joy"] == 0.5).all()


def test_blend_clamps_with_warning():
    with pytest.warns(ClampWarning):
        blended = render_timeline(SPEECH, [(0.0, "fear", 1.5)], TABLE)
    assert (blended.expressions["fear"] == 1.0).all()


def test_blend_rejects_non_expression_target():
    # Neutral is the resting mouth every channel is an offset from: a track
    # entry naming it sets no channel, whatever its level.
    frames = render_timeline(SPEECH, [(0.0, "neutral", 0.5)], TABLE)
    assert frames.expressions == {}
    assert all(frame.expressions == {} for frame in frames)


def test_exactly_one_neutral_morph_target():
    # Every expression but one has its own timeline channel; only the
    # neutral mouth has none, being the shared target the offsets start from.
    columns = timeline_columns()
    without_channel = {e for e in Expression if e.value not in columns}
    assert without_channel == {Expression.NEUTRAL}
    assert columns[1 + 3] == "viseme_03"
    frames = render_timeline(SPEECH, [(0.0, "joy", 0.5)], TABLE)
    assert list(frames.expressions) == ["joy"]
    table = frames.channel_table()
    assert (table[:, 1 + len(frames.visemes[0]):] != 0).sum(axis=1).tolist() == [1] * len(frames)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_bandwidth_must_be_positive(scale):
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    with pytest.raises(ValueError, match="bandwidth_scale must be positive"):
        class_weights_at(segments, [0.5], TABLE, bandwidth_scale=scale)
    with pytest.raises(ValueError, match="bandwidth_scale must be positive"):
        render_timeline(segments, [], TABLE, bandwidth_scale=scale)


def test_render_rejects_unknown_expression():
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    with pytest.raises(ValueError, match="'Joy' is not a valid Expression"):
        render_timeline(segments, [(0.0, "Joy", 1.0)], TABLE)


def test_render_empty_transcript():
    assert len(render_timeline((), [(0.0, "joy", 1.0)], TABLE)) == 0


def test_render_frame_count_one_second():
    segments = (PhonemeSegment("a", 0.0, 0.5), PhonemeSegment("i", 0.5, 1.0))
    frames = render_timeline(segments, [], TABLE, frame_rate=85.0)
    assert len(frames) == 86


def test_render_constant_expression_track():
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    frames = render_timeline(segments, [(0.0, "joy", 1.0)], TABLE)
    assert all(f.expressions.get("joy") == 1.0 for f in frames)


def test_render_track_steps_and_neutral_clears():
    segments = (PhonemeSegment("a", 0.0, 1.0),)
    track = [(0.0, "joy", 0.8), (0.5, "neutral", 0.0)]
    frames = render_timeline(segments, track, TABLE, frame_rate=10.0)
    assert frames.expressions["joy"][0] == 0.8
    assert frames.expressions["joy"][-1] == 0.0


def test_render_deterministic():
    segments = (
        PhonemeSegment("m", 0.0, 0.2),
        PhonemeSegment("a", 0.2, 0.5),
        PhonemeSegment("s", 0.5, 0.8),
    )
    first = render_timeline(segments, [(0.0, "anger", 0.4)], TABLE)
    second = render_timeline(segments, [(0.0, "anger", 0.4)], TABLE)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.visemes, b.visemes)
        assert a.expressions == b.expressions


_POOL = ("m", "a", "b", "i", "t", "s", "p", "u", "k", "sil")


@st.composite
def transcripts(draw):
    count = draw(st.integers(2, 8))
    t = draw(st.floats(0.0, 0.1))
    segments = []
    for _ in range(count):
        phoneme = draw(st.sampled_from(_POOL))
        duration = draw(st.floats(0.012, 0.3))
        segments.append(PhonemeSegment(phoneme, t, t + duration))
        t += duration + draw(st.sampled_from((0.0, 0.0, 0.05)))
    return tuple(segments)


@settings(max_examples=60, deadline=None)
@given(transcript=transcripts())
def test_rendered_frames_are_normalized(transcript):
    frames = render_timeline(transcript, [], TABLE, frame_rate=85.0)
    for frame in frames:
        assert (frame.visemes >= 0.0).all()
        total = frame.visemes.sum()
        assert total == 0.0 or abs(total - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(transcript=transcripts())
def test_labial_guarantee_on_random_transcripts(transcript):
    frames = render_timeline(transcript, [], TABLE, frame_rate=85.0)
    period = 1.0 / 85.0
    for segment in transcript:
        if TABLE.class_id(segment.phoneme) != LABIAL_ID:
            continue
        if segment.duration <= 2 * period:
            continue
        inside = [
            f for f in frames if segment.start <= f.timestamp <= segment.end
        ]
        assert max(f.visemes[LABIAL_ID] for f in inside) >= 0.99


def test_smoothness_bound_without_labials():
    # With overlapping kernels (scale 2) the normalized mixture is smooth;
    # per-frame changes must respect the numerically measured maximum slope.
    segments = (
        PhonemeSegment("a", 0.0, 0.2),
        PhonemeSegment("i", 0.2, 0.4),
        PhonemeSegment("t", 0.4, 0.6),
        PhonemeSegment("u", 0.6, 0.8),
    )
    fine = np.arange(0.0, 0.8 + 1e-9, 2e-4)
    weights = class_weights_at(segments, fine, TABLE, 2.0)
    slope = np.abs(np.diff(weights, axis=1)).max() / 2e-4

    frames = render_timeline(segments, [], TABLE, frame_rate=85.0, bandwidth_scale=2.0)
    stacked = np.stack([f.visemes for f in frames])
    frame_delta = np.abs(np.diff(stacked, axis=0)).max()
    assert frame_delta <= slope * (1.0 / 85.0) * 1.05 + 1e-9


def test_timeline_csv(tmp_path):
    segments = (PhonemeSegment("a", 0.0, 0.5),)
    frames = render_timeline(segments, [(0.0, "joy", 1.0)], TABLE, frame_rate=10.0)
    path = tmp_path / "timeline.csv"
    write_timeline_csv(frames, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(timeline_columns())
    assert len(lines) == len(frames) + 1


def test_timeline_jsonl(tmp_path):
    frames = render_timeline((PhonemeSegment("a", 0.0, 0.5),), [], TABLE, frame_rate=10.0)
    path = tmp_path / "timeline.jsonl"
    write_timeline_jsonl(frames, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(frames)
    assert len(records[0]["visemes"]) == 20


def test_preview_frames(tmp_path):
    frames = render_timeline((PhonemeSegment("a", 0.0, 0.2),), [], TABLE, frame_rate=10.0)
    paths = write_preview_pgms(frames, tmp_path / "preview")
    assert len(paths) == len(frames)
    assert all(p.exists() for p in paths)
    image = read_pnm(paths[1]).pixels
    assert image.shape == (64, 5 * (VISEME_CLASS_COUNT + 6))
    assert image.max() == 255
    # A channel at weight 1 lights 63 of 64 rows over four of its five columns.
    column = TABLE.class_id("a")
    assert (image[1:, 5 * column : 5 * column + 4] == 255).all()
    assert not image[0].any() and not image[:, 5 * column + 4].any()


def test_failed_preview_write_keeps_previous_frame(tmp_path, monkeypatch):
    directory = tmp_path / "preview"
    directory.mkdir()
    first = directory / "frame_00000.pgm"
    first.write_bytes(b"old frame")

    def refuse(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(records.os, "replace", refuse)
    frames = render_timeline((PhonemeSegment("a", 0.0, 0.2),), [], TABLE, frame_rate=10.0)
    with pytest.raises(OSError, match="rename refused"):
        write_preview_pgms(frames, directory)
    assert first.read_bytes() == b"old frame"
    assert sorted(p.name for p in directory.iterdir()) == [first.name]
