"""Viseme table semantics and transcript parsing."""

import pytest

from bearface.visemes import (
    PhonemeSegment,
    UnknownPhonemeError,
    VisemeClass,
    VisemeTable,
    bundled_transcript,
    load_viseme_table,
    parse_transcript,
    parse_viseme_table,
    read_transcript,
)


def test_default_table_shape(viseme_table):
    assert len(viseme_table.classes) == 20
    assert [c.id for c in viseme_table.classes] == list(range(20))


def test_labials_share_one_class(viseme_table):
    b, p, m = (viseme_table.class_id(phoneme) for phoneme in ("b", "p", "m"))
    assert b == p == m
    assert viseme_table.classes[b].labial
    assert viseme_table.labial_ids() == {b}


def test_silence_marker_maps_to_silence_class(viseme_table):
    silence = viseme_table.class_id("sil")
    assert {viseme_table.class_id(m) for m in ("sil", "sp", "pau")} == {silence}
    assert not viseme_table.classes[silence].labial


def test_vowel_and_labial_differ(viseme_table):
    assert viseme_table.class_id("a") != viseme_table.class_id("b")


def test_unknown_phoneme_names_symbol(viseme_table):
    with pytest.raises(UnknownPhonemeError, match="xx"):
        viseme_table.class_id("xx")


def test_table_rejects_duplicate_ownership():
    classes = [VisemeClass(i, frozenset({f"q{i}"})) for i in range(20)]
    classes[1] = VisemeClass(1, frozenset({"b", "p", "m"}), labial=True)
    classes[2] = VisemeClass(2, frozenset({"q2", "b"}))
    with pytest.raises(ValueError, match="appears in classes"):
        VisemeTable(classes)


def test_table_requires_labial_bpm():
    classes = [VisemeClass(i, frozenset({f"q{i}"})) for i in range(20)]
    with pytest.raises(ValueError, match="labial"):
        VisemeTable(classes)


def test_table_requires_twenty_classes():
    classes = [VisemeClass(i, frozenset({f"q{i}"})) for i in range(19)]
    with pytest.raises(ValueError, match="exactly 20"):
        VisemeTable(classes)


def test_table_file_rejects_bad_magic():
    with pytest.raises(ValueError, match="must start"):
        parse_viseme_table("something-else 1\n0 0 sil\n")


def test_custom_table_file_round_trip(tmp_path, viseme_table):
    # The documented format survives a rewrite: id, labial flag, members.
    lines = ["bearface-visemes 1", "# custom copy"]
    for cls in viseme_table.classes:
        members = " ".join(sorted(cls.phonemes))
        lines.append(f"{cls.id} {int(cls.labial)} {members}  # inline note")
    path = tmp_path / "custom.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_viseme_table(path)
    for original, restored in zip(viseme_table.classes, loaded.classes):
        assert restored.phonemes == original.phonemes
        assert restored.labial == original.labial


@pytest.mark.parametrize(
    ("line", "problem"),
    [
        ("0 maybe sil", "labial must be boolean, got 'maybe'"),
        ("0 0", "expected 'id labial phonemes...', got 2 fields"),
        ("25 0 sil", "viseme class id 25 outside 0..19"),
    ],
)
def test_table_file_errors_name_the_line(tmp_path, line, problem):
    path = tmp_path / "table.txt"
    path.write_text(f"bearface-visemes 1\n# note\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_viseme_table(path)
    assert str(info.value) == f"{path}:3: {problem}"


def test_segment_validation():
    with pytest.raises(ValueError):
        PhonemeSegment("a", 1.0, 1.0)
    with pytest.raises(ValueError):
        PhonemeSegment("", 0.0, 1.0)
    segment = PhonemeSegment("a", 0.2, 0.6)
    assert segment.duration == pytest.approx(0.4)
    assert segment.midpoint == pytest.approx(0.4)


def test_transcript_parse_and_order():
    transcript = parse_transcript("0.0 0.5 m\n0.5 1.0 a\n")
    assert [s.phoneme for s in transcript] == ["m", "a"]
    with pytest.raises(ValueError, match="overlap"):
        parse_transcript("0.0 0.6 m\n0.5 1.0 a\n")
    with pytest.raises(ValueError, match="expected"):
        parse_transcript("0.0 0.5\n")


@pytest.mark.parametrize(
    ("text", "problem"),
    [("0 inf a\n", "line 1: segment 'a': times must be finite, got 0.0 and inf"),
     ("nan 1 a\n", "line 1: segment 'a': times must be finite, got nan and 1.0"),
     ("-inf 0 a\n", "line 1: segment 'a': times must be finite, got -inf and 0.0")],
)
def test_transcript_times_must_be_finite(text, problem):
    with pytest.raises(ValueError) as caught:
        parse_transcript(text)
    assert str(caught.value) == problem


# Parsed only: rendering these spans would ask for billions of frames.
@pytest.mark.parametrize(
    ("text", "problem"),
    [("0 1e9 a\n", "line 1: transcript span must be at most 60 s, got 1000000000.0"),
     ("0 30 a\n30 60.5 b\n", "line 2: transcript span must be at most 60 s, got 60.5"),
     ("-1e308 1e308 a\n", "line 1: transcript span must be finite, got inf")],
)
def test_transcript_span_follows_the_duration_rule(text, problem):
    with pytest.raises(ValueError) as caught:
        parse_transcript(text)
    assert str(caught.value) == problem


def test_transcript_span_counts_from_the_first_start(tmp_path):
    # 60 s of speech that starts late is still within the bound.
    transcript = parse_transcript("100 130 a\n130 160 b\n")
    assert transcript[-1].end - transcript[0].start == 60.0
    path = tmp_path / "long.align"
    path.write_text("100 130 a\n130 160.25 b\n")
    with pytest.raises(ValueError, match=f"^{path}:2: transcript span"):
        read_transcript(path)


def test_transcript_round_trip(tmp_path):
    text = "0.0 0.5 m\n0.5 1.0 ɑ\n"
    path = tmp_path / "demo.align"
    path.write_text(text, encoding="utf-8")
    assert read_transcript(path) == parse_transcript(text)


def test_bundled_demo_spans_one_second():
    transcript = bundled_transcript()
    assert transcript[0].start == 0.0
    assert transcript[-1].end == 1.0
