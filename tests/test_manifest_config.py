"""Manifest ingestion and configuration parsing."""

import dataclasses

import pytest

from bearface.config import ConfigError, RunConfig, load_config, parse_config, save_config
from bearface.kernels import AutoRbf, PolyKernel
from bearface.manifest import (
    ManifestEntry,
    ingest_sequences,
    read_manifest,
)


def _write_dataset(tmp_path, rows, classes="anger joy neutral"):
    lines = ["bearface-manifest 1", f"classes = {classes}"]
    for image, landmarks, label, subject, sequence, frame in rows:
        (tmp_path / image).write_bytes(b"P5\n1 1\n255\n\x00")
        (tmp_path / landmarks).write_text("0 0\n" * 68)
        lines.append("\t".join((image, landmarks, label, subject, sequence, str(frame))))
    path = tmp_path / "data.manifest"
    path.write_text("\n".join(lines) + "\n")
    return path


def _sequence_rows(label, subject, sequence, count):
    return [
        (f"{sequence}_{i}.pgm", f"{sequence}_{i}.pts", label, subject, sequence, i)
        for i in range(count)
    ]


def test_manifest_round_trip(tmp_path):
    path = _write_dataset(tmp_path, _sequence_rows("joy", "s1", "q0", 4))
    manifest = read_manifest(path)
    assert manifest.class_names == ("anger", "joy", "neutral")
    assert [(e.image.name, e.label, e.subject, e.sequence, e.frame) for e in manifest.entries] == [
        (f"q0_{i}.pgm", "joy", "s1", "q0", i) for i in range(4)
    ]


def test_manifest_rejects_unknown_label(tmp_path):
    with pytest.raises(ValueError, match="not in declared classes"):
        _write_dataset(tmp_path, _sequence_rows("panic", "s1", "q0", 4))
        read_manifest(tmp_path / "data.manifest")


def test_manifest_missing_file(tmp_path):
    path = _write_dataset(tmp_path, _sequence_rows("joy", "s1", "q0", 4))
    (tmp_path / "q0_2.pgm").unlink()
    with pytest.raises(FileNotFoundError, match="q0_2.pgm"):
        read_manifest(path)


def test_ingest_ten_frame_sequence(tmp_path):
    path = _write_dataset(tmp_path, _sequence_rows("joy", "s1", "q0", 10))
    samples, diagnostics = ingest_sequences(read_manifest(path))
    assert diagnostics == []
    assert len(samples) == 4
    assert [s.label for s in samples] == ["neutral", "joy", "joy", "joy"]
    assert [s.frame for s in samples] == [0, 7, 8, 9]


def test_ingest_returns_manifest_entries(tmp_path):
    manifest = read_manifest(_write_dataset(tmp_path, _sequence_rows("joy", "s1", "q0", 5)))
    samples, _ = ingest_sequences(manifest)
    assert all(type(s) is ManifestEntry for s in samples)
    # Only the label changes: frame 0 is relabelled neutral.
    assert samples[0] == dataclasses.replace(manifest.entries[0], label="neutral")
    assert samples[1:] == list(manifest.entries[2:])


def test_ingest_four_frame_boundary(tmp_path):
    path = _write_dataset(tmp_path, _sequence_rows("anger", "s2", "q1", 4))
    samples, _ = ingest_sequences(read_manifest(path))
    assert [s.frame for s in samples] == [0, 1, 2, 3]
    assert [s.label for s in samples] == ["neutral", "anger", "anger", "anger"]


def test_ingest_short_sequence_skipped(tmp_path):
    rows = _sequence_rows("joy", "s1", "ok", 4) + _sequence_rows("anger", "s1", "tiny", 3)
    path = _write_dataset(tmp_path, rows)
    samples, diagnostics = ingest_sequences(read_manifest(path))
    assert len(samples) == 4
    assert len(diagnostics) == 1
    assert "tiny" in diagnostics[0]


def test_ingest_requires_neutral_class(tmp_path):
    path = _write_dataset(
        tmp_path, _sequence_rows("joy", "s1", "q0", 4), classes="anger joy"
    )
    with pytest.raises(ValueError, match="neutral"):
        ingest_sequences(read_manifest(path))


def test_config_defaults_and_echo():
    config = RunConfig()
    lines = config.to_lines()
    assert lines[0] == "bearface-config 1"
    assert "seed = 0" in lines
    assert "kernels = rbf poly" in lines
    # The echo parses back to the identical configuration.
    assert parse_config("\n".join(lines)) == config


def test_config_file_round_trip(tmp_path):
    config = dataclasses.replace(RunConfig(), seed=9, cv_folds=5, rbf_gamma=0.25)
    path = tmp_path / "run.config"
    save_config(config, path)
    assert load_config(path) == config


def test_config_overrides():
    text = "bearface-config 1\nseed = 3\nmode = au\nhog_bins = 9\n"
    config = parse_config(text)
    assert config.seed == 3
    assert config.mode == "au"
    assert config.hog_bins == 9
    assert config.cv_folds == 10  # untouched default


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("bearface-config 1\nwibble = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("bearface-config 1\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="must start"):
        parse_config("seed = 1\n")
    with pytest.raises(ConfigError, match="^line 2: seed must be int, got 'banana'$"):
        parse_config("bearface-config 1\nseed = banana\n")
    with pytest.raises(ConfigError):
        parse_config("bearface-config 1\ncv_scheme = alphabetical\n")


@pytest.mark.parametrize(
    ("line", "problem"),
    [
        ("pca_energy = 2", "pca_energy must be in (0, 1]"),
        ("include_bias = maybe", "include_bias must be boolean, got 'maybe'"),
        # A negative seed used to fail only in eval, with numpy's message.
        ("seed = -1", "seed must be at least 0, got -1"),
        ("rbf_gamma = fast", "rbf_gamma must be float, got 'fast'"),
        ("wibble = 3", "unknown configuration key 'wibble'"),
    ],
)
def test_config_errors_name_the_line(line, problem):
    with pytest.raises(ConfigError) as info:
        parse_config(f"bearface-config 1\n# note\n{line}\n", origin="run.config")
    assert str(info.value) == f"run.config:3: {problem}"


def test_config_kernel_plans():
    config = RunConfig()
    plans = config.kernel_plans()
    assert len(plans) == 4  # 2 descriptors x 2 kernels
    assert plans[0][0] == "lbph" and isinstance(plans[0][1], AutoRbf)
    assert isinstance(plans[1][1], PolyKernel)
    fixed = dataclasses.replace(config, rbf_gamma=0.5, descriptors=("hog",))
    plans = fixed.kernel_plans()
    assert len(plans) == 2
    assert plans[0][1].gamma == 0.5
