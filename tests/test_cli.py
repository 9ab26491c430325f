"""End-to-end command-line pipeline on a synthetic dataset."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bearface
from bearface.arraystore import read_store, write_store
from bearface.cli import build_parser, main
from bearface.extraction import describe_faces, describe_image
from bearface.imaging import read_pnm
from bearface.manifest import read_manifest
from bearface.modelio import FeatureParams, load_model
from bearface.multiclass import classify
from bearface.registration import mean_reference, read_landmarks
from bearface.servo import decode_servo_commands


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    """Smaller folds and PCA keep the pipeline tests quick."""
    path = tmp_path_factory.mktemp("config") / "run.config"
    path.write_text("bearface-config 1\ncv_folds = 5\npca_energy = 0.9\n")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, synthetic_dataset, fast_config):
    """Features and model built once for the read-only command tests."""
    out = tmp_path_factory.mktemp("pipeline")
    code = main(
        ["extract", "--manifest", str(synthetic_dataset), "--config", fast_config,
         "--out", str(out)]
    )
    assert code == 0
    code = main(["train", "--config", fast_config, "--out", str(out)])
    assert code == 0
    return out


def test_extract_and_train_artifacts(pipeline_out):
    assert (pipeline_out / "features.store").is_file()
    assert (pipeline_out / "model.store").is_file()
    assert (pipeline_out / "resolved_config.txt").is_file()


def test_eval_writes_report(pipeline_out, fast_config):
    code = main(["eval", "--config", fast_config, "--out", str(pipeline_out)])
    assert code == 0
    report = (pipeline_out / "report.txt").read_text()
    assert "overall recognition rate" in report
    assert "configuration:" in report
    assert "anger" in report and "neutral" in report
    header = report.splitlines()
    matrix_rows = [line for line in header if line.startswith(("anger", "surprise", "disgust", "fear", "joy", "sadness", "neutral"))]
    assert len(matrix_rows) == 7
    csv_text = (pipeline_out / "confusion.csv").read_text()
    assert csv_text.splitlines()[0].startswith("true\\predicted,anger,surprise")


def test_eval_person_independent_scheme(pipeline_out, fast_config, tmp_path):
    out = tmp_path / "pi"
    code = main(
        ["eval", "--config", fast_config, "--out", str(out),
         "--features", str(pipeline_out / "features.store"),
         "--scheme", "person-independent", "--seed", "9"]
    )
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "scheme: person-independent" in report
    assert "seed = 9" in report  # CLI override lands in the config echo


def test_classify_command(
    pipeline_out, synthetic_dataset, fast_config, tmp_path, capsys
):
    out = tmp_path / "cls"
    code = main(
        ["classify", "--manifest", str(synthetic_dataset), "--config", fast_config,
         "--model", str(pipeline_out / "model.store"), "--out", str(out)]
    )
    assert code == 0
    # Frame 0 of every sequence trains as neutral and counts as a match there.
    assert "classified 48 images (48 match their labels)" in capsys.readouterr().out
    records = [
        json.loads(line)
        for line in (out / "classifications.jsonl").read_text().splitlines()
    ]
    assert len(records) == 48  # every manifest row
    for record in records:
        assert record["winner"] in record["tally"]
        assert 0.0 <= record["intensity"] <= 1.0
    # The manifest is scored in one batch; one query at a time is the reference.
    bundle = load_model(pipeline_out / "model.store")
    for entry, record in zip(read_manifest(synthetic_dataset).entries, records):
        landmarks = read_landmarks(entry.landmarks)
        blocks = describe_image(read_pnm(entry.image), landmarks, bundle.reference, bundle.feature)
        single = classify(bundle.model, blocks)
        assert record["winner"] == single.winner
        assert record["tally"] == dict(zip(single.class_names, single.tally))


@pytest.mark.parametrize("descriptors", [("lbph", "hog"), ("hog", "lbph"), ("hog",)])
def test_describe_faces_blocks_stack_describe_image(synthetic_dataset, descriptors):
    entries = read_manifest(synthetic_dataset).entries[::7]
    faces = [(entry.image, read_landmarks(entry.landmarks)) for entry in entries]
    reference = mean_reference([landmarks for _, landmarks in faces])
    feature = FeatureParams(descriptors, grid=4, hog_bins=9)
    blocks = describe_faces(faces, reference, feature)
    assert list(blocks) == list(descriptors)
    singles = [describe_image(read_pnm(path), landmarks, reference, feature)
               for path, landmarks in faces]
    for name, block in blocks.items():
        expected = np.vstack([single[name] for single in singles])
        assert block.dtype == expected.dtype and block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()


def test_classify_manifest_without_images(pipeline_out, fast_config, tmp_path, capsys):
    manifest = tmp_path / "empty.manifest"
    manifest.write_text("bearface-manifest 1\nclasses = neutral joy\n")
    out = tmp_path / "cls"
    code = main(
        ["classify", "--manifest", str(manifest), "--config", fast_config,
         "--model", str(pipeline_out / "model.store"), "--out", str(out)]
    )
    assert code == 0
    assert "classified 0 images (0 match their labels)" in capsys.readouterr().out
    assert (out / "classifications.jsonl").read_text() == ""


def _single_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_config_directory_reports_error(tmp_path, capsys):
    code = main(["animate", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys)["kind"] == "IsADirectoryError"


def _header_line(entries, name: str) -> int:
    """The line of entry `name` in a store: each entry before it is one
    line, and each array's payload one more."""
    names = list(entries)
    return 2 + sum(1 + isinstance(entries[n], np.ndarray) for n in names[:names.index(name)])


def _edit_payload(store: Path, name: str, edit) -> tuple[bytes, int]:
    """The store's bytes with array `name`'s payload edited, and the line of its header."""
    entries = read_store(store)
    data = store.read_bytes()
    begin = data.index(b"\n", data.index(f"\narray {name} ".encode()) + 1) + 1
    end = begin + entries[name].nbytes
    return data[:begin] + edit(data[begin:end]) + data[end:], _header_line(entries, name)


def test_truncated_model_reports_entry(
    pipeline_out, synthetic_dataset, tmp_path, capsys
):
    data, line = _edit_payload(pipeline_out / "model.store", "dual_coef", lambda p: p[:-8])
    truncated = tmp_path / "model.store"
    truncated.write_bytes(data)
    code = main(
        ["classify", "--manifest", str(synthetic_dataset), "--model", str(truncated),
         "--out", str(tmp_path / "cls")]
    )
    assert code == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"].startswith(f"{truncated}:{line}: entry 'dual_coef': ")


@pytest.mark.parametrize(
    ("store", "entry", "kind", "command"),
    [
        ("model.store", "pool_hog", "model", "classify"),
        ("features.store", "reference", "features", "train"),
    ],
)
def test_missing_store_entry_names_file(
    pipeline_out, synthetic_dataset, fast_config, tmp_path, capsys,
    store, entry, kind, command,
):
    entries = dict(read_store(pipeline_out / store))
    del entries[entry]
    damaged = tmp_path / store
    write_store(entries, damaged)
    if command == "classify":
        argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    else:
        argv = ["train", "--config", fast_config, "--features", str(damaged)]
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert str(damaged) in record["error"]
    assert f"{kind} store" in record["error"]
    assert repr(entry) in record["error"]


@pytest.mark.parametrize(
    ("changes", "problem"),
    [
        ({"bank0_kernel": "sigmoid"}, "bank0_kernel: unknown kernel kind 'sigmoid'"),
        ({"bank0_degree": 2.0}, "bank0_degree: stored as float, expected int"),
        ({"bank0_kernel": "rbf", "bank0_gamma": float("inf")},
         "bank0: rbf gamma must be positive and finite, got inf"),
        ({"bank0_offset": float("nan")}, "bank0: poly offset must be >= 0 and finite, got nan"),
        ({"bank0_scale": None}, "model store lacks the 'bank0_scale' entry"),
    ],
    ids=["unknown-kind", "float-degree", "infinite-gamma", "nan-offset", "missing-scale"],
)
def test_bad_kernel_entry_names_store_entry(
    pipeline_out, synthetic_dataset, tmp_path, capsys, changes, problem
):
    # Entry 0 of the pipeline's model is a polynomial kernel; None drops an entry.
    entries = dict(read_store(pipeline_out / "model.store"))
    assert entries["bank0_kernel"] == "poly"
    entries.update(changes)
    entries = {name: value for name, value in entries.items() if value is not None}
    damaged = tmp_path / "model.store"
    write_store(entries, damaged)
    code = main(
        ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged),
         "--out", str(tmp_path / "cls")]
    )
    assert code == 2
    assert _single_error(capsys)["error"] == f"{damaged}: {problem}"


def test_a_model_with_text_kernel_specs_is_refused(
    pipeline_out, synthetic_dataset, tmp_path, capsys
):
    # The layout before typed bank entries: `bank_count` and a text spec per entry.
    entries = {name: value for name, value in read_store(pipeline_out / "model.store").items()
               if not name.startswith("bank")}
    entries.update({"bank_count": 2, "bank0_block": "lbph", "bank1_block": "hog",
                    "bank0_spec": "poly degree=2 offset=1.0 scale=1.0",
                    "bank1_spec": "poly degree=2 offset=1.0 scale=1.0"})
    old = tmp_path / "model.store"
    write_store(entries, old)
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(old)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == {
        "error": f"{old}: bank0_spec: a text kernel spec; retrain with 'bearface train'",
        "kind": "ValueError",
    }


@pytest.mark.parametrize(
    ("entry", "value", "problem"),
    [
        ("feature_grid", 0, "grid must be at least 1, got 0"),
        ("feature_grid", 64,
         "grid must divide the 128-px crop into windows of at least 3 px, got 64"),
        ("feature_hog_bins", 0, "hog_bins must be at least 1, got 0"),
        ("feature_hog_bins", 181, "hog_bins must be at most 180, got 181"),
        ("feature_descriptors", "lbph sift",
         "descriptors must be from lbph/hog, got ('lbph', 'sift')"),
        # A repeated descriptor built every Gram twice and split each pair's
        # weight between the copies.
        ("feature_descriptors", "hog hog", "descriptors must not repeat, got ('hog', 'hog')"),
    ],
)
@pytest.mark.parametrize("store", ["model.store", "features.store"])
def test_bad_feature_setting_names_store_entry(
    pipeline_out, synthetic_dataset, tmp_path, capsys, store, entry, value, problem
):
    # Before the stored settings followed the config's rule, grid 0 ended
    # in a ZeroDivisionError traceback and the others named no file.
    entries = dict(read_store(pipeline_out / store))
    entries[entry] = value
    damaged = tmp_path / store
    write_store(entries, damaged)
    if store == "model.store":
        argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    else:
        argv = ["train", "--features", str(damaged)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys)["error"] == f"{damaged}: {entry}: {problem}"


def test_model_descriptors_lacking_a_read_block_name_file(
    pipeline_out, synthetic_dataset, tmp_path, capsys
):
    # Such a bundle used to load, and classify failed with a bare KeyError: 'hog'.
    entries = dict(read_store(pipeline_out / "model.store"))
    bank_size = entries["kernel_weights"].shape[1]
    assert {entries[f"bank{m}_block"] for m in range(bank_size)} == {"hog", "lbph"}
    entries["feature_descriptors"] = "lbph"
    damaged = tmp_path / "model.store"
    write_store(entries, damaged)
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == {
        "error": f"{damaged}: feature_descriptors: lacks block 'hog', which the kernel bank reads",
        "kind": "ValueError",
    }
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("store", "entry", "value", "problem"),
    [
        ("model.store", "feature_grid", np.array([8, 8]),
         "feature_grid: stored as array, expected int"),
        ("model.store", "bank0_kernel", 7, "bank0_kernel: stored as int, expected str"),
        ("model.store", "classes", np.arange(7), "classes: stored as array, expected str"),
        ("model.store", "bias", 0.5, "bias: stored as float, expected array"),
        ("model.store", "pca_hog_energy", 1, "pca_hog_energy: stored as int, expected float"),
        ("features.store", "feature_grid", np.array([8, 8]),
         "feature_grid: stored as array, expected int"),
        ("features.store", "labels", 3, "labels: stored as int, expected str"),
        ("features.store", "block_hog", "hog", "block_hog: stored as str, expected array"),
        ("model.store", "bias", np.zeros(3), "bias has shape (3,), expected (21,)"),
        ("model.store", "reference", np.zeros((3, 2)), "landmark set must be (68, 2), got (3, 2)"),
        ("features.store", "reference", np.full((68, 2), np.nan),
         "landmark coordinates must be finite"),
    ],
)
def test_wrong_kind_or_shape_of_store_entry_names_file(
    pipeline_out, synthetic_dataset, fast_config, tmp_path, capsys, store, entry, value, problem
):
    # An array grid used to end in a TypeError traceback, and the other
    # cases in an error that named no file or in a model that loaded.
    entries = dict(read_store(pipeline_out / store))
    entries[entry] = value
    damaged = tmp_path / store
    write_store(entries, damaged)
    if store == "model.store":
        argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    else:
        argv = ["train", "--config", fast_config, "--features", str(damaged)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys)["error"] == f"{damaged}: {problem}"


def _store_case(entries, case):
    """Damage `entries` in place as `case` says; returns the expected error."""
    rows = len(entries["block_hog"]) if "block_hog" in entries else None
    if case == "label-dropped":
        entries["labels"] = entries["labels"].split(" ", 1)[1]
        return f"labels has {rows - 1} entries, expected one per row of block 'hog' ({rows})"
    if case == "subject-dropped":
        entries["subjects"] = entries["subjects"].split("\t", 1)[1]
        return f"subjects has {rows - 1} entries, expected one per row of block 'hog' ({rows})"
    if case == "pool-cut":
        k = entries["pca_hog_components"].shape[1]
        entries["pool_hog"] = entries["pool_hog"][:, :5]
        return f"pool block 'hog' has 5 columns, expected the {k} components of its PCA model"
    d = len(entries["pca_hog_mean"])
    entries["pca_hog_mean"] = entries["pca_hog_mean"][1:]
    return f"PCA mean has shape ({d - 1},), expected ({d},) for {d} component rows"


@pytest.mark.parametrize(
    ("store", "case"),
    [("features.store", "label-dropped"), ("features.store", "subject-dropped"),
     ("model.store", "pool-cut"), ("model.store", "mean-cut")],
)
def test_store_arrays_that_do_not_fit_name_file(
    pipeline_out, synthetic_dataset, fast_config, tmp_path, capsys, store, case
):
    # A dropped label used to fail in training with "block 'hog' has 48
    # rows, expected 47", and a cut pool in classify with "feature
    # dimensions differ", neither naming the file.
    entries = dict(read_store(pipeline_out / store))
    problem = _store_case(entries, case)
    damaged = tmp_path / store
    write_store(entries, damaged)
    if store == "model.store":
        argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    else:
        argv = ["train", "--config", fast_config, "--features", str(damaged)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys)["error"] == f"{damaged}: {problem}"


# Each float array of a model store, the row (entry of a vector) that gets
# the bad value, and the record's name for it.
_MODEL_ARRAYS = {
    "pool_hog": (1, "pool block 'hog' row"),
    "pool_lbph": (0, "pool block 'lbph' row"),
    "dual_coef": (2, "dual_coef row"),
    "bias": (3, "bias entry"),
    "kernel_weights": (4, "kernel_weights row"),
    "pca_hog_mean": (5, "PCA mean entry"),
    "pca_hog_components": (6, "PCA components row"),
    "pca_lbph_variances": (1, "PCA variances entry"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", _MODEL_ARRAYS)
def test_non_finite_model_array_names_file(
    pipeline_out, synthetic_dataset, tmp_path, capsys, entry, bad
):
    # A NaN in dual_coef, bias or kernel_weights used to load and classify
    # silently (a NaN decision votes for the pair's second class), and one
    # in the PCA components was reported as a fault of the query.
    entries = dict(read_store(pipeline_out / "model.store"))
    row, name = _MODEL_ARRAYS[entry]
    values = entries[entry].copy()
    values.reshape(len(values), -1)[row, -1] = bad
    entries[entry] = values
    damaged = tmp_path / "model.store"
    write_store(entries, damaged)
    problem = f"{damaged}: non-finite values in {name} {row}"
    with pytest.raises(ValueError) as caught:
        load_model(damaged)
    assert str(caught.value) == problem
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == {"error": problem, "kind": "ValueError"}


@pytest.mark.parametrize(
    "entry, value, problem",
    [
        ("pca_lbph_variances", -1.0, "non-positive values in PCA variances entry 0"),
        ("pca_lbph_variances", 0.0, "non-positive values in PCA variances entry 0"),
        ("pca_hog_retained", np.nan, "PCA retained must be finite, got nan"),
        ("pca_hog_energy", np.nan, "PCA energy must be finite, got nan"),
    ],
)
def test_bad_pca_entry_names_file(
    pipeline_out, synthetic_dataset, tmp_path, capsys, entry, value, problem
):
    # Variances of -1.0 or 0.0 used to load and then fail per query in the
    # whitening (a RuntimeWarning, or a non-finite query blamed on the
    # query); a NaN retained or energy loaded without a word.
    entries = dict(read_store(pipeline_out / "model.store"))
    if isinstance(entries[entry], np.ndarray):
        entries[entry] = np.full_like(entries[entry], value)
    else:
        entries[entry] = value
    damaged = tmp_path / "model.store"
    write_store(entries, damaged)
    with pytest.raises(ValueError) as caught:
        load_model(damaged)
    assert str(caught.value) == f"{damaged}: {problem}"
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == {"error": f"{damaged}: {problem}", "kind": "ValueError"}


def test_non_finite_feature_block_names_file(pipeline_out, fast_config, tmp_path, capsys):
    # Training used to fail in fit_pca with "zero-size array to reduction
    # operation maximum which has no identity", naming no file.
    entries = dict(read_store(pipeline_out / "features.store"))
    block = entries["block_lbph"].copy()
    block[9, 17] = np.nan
    entries["block_lbph"] = block
    damaged = tmp_path / "features.store"
    write_store(entries, damaged)
    argv = ["train", "--config", fast_config, "--features", str(damaged)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == {
        "error": f"{damaged}: non-finite values in block 'lbph' row 9", "kind": "ValueError"
    }


@pytest.mark.parametrize(
    "edit",
    [lambda payload: "é".encode() + payload[1:], lambda payload: payload + b"!"],
    ids=["non-ascii", "stray-character"],
)
def test_bad_payload_names_path_and_line(pipeline_out, synthetic_dataset, tmp_path, capsys, edit):
    # A payload edited one byte longer is refused at its header's line, not
    # read shifted by a byte.
    data, line = _edit_payload(pipeline_out / "model.store", "pool_hog", edit)
    damaged = tmp_path / "model.store"
    damaged.write_bytes(data)
    code = main(
        ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged),
         "--out", str(tmp_path / "cls")]
    )
    assert code == 2
    error = _single_error(capsys)["error"]
    assert error.startswith(f"{damaged}:{line}: entry 'pool_hog': ")
    assert error.endswith("payload is not followed by a line end")


@pytest.mark.parametrize(
    ("damage", "line", "problem"),
    [(lambda data: data.replace(b"bearface-store 2", b"bearface-store 1", 1), 1,
      "a format-1 store (base64 arrays) is no longer read; "
      "rebuild it with 'bearface extract' or 'bearface train'"),
     (lambda data: data.replace(b"\n", b"\r\n"), 1, "a line break other than '\\n' inside the line"),
     (lambda data: data[:data.index(b"\narray reference ") + 600], "reference",
      "entry 'reference': payload holds ")],
    ids=["format-1", "crlf", "truncated"],
)
def test_unreadable_store_names_path_and_line(
    pipeline_out, synthetic_dataset, tmp_path, capsys, damage, line, problem
):
    # A format-1 store, a CRLF-converted one and one cut inside the
    # reference shape's payload each fail at the line named.
    store = pipeline_out / "model.store"
    if isinstance(line, str):
        line = _header_line(read_store(store), line)
    damaged = tmp_path / "model.store"
    damaged.write_bytes(damage(store.read_bytes()))
    out = tmp_path / "cls"
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    assert main(argv + ["--out", str(out)]) == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"].startswith(f"{damaged}:{line}: {problem}")
    assert not out.exists()


@pytest.mark.parametrize(
    ("store", "word", "command"),
    [("model.store", b"model", "classify"), ("features.store", b"features", "train")],
)
def test_store_with_invalid_utf8_names_path_and_line(
    pipeline_out, synthetic_dataset, fast_config, tmp_path, capsys, store, word, command
):
    # The whole file used to be decoded at once, so the error named neither
    # the file nor the line: "'utf-8' codec can't decode byte 0xff in
    # position 29: invalid start byte".
    data = (pipeline_out / store).read_bytes()
    line = _header_line(read_store(pipeline_out / store), "kind")
    damaged = tmp_path / store
    damaged.write_bytes(data.replace(b"str kind " + word, b"str kind " + word[:3] + b"\xff" + word[4:]))
    if command == "classify":
        argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(damaged)]
    else:
        argv = ["train", "--config", fast_config, "--features", str(damaged)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"].startswith(f"{damaged}:{line}: 'utf-8' codec can't decode byte 0xff")


def test_negative_seed_option_is_refused(pipeline_out, tmp_path, capsys):
    # It used to fail in the fold shuffle, with numpy's message.
    code = main(["eval", "--seed", "-1", "--features", str(pipeline_out / "features.store"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys) == {"error": "command line: seed must be at least 0, got -1",
                                     "kind": "ValueError"}
    assert not (tmp_path / "o").exists()


def _one_block_cache(pipeline_out, path, block):
    """The pipeline's feature cache cut down to one descriptor block."""
    entries = dict(read_store(pipeline_out / "features.store"))
    del entries["block_lbph" if block == "hog" else "block_hog"]
    entries["feature_descriptors"] = block
    write_store(entries, path)
    return path


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cache_lacking_a_bank_block_names_file(pipeline_out, tmp_path, capsys, command):
    # A bank block the cache lacks used to end in a bare KeyError: 'hog'.
    cache = _one_block_cache(pipeline_out, tmp_path / "lbph.store", "lbph")
    code = main([command, "--features", str(cache), "--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys) == {
        "error": f"{cache}: the kernel bank reads block 'hog', which the features lack "
                 "(blocks held: lbph)",
        "kind": "ValueError",
    }


def test_model_holds_only_the_blocks_its_bank_reads(pipeline_out, synthetic_dataset, tmp_path):
    # A hog-only bank on an lbph+hog cache used to store an unread LBPH PCA
    # model, and classify described LBPH for every face.
    config = tmp_path / "hog.config"
    config.write_text("bearface-config 1\ncv_folds = 5\npca_energy = 0.9\ndescriptors = hog\n")
    hog_only = _one_block_cache(pipeline_out, tmp_path / "hog.store", "hog")
    for name, cache in (("both", pipeline_out / "features.store"), ("hog", hog_only)):
        argv = ["train", "--config", str(config), "--features", str(cache)]
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    model = tmp_path / "both" / "model.store"
    entries = read_store(model)
    assert entries["feature_descriptors"] == "hog"
    assert [name for name in entries if "lbph" in name] == []
    assert model.read_bytes() == (tmp_path / "hog" / "model.store").read_bytes()
    argv = ["classify", "--manifest", str(synthetic_dataset), "--model", str(model)]
    assert main(argv + ["--out", str(tmp_path / "both")]) == 0


def test_classify_missing_model(tmp_path, synthetic_dataset, capsys):
    code = main(
        ["classify", "--manifest", str(synthetic_dataset), "--out", str(tmp_path)]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "CliError"
    assert "model not found" in record["error"]


@pytest.mark.parametrize(
    "argv",
    [["extract", "--manifest", "missing.manifest"], ["train"], ["eval"],
     ["classify", "--manifest", "missing.manifest", "--model", "nope.store"],
     ["animate", "--transcript", "missing.txt"], ["imitate", "--votes", "missing.txt"],
     ["export-servo", "--expression", "nope"]],
    ids=lambda argv: argv[0],
)
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, monkeypatch, argv):
    # The output directory is made once a command has read its inputs.
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "fresh"]) == 2
    _single_error(capsys)
    assert not (tmp_path / "fresh").exists()


def test_animate_bundled_demo(tmp_path):
    out = tmp_path / "anim"
    code = main(
        ["animate", "--expression", "joy", "--intensity", "1.0", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "timeline.csv").read_text().splitlines()
    assert len(lines) == 87  # header + 86 frames of the 1 s demo at 85 fps
    assert lines[0].startswith("t,viseme_00")
    records = [json.loads(l) for l in (out / "timeline.jsonl").read_text().splitlines()]
    assert all(r["expressions"].get("joy") == 1.0 for r in records)


def test_animate_preview_frames(tmp_path):
    # One graymap per timeline row, the same bytes on every run, and none
    # without the setting.
    config = tmp_path / "preview.config"
    config.write_text("bearface-config 1\npreview_frames = true\n")
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = ["animate", "--expression", "joy", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        rows = len((out / "timeline.csv").read_text().splitlines()) - 1
        assert rows == 86  # the 1 s demo at 85 fps
        frames = sorted((out / "preview").iterdir())
        assert [path.name for path in frames] == [f"frame_{i:05d}.pgm" for i in range(rows)]
        runs.append([path.read_bytes() for path in frames])
    assert runs[0] == runs[1]
    assert main(["animate", "--expression", "joy", "--out", str(tmp_path / "c")]) == 0
    assert not (tmp_path / "c" / "preview").exists()


def test_animate_custom_transcript_and_track(tmp_path):
    transcript = tmp_path / "speech.align"
    transcript.write_text("0.0 0.4 m\n0.4 0.9 ɑ\n")
    track = tmp_path / "track.txt"
    track.write_text("0.0 anger 0.5\n0.5 neutral 0\n")
    out = tmp_path / "anim"
    code = main(
        ["animate", "--transcript", str(transcript), "--track", str(track),
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "timeline.csv").read_text().splitlines()
    assert len(lines) == 1 + 77  # floor(0.9 * 85) + 1 frames


def test_imitate_replay(tmp_path):
    votes = tmp_path / "votes.txt"
    votes.write_text(
        "\n".join(
            ["0.0 joy 6", "0.1 joy 6", "0.2 joy 6", "0.3 sadness 4",
             "0.4 sadness 4", "0.5 sadness 4", "0.6 sadness 4"]
        )
    )
    out = tmp_path / "imit"
    code = main(["imitate", "--votes", str(votes), "--out", str(out)])
    assert code == 0
    log = [
        json.loads(line)
        for line in (out / "imitation_log.jsonl").read_text().splitlines()
    ]
    assert [r["winner"] for r in log] == ["joy", "sadness"]
    assert (out / "command_000_pose.csv").is_file()
    assert (out / "command_001_morph.csv").is_file()


def test_export_servo_neutral_pose(capsysbinary):
    code = main(["export-servo", "--expression", "neutral", "--intensity", "0.0"])
    assert code == 0
    payload = capsysbinary.readouterr().out
    assert len(payload) == 40
    decoded = decode_servo_commands(payload)
    assert [channel for channel, _ in decoded] == list(range(10))
    assert all(target == 6000 for _, target in decoded)  # mid-range pulses


def test_export_servo_trajectory_file(tmp_path):
    out = tmp_path / "servo"
    code = main(
        ["export-servo", "--expression", "surprise", "--intensity", "1.0",
         "--duration", "0.1", "--out", str(out)]
    )
    assert code == 0
    payload = (out / "servo.bin").read_bytes()
    frames = 0.1 * 85.0
    assert len(payload) == (int(frames) + 1) * 40


@pytest.mark.parametrize(
    ("command", "option", "line", "problem"),
    [
        ("imitate", "--votes", "0.0 joy", "expected 'time winner votes', got 2 fields"),
        ("imitate", "--votes", "0.0 joy six", "votes must be count, got 'six'"),
        ("imitate", "--votes", "0.0 joy -1", "votes must be count, got '-1'"),
        # A non-finite vote time used to reach imitation_log.jsonl as bare
        # NaN or Infinity, which is not JSON.
        ("imitate", "--votes", "nan joy 6", "time must be finite, got 'nan'"),
        ("imitate", "--votes", "inf joy 6", "time must be finite, got 'inf'"),
        ("animate", "--track", "0.0 anger", "expected 'time expression level', got 2 fields"),
        ("animate", "--track", "soon anger 0.5", "time must be float, got 'soon'"),
        ("animate", "--track", "0.0 Joy 1.0", "expression must be Expression, got 'Joy'"),
        ("imitate", "--votes", "0.0 happy 6", "winner must be Expression, got 'happy'"),
    ],
)
def test_bad_record_line_names_path_and_line(tmp_path, capsys, command, option, line, problem):
    records = tmp_path / "records.txt"
    records.write_text(f"{line}  # first record\n0.5 joy 1\n")
    code = main([command, option, str(records), "--out", str(tmp_path / "o")])
    assert code == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"] == f"{records}:1: {problem}"


@pytest.mark.parametrize(
    ("name", "text", "line", "problem"),
    [
        (
            "bad.manifest",
            "bearface-manifest 1\nclasses = joy\na.pgm\ta.pts\tjoy\ts0\tq0\tx\n",
            3,
            "frame must be int, got 'x'",
        ),
        ("bad.config", "bearface-config 1\nseed = banana\n", 2, "seed must be int, got 'banana'"),
        ("bad.visemes", "bearface-visemes 1\nx 1 m b p\n", 2, "id must be int, got 'x'"),
        ("bad.config", "bearface-config 1\nhold_duration = inf\n", 2,
         "hold_duration must be finite, got inf"),
        ("bad.config", "bearface-config 1\nsvm_c = nan\n", 2, "svm_c must be finite, got nan"),
        ("bad.config", "bearface-config 1\nrbf_gamma = inf\n", 2,
         "rbf_gamma must be finite, got inf"),
        ("bad.config", "bearface-config 1\nkernels = rbf\nrbf_gamma = -1\n", 3,
         "rbf gamma must be positive and finite, got -1.0"),
        ("bad.config", "bearface-config 1\nkernels = poly\nrbf_gamma = -1\n", 3,
         "rbf gamma must be positive and finite, got -1.0"),
        ("bad.config", "bearface-config 1\nrbf_gamma = 0\nkernels = poly\n", 2,
         "rbf gamma must be positive and finite, got 0.0"),
        ("bad.config", "bearface-config 1\nkernels = poly\nrbf_gamma = 0\n", 3,
         "rbf gamma must be positive and finite, got 0.0"),
        ("bad.config", "bearface-config 1\nkernels = rbf\npoly_degree = 0\n", 3,
         "poly degree must be a whole number >= 1, got 0"),
        ("bad.config", "bearface-config 1\nhold_duration = 1e9\n", 2,
         "hold_duration must be at most 60 s, got 1000000000.0"),
        ("bad.config", "bearface-config 1\nframe_rate = 30\ntransition_duration = 60.5\n", 3,
         "transition_duration must be at most 60 s, got 60.5"),
        ("bad.config", "bearface-config 1\nframe_rate = 1e9\n", 2,
         "frame_rate must be at most 240 fps, got 1000000000.0"),
        ("bad.config", "bearface-config 1\nhog_bins = 100000\n", 2,
         "hog_bins must be at most 180, got 100000"),
        ("bad.config", "bearface-config 1\ngrid = 64\n", 2,
         "grid must divide the 128-px crop into windows of at least 3 px, got 64"),
        ("bad.config", "bearface-config 1\nseed = 1\ngrid = 129\n", 3,
         "grid must divide the 128-px crop into windows of at least 3 px, got 129"),
        ("bad.config", "bearface-config 1\nseed = -1\n", 2, "seed must be at least 0, got -1"),
        ("bad.config", "bearface-config 1\nseed = 1\ndescriptors = hog lbph hog\n", 3,
         "descriptors must not repeat, got ('hog', 'lbph', 'hog')"),
        ("bad.config", "bearface-config 1\nkernels = rbf rbf\n", 2,
         "kernels must not repeat, got ('rbf', 'rbf')"),
    ],
    ids=["manifest-frame", "config-seed", "viseme-id", "config-hold-inf", "config-c-nan",
         "config-gamma-inf", "config-gamma-negative", "config-gamma-negative-unused",
         "config-gamma-zero-first", "config-gamma-zero-unused", "config-poly-unused",
         "config-hold-long", "config-transition-long", "config-frame-rate-high",
         "config-hog-bins-high", "config-grid-small-windows", "config-grid-not-dividing",
         "config-seed-negative", "config-descriptor-repeated", "config-kernel-repeated"],
)
def test_bad_input_value_names_path_and_line(tmp_path, capsys, name, text, line, problem):
    path = tmp_path / name
    path.write_text(text)
    if name == "bad.manifest":
        argv = ["extract", "--manifest", str(path)]
    elif name == "bad.config":
        argv = ["animate", "--config", str(path)]
    else:  # a viseme table, named by the configuration
        config = tmp_path / "table.config"
        config.write_text(f"bearface-config 1\nviseme_table = {path}\n")
        argv = ["animate", "--config", str(config)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys)["error"] == f"{path}:{line}: {problem}"


def test_unknown_expression_option_names_option(tmp_path, capsys):
    for command in ("animate", "export-servo"):
        code = main([command, "--expression", "Joy", "--out", str(tmp_path / "o")])
        assert code == 2
        assert _single_error(capsys)["error"] == (
            "--expression: expression must be Expression, got 'Joy'"
        )


def test_bad_transcript_line_names_path_and_line(tmp_path, capsys):
    transcript = tmp_path / "bad.align"
    transcript.write_text("0.0 x m\n0.5 1.0 a\n")
    code = main(["animate", "--transcript", str(transcript), "--out", str(tmp_path / "o")])
    assert code == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"] == f"{transcript}:1: end must be float, got 'x'"


def test_infinite_transcript_time_names_path_and_line(tmp_path, capsys):
    transcript = tmp_path / "inf.align"
    transcript.write_text("0 inf a\n")
    code = main(["animate", "--transcript", str(transcript), "--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys) == {
        "error": f"{transcript}:1: segment 'a': times must be finite, got 0.0 and inf",
        "kind": "ValueError",
    }


@pytest.mark.parametrize(
    ("argv", "problem"),
    [(["export-servo", "--expression", "joy", "--duration", "abc"],
      "bearface export-servo: argument --duration: invalid float value: 'abc'"),
     (["eval", "--seed", "x"], "bearface eval: argument --seed: invalid int value: 'x'"),
     # argparse reads a separate "-1e+16" as an option, not as a value.
     (["export-servo", "--expression", "joy", "--duration", "-1e+16"],
      "bearface export-servo: argument --duration: expected one argument"),
     (["animate", "--intensity", "high"],
      "bearface animate: argument --intensity: invalid float value: 'high'"),
     (["export-servo"],
      "bearface export-servo: the following arguments are required: --expression"),
     (["imitate", "--votes", "v", "--extra"], "bearface: unrecognized arguments: --extra"),
     (["bogus"], "bearface: argument command: invalid choice: 'bogus' (choose from "
      "'extract', 'train', 'eval', 'classify', 'animate', 'imitate', 'export-servo')"),
     ([], "bearface: the following arguments are required: command"),
     # animate blends one expression channel, a constant one or a track.
     (["animate", "--track", "t", "--expression", "joy"],
      "bearface animate: argument --expression: not allowed with argument --track"),
     (["animate", "--track", "t", "--intensity", "0.5"],
      "bearface animate: argument --intensity: not allowed without argument --expression")],
)
def test_malformed_command_line_gives_json_record(tmp_path, capsys, monkeypatch, argv, problem):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": problem, "kind": "CliError"}
    ]
    assert list(tmp_path.iterdir()) == []


# The options each command reads, 31 in all; each changes what it does.
_OPTIONS = {
    "extract": {"--config", "--out", "--manifest"},
    "train": {"--config", "--out", "--features"},
    "eval": {"--config", "--out", "--features", "--scheme", "--seed"},
    "classify": {"--config", "--out", "--manifest", "--model"},
    "animate": {"--config", "--out", "--transcript", "--expression", "--intensity", "--track"},
    "imitate": {"--config", "--out", "--votes", "--mode"},
    "export-servo": {"--config", "--out", "--mode", "--expression", "--intensity", "--duration"},
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_command_accepts_only_the_options_it_reads(tmp_path, capsys, monkeypatch, command):
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    sub = commands.choices[command]
    assert {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"} == (
        _OPTIONS[command]
    )
    # Anything else is refused like any unknown argument, not read as the
    # prefix of an option the command has (classify --mode, --model).
    monkeypatch.chdir(tmp_path)
    required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "x")]
    for flag in sorted({"--seed", "--mode"} - _OPTIONS[command]):
        assert main([command, *required, flag, "au"]) == 2
        assert _single_error(capsys) == {
            "error": f"bearface: unrecognized arguments: {flag} au", "kind": "CliError"
        }
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["export-servo", "--help"]])
def test_help_still_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: bearface")
    assert captured.err == ""


@pytest.mark.parametrize(
    ("duration", "problem"),
    [("inf", "must be finite, got inf"), ("1e400", "must be finite, got inf"),
     ("nan", "must be finite, got nan"), ("0", "must be positive"),
     ("-1", "must be positive"), ("60.5", "must be at most 60 s, got 60.5")],
)
def test_export_servo_duration_rule(tmp_path, capsys, duration, problem):
    argv = ["export-servo", "--expression", "joy", "--duration", duration,
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert _single_error(capsys)["error"] == f"--duration {problem}"
    assert not (tmp_path / "o" / "servo.bin").exists()


@pytest.mark.parametrize(
    ("line", "problem"),
    [("a 1", "x must be float, got 'a'"), ("1", "expected 'x y', got 1 fields"),
     # These two used to name no place; the second also warned of an
     # overflow in the similarity fit and ended in an OverflowError.
     ("nan 10.0", "x must be finite, got nan"), ("10.0 -inf", "y must be finite, got -inf"),
     ("1e300 10.0", "x must be at most 1e+09 in magnitude, got 1e+300")],
)
def test_bad_landmark_line_names_path_and_line(tmp_path, capsys, synthetic_dataset, line, problem):
    # One four-frame sequence of the synthetic set, its first landmark file
    # broken on line 1.
    lines = synthetic_dataset.read_text().splitlines()
    rows = [row.split("\t") for row in lines[2:6]]
    for row in rows:
        for name in row[:2]:
            (tmp_path / name).write_bytes((synthetic_dataset.parent / name).read_bytes())
    landmarks = tmp_path / rows[0][1]
    landmarks.write_text(f"{line}\n" + landmarks.read_text().split("\n", 1)[1])
    manifest = tmp_path / "one.manifest"
    manifest.write_text("\n".join(lines[:2] + lines[2:6]) + "\n")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    record = _single_error(capsys)
    assert record["kind"] == "ValueError"
    assert record["error"] == f"{landmarks}:1: {problem}"


@pytest.mark.parametrize(
    ("header", "problem"),
    [(b"P5 2 x", "invalid literal for int() with base 10: b'x'"),
     (b"P5 2", "truncated PNM header")],
)
def test_bad_image_header_names_path(tmp_path, capsys, synthetic_dataset, header, problem):
    # These header errors used to name no image.
    lines = synthetic_dataset.read_text().splitlines()
    rows = [row.split("\t") for row in lines[2:6]]
    for row in rows:
        for name in row[:2]:
            (tmp_path / name).write_bytes((synthetic_dataset.parent / name).read_bytes())
    image = tmp_path / rows[1][0]
    image.write_bytes(header)
    manifest = tmp_path / "one.manifest"
    manifest.write_text("\n".join(lines[:2] + lines[2:6]) + "\n")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert code == 2
    assert _single_error(capsys) == {"error": f"{image}: {problem}", "kind": "ValueError"}


def test_bad_transcript_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.align"
    bad.write_text("0.5 0.1 m\n")
    code = main(["animate", "--transcript", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "ValueError"


# extract -> train -> eval -> classify in a fresh interpreter, so that the
# BLAS thread count is set before numpy loads.
_PIPELINE = """
import sys
from bearface.cli import main
manifest, config, out = sys.argv[1:]
for command in (
    ["extract", "--manifest", manifest, "--config", config, "--out", out],
    ["train", "--config", config, "--out", out],
    ["eval", "--config", config, "--out", out],
    ["classify", "--manifest", manifest, "--config", config, "--out", out],
):
    if main(command):
        sys.exit(f"{command[0]} failed")
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, synthetic_dataset, fast_config):
    src = str(Path(bearface.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-c", _PIPELINE, str(synthetic_dataset), fast_config, str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("features.store", "model.store", "report.txt", "confusion.csv",
                         "classifications.jsonl")
        }
    assert outputs["1"] == outputs["2"]
