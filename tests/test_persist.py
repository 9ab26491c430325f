"""Array store and model bundle round trips."""

import dataclasses
import re

import numpy as np
import pytest

from bearface import records
from bearface.arraystore import dump_store, parse_store, read_store, write_store
from bearface.kernels import AutoRbf, PolyKernel
from bearface.modelio import FeatureParams, ModelBundle, load_model, save_model
from bearface.multiclass import classify, train_multiclass
from bearface.pca import pca_project
from bearface.records import write_atomic
from bearface.registration import LANDMARK_COUNT, LandmarkSet


def test_store_round_trip_exact(tmp_path):
    rng = np.random.default_rng(50)
    entries = {
        "floats": rng.normal(size=(3, 4)),
        "ints": np.arange(6, dtype=np.int64).reshape(2, 3),
        "bytes": rng.integers(0, 256, (5, 5), dtype=np.uint8),
        "empty": np.zeros((0,), dtype=np.float64),
        "seed": 42,
        "rate": 0.1 + 0.2,  # a float with an awkward repr
        "name": "hello world\twith tab",
    }
    path = tmp_path / "data.store"
    write_store(entries, path)
    loaded = read_store(path)
    assert set(loaded) == set(entries)
    for key in ("floats", "ints", "bytes", "empty"):
        assert np.array_equal(loaded[key], entries[key])
        assert loaded[key].dtype == entries[key].dtype
    assert loaded["seed"] == 42
    assert loaded["rate"] == entries["rate"]  # bit-exact through repr
    assert loaded["name"] == entries["name"]


@pytest.mark.parametrize("payload", ["text", "bytes"])
def test_failed_write_keeps_previous_store(tmp_path, monkeypatch, payload):
    path = tmp_path / "model.store"
    write_store({"seed": 1, "weights": np.arange(3.0)}, path)
    before = path.read_bytes()
    if payload == "text":
        # A lone surrogate passes dump_store but fails UTF-8 encoding after
        # the payload before it has been written out.
        entries = {"weights": np.arange(50000.0), "note": "\ud800"}
        with pytest.raises(UnicodeEncodeError):
            write_store(entries, path)
    else:
        # Bytes need no encoding: the whole payload is written, then the
        # rename over the store fails.
        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(records.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_atomic(path, dump_store({"weights": np.arange(50000.0)}).encode())
        monkeypatch.undo()
    assert path.read_bytes() == before
    assert read_store(path)["seed"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.store"]
    write_atomic(tmp_path / "report.txt", "new\n" if payload == "text" else b"new\n")
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.store", "report.txt"]


def test_store_preserves_nan_and_inf(tmp_path):
    entries = {"weird": np.array([np.nan, np.inf, -np.inf, 0.0])}
    path = tmp_path / "weird.store"
    write_store(entries, path)
    loaded = read_store(path)["weird"]
    assert np.isnan(loaded[0])
    assert loaded[1] == np.inf and loaded[2] == -np.inf


def test_store_rejects_bad_input():
    with pytest.raises(ValueError, match="must start"):
        parse_store("wrong-magic 1\n")
    with pytest.raises(ValueError, match="name"):
        dump_store({"bad name": 1})
    with pytest.raises(ValueError, match="dtype"):
        dump_store({"x": np.zeros(3, dtype=np.float32)})
    text = dump_store({"a": 1}) + "int a 2\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_store(text)
    text = dump_store({"grid": np.zeros((2, 3))})
    for shape in ("2,4", "-2,-3"):
        with pytest.raises(ValueError, match="entry 'grid'"):
            parse_store(text.replace("f8 2,3", f"f8 {shape}"))


# Every character str.splitlines breaks a line on.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("mark", list(_LINE_BREAKS))
def test_store_rejects_a_string_it_could_not_read_back(mark):
    for value in (mark, f"a{mark}", f"{mark}b", f"a{mark}b", f"a\r\n{mark}"):
        with pytest.raises(ValueError, match="^string entry 'label' contains a line break$"):
            dump_store({"label": value})


def test_store_strings_without_line_breaks_round_trip():
    values = ["", "a", "  two  spaces ", "tab\tinside", "# not a comment", "\x1f\x1b\u200b",
              "".join(chr(c) for c in range(32, 0x3000) if chr(c) not in _LINE_BREAKS)]
    entries = {f"s{k}": value for k, value in enumerate(values)}
    assert parse_store(dump_store(entries)) == entries


def _small_model():
    rng = np.random.default_rng(51)
    names = ["anger", "joy", "fear"]
    rows, labels = [], []
    centers = {"anger": 5.0, "joy": -5.0, "fear": 0.0}
    for name in names:
        rows.append(rng.normal(size=(6, 4)) + centers[name])
        labels += [name] * 6
    blocks = {"lbph": np.vstack(rows), "hog": np.vstack(rows) * 0.5 + 1.0}
    plans = [("lbph", AutoRbf()), ("hog", PolyKernel(degree=2))]
    model = train_multiclass(blocks, labels, plans, C=5.0, pca_energy=0.95)
    return model, blocks


def test_model_bundle_round_trip(tmp_path):
    model, _ = _small_model()
    reference = LandmarkSet(np.random.default_rng(1).uniform(0, 127, (LANDMARK_COUNT, 2)))
    feature = FeatureParams(descriptors=("lbph", "hog"), grid=8, hog_bins=59)
    bundle = ModelBundle(model=model, reference=reference, feature=feature)
    path = tmp_path / "model.store"
    save_model(bundle, path)
    loaded = load_model(path)

    assert loaded.model.class_names == model.class_names
    assert loaded.model.include_bias == model.include_bias
    assert loaded.feature == feature
    assert np.array_equal(loaded.reference.points, reference.points)
    assert loaded.model.pairs == model.pairs
    for name in ("kernel_weights", "bias", "dual_coef"):
        assert np.array_equal(getattr(loaded.model, name), getattr(model, name))
    assert loaded.model.pool.keys() == model.pool.keys()
    for block, rows in model.pool.items():
        assert np.array_equal(loaded.model.pool[block], rows)

    # Saving the loaded bundle reproduces the file byte for byte.
    second = tmp_path / "model2.store"
    save_model(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_pca_model_round_trip(tmp_path):
    model, blocks = _small_model()
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model), path)
    loaded = load_model(path).model
    assert loaded.pca.keys() == model.pca.keys()
    for name, pca in model.pca.items():
        restored = loaded.pca[name]
        assert np.array_equal(pca.mean, restored.mean)
        assert np.array_equal(pca.components, restored.components)
        assert np.array_equal(pca.variances, restored.variances)
        assert restored.retained == pca.retained
        x = blocks[name][0]
        assert np.array_equal(pca_project(restored, x), pca_project(pca, x))

    # Kind tags keep the store types from being confused for each other.
    write_store({"kind": "features"}, tmp_path / "other.store")
    with pytest.raises(ValueError, match="not a model bundle"):
        load_model(tmp_path / "other.store")


def test_model_without_shared_pool_is_rejected(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model), path)
    pooled = ("pairs", "bias", "kernel_weights", "dual_coef", "pool_")
    entries = {
        name: value
        for name, value in read_store(path).items()
        if not name.startswith(pooled)
    }
    entries["pair_count"] = 3
    entries["pair0_alphas"] = np.ones(3)
    old = tmp_path / "old.store"
    write_store(entries, old)
    with pytest.raises(ValueError, match="old.store: model store lacks the 'pairs' entry"):
        load_model(old)


@pytest.mark.parametrize("edit", ["permuted", "short"])
def test_pair_table_must_be_the_class_pairs(tmp_path, edit):
    # A permuted table used to load, because the check compared sets.
    model, _ = _small_model()
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model), path)
    entries = dict(read_store(path))
    entries["pairs"] = entries["pairs"][::-1].copy() if edit == "permuted" else entries["pairs"][1:]
    write_store(entries, path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: pairs: "):
        load_model(path)


def test_model_shapes_must_agree():
    model, _ = _small_model()
    pairs, kernels = model.kernel_weights.shape
    with pytest.raises(ValueError, match="kernel weights"):
        dataclasses.replace(model, kernel_weights=np.ones((pairs, kernels + 1)))
    with pytest.raises(ValueError, match="bias"):
        dataclasses.replace(model, bias=np.zeros(pairs + 1))
    with pytest.raises(ValueError, match="dual coefficients"):
        dataclasses.replace(model, dual_coef=model.dual_coef[:, 1:])
    with pytest.raises(ValueError, match="pool block"):
        dataclasses.replace(model, dual_coef=model.dual_coef[1:])


def test_loaded_model_classifies_identically(tmp_path):
    model, blocks = _small_model()
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model), path)
    loaded = load_model(path).model
    query = {name: data[7] for name, data in blocks.items()}
    original = classify(model, query)
    restored = classify(loaded, query)
    assert original.winner == restored.winner
    assert original.tally == restored.tally
    for key, value in original.decisions.items():
        assert restored.decisions[key] == value  # bit-identical decisions


def test_loaded_model_derives_the_same_live_entries(tmp_path):
    model, _ = _small_model()
    weights = model.kernel_weights.copy()
    weights[:, 0] = 0.0
    weights[1, 0] = -0.0
    dead = dataclasses.replace(model, kernel_weights=weights)
    assert dead.live_entries == (1,)
    for index, built in enumerate((model, dead)):
        path = tmp_path / f"model{index}.store"
        save_model(ModelBundle(model=built), path)
        assert load_model(path).model.live_entries == built.live_entries
