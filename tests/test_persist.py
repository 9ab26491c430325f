"""Array store and model bundle round trips."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from bearface import extraction, modelio, records
from bearface.arraystore import StoreEntries, dump_store, parse_store, read_store, write_store
from bearface.extraction import FeatureSet, load_features, save_features
from bearface.kernels import AutoRbf, PolyKernel
from bearface.modelio import FeatureParams, ModelBundle, load_model, save_model
from bearface.multiclass import classify, train_multiclass
from bearface.pca import pca_project
from bearface.records import write_atomic
from bearface.registration import LANDMARK_COUNT, LandmarkSet


def dumped(entries) -> bytes:
    """The whole store `dump_store` yields in chunks."""
    return b"".join(dump_store(entries))


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
            write_atomic(path, dumped({"weights": np.arange(50000.0)}))
        monkeypatch.undo()
    assert path.read_bytes() == before
    assert read_store(path)["seed"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.store"]
    write_atomic(tmp_path / "report.txt", "new\n" if payload == "text" else b"new\n")
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.store", "report.txt"]


def test_write_failing_mid_stream_keeps_previous_store(tmp_path):
    # The array's payload is written before the entry after it is refused.
    path = tmp_path / "model.store"
    write_store({"seed": 1}, path)
    before = path.read_bytes()
    entries = {"weights": np.arange(200000.0), "bad": object()}
    with pytest.raises(ValueError, match="^entry 'bad' has unsupported type"):
        write_store(entries, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.store"]


def _peak_mib(call) -> float:
    """The peak of traced allocations while `call` runs, what it returns included."""
    tracemalloc.start()
    try:
        kept = call()  # noqa: F841 - counted until the peak is read
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_store_streams_with_bounded_memory(tmp_path):
    # A features-shaped store: 4.15 MiB of arrays, stored as their raw
    # bytes. Writing copies no array; reading holds the file and the arrays
    # read so far.
    rng = np.random.default_rng(52)
    entries = {"kind": "features", "block_hog": rng.normal(size=(72, 3776)),
               "block_lbph": rng.normal(size=(72, 3776))}
    path = tmp_path / "features.store"
    write_store({"warm": np.arange(3.0)}, path)
    read_store(path)  # one-time costs (imports, caches) before measuring
    assert _peak_mib(lambda: write_store(entries, path)) <= 1.0
    lines = (b"bearface-store 2\nstr kind features\n"
             b"array block_hog f8 72,3776\narray block_lbph f8 72,3776\n")
    assert path.stat().st_size == len(lines) + 2 * (72 * 3776 * 8 + len(b"\n"))
    assert _peak_mib(lambda: read_store(path)) <= 12.5
    loaded = read_store(path)
    for name in ("block_hog", "block_lbph"):
        assert loaded[name].tobytes() == entries[name].tobytes()
        assert loaded[name].flags.writeable


def test_store_preserves_nan_and_inf(tmp_path):
    entries = {"weird": np.array([np.nan, np.inf, -np.inf, 0.0])}
    path = tmp_path / "weird.store"
    write_store(entries, path)
    loaded = read_store(path)["weird"]
    assert np.isnan(loaded[0])
    assert loaded[1] == np.inf and loaded[2] == -np.inf


def test_store_rejects_bad_input():
    with pytest.raises(ValueError, match="must start"):
        parse_store(b"wrong-magic 1\n")
    with pytest.raises(ValueError, match="name"):
        dumped({"bad name": 1})
    with pytest.raises(ValueError, match="dtype"):
        dumped({"x": np.zeros(3, dtype=np.float32)})
    data = dumped({"a": 1}) + b"int a 2\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_store(data)
    data = dumped({"grid": np.zeros((2, 3))})
    for shape in (b"2,4", b"-2,-3"):
        with pytest.raises(ValueError, match="entry 'grid'"):
            parse_store(data.replace(b"f8 2,3", b"f8 " + shape))
    # A line ends at '\n' only, so a CRLF store fails at its first line.
    for data, number in ((b"bearface-store 2\r\n", 1), (b"bearface-store 2\nint a 1\r\n", 2)):
        with pytest.raises(ValueError, match=f"^line {number}: a line break other than "):
            parse_store(data)
    with pytest.raises(ValueError, match="^line 1: a format-1 store .* 'bearface train'$"):
        parse_store(b"bearface-store 1\nint a 1\n")
    # A dimension numpy cannot hold, of an empty array, is named too.
    with pytest.raises(ValueError, match="^line 2: entry 'grid': "):
        parse_store(b"bearface-store 2\narray grid f8 0,99999999999999999999\n\n")
    # Headers the writer never writes: a missing or empty shape field used
    # to be skipped (a 0-d array, a (1, 2) one), and an empty name read.
    for header, problem in (
        (b"array x f8 ", "entry 'x': shape must be counts joined by ',', got ''"),
        (b"array x f8 1,,2", "entry 'x': shape must be counts joined by ',', got '1,,2'"),
        (b"array x f8 2, 1", "entry 'x': shape must be counts joined by ',', got '2, 1'"),
        (b"int  x 3", "bad store entry name ''"),
        (b"str  x", "bad store entry name ''"),
        (b"int a\tb 3", "bad store entry name 'a\\tb'"),
    ):
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(problem)}$"):
            parse_store(b"bearface-store 2\n" + header + b"\n" + bytes(16) + b"\n")


# Every character str.splitlines breaks a line on.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("mark", list(_LINE_BREAKS))
def test_store_rejects_a_string_it_could_not_read_back(mark):
    for value in (mark, f"a{mark}", f"{mark}b", f"a{mark}b", f"a\r\n{mark}"):
        with pytest.raises(ValueError, match="^string entry 'label' contains a line break$"):
            dumped({"label": value})


def test_store_rejects_an_array_without_dimensions():
    # A 0-d array used to be written with the shape text "0", which reads
    # back as an empty array that its 8-byte payload does not fit.
    for value in (np.array(1.0), np.array(3, dtype=np.int64), np.array(7, dtype=np.uint8)):
        with pytest.raises(ValueError, match="^array entry 'scale' has no dimensions$"):
            dumped({"seed": 1, "scale": value})
    assert parse_store(dumped({"one": np.array([1.0])}))["one"].shape == (1,)


def test_store_strings_without_line_breaks_round_trip():
    values = ["", "a", "  two  spaces ", "tab\tinside", "# not a comment", "\x1f\x1b\u200b",
              "".join(chr(c) for c in range(32, 0x3000) if chr(c) not in _LINE_BREAKS)]
    entries = {f"s{k}": value for k, value in enumerate(values)}
    assert parse_store(dumped(entries)) == entries


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
    pooled = ("bias", "kernel_weights", "dual_coef", "pool_")
    entries = {
        name: value
        for name, value in read_store(path).items()
        if not name.startswith(pooled)
    }
    entries["pair_count"] = 3
    entries["pair0_alphas"] = np.ones(3)
    old = tmp_path / "old.store"
    write_store(entries, old)
    with pytest.raises(ValueError,
                       match="old.store: model store lacks the 'kernel_weights' entry"):
        load_model(old)


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


def test_a_store_with_dead_entries_loads_pruned(tmp_path):
    # MKL leaves the lbph entry of _small_model dead, so its model holds hog
    # only. This store also holds the dead entry, as entry 0 (an rbf kernel)
    # with a pool and PCA model on block lbph; the saved hog entry is entry 1.
    model, blocks = _small_model()
    assert [entry.block for entry in model.bank] == ["hog"]
    feature = FeatureParams(descriptors=("lbph", "hog"))
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model, feature=feature), path)
    stored = read_store(path)
    dead = np.zeros((len(model.pairs), 1))
    dead[1] = -0.0
    old = tmp_path / "old.store"
    hog = {key: value for key, value in stored.items() if key.startswith("bank0_")}
    write_store({
        **{key: value for key, value in stored.items() if key not in hog},
        "bank0_block": "lbph", "bank0_kernel": "rbf", "bank0_gamma": 0.5,
        **{key.replace("bank0_", "bank1_"): value for key, value in hog.items()},
        "pca_blocks": "hog lbph",
        **{key.replace("hog", "lbph"): value for key, value in stored.items()
           if key.startswith(("pca_hog_", "pool_hog"))},
        "kernel_weights": np.hstack([dead, model.kernel_weights]),
    }, old)
    loaded = load_model(old)
    assert loaded.model.bank == model.bank
    assert loaded.model.pool.keys() == loaded.model.pca.keys() == {"hog"}
    assert np.array_equal(loaded.model.kernel_weights, model.kernel_weights)
    assert loaded.feature == feature  # the descriptors may name a block no entry reads
    query = {name: data[7] for name, data in blocks.items()}
    assert classify(loaded.model, query).decisions == classify(model, query).decisions
    resaved = tmp_path / "resaved.store"
    save_model(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_bank_entries_are_typed_store_entries(tmp_path):
    # A library PolyKernel may hold an int offset; it is stored as the
    # float its schema names, so it loads, and the entries say so.
    model, _ = _small_model()
    int_offset = dataclasses.replace(model.bank[0], spec=PolyKernel(degree=2, offset=1, scale=2))
    model = dataclasses.replace(model, bank=(int_offset,))
    path = tmp_path / "model.store"
    save_model(ModelBundle(model=model), path)
    stored = read_store(path)
    assert {key: value for key, value in stored.items() if key.startswith("bank")} == {
        "bank0_block": "hog", "bank0_kernel": "poly",
        "bank0_degree": 2, "bank0_offset": 1.0, "bank0_scale": 2.0,
    }
    assert [type(stored[f"bank0_{name}"]) for name in ("degree", "offset", "scale")] == [
        int, float, float]
    assert load_model(path).model.bank == model.bank
    # A whole float degree is stored as the int its schema names; a stored
    # float degree is refused.
    whole = dataclasses.replace(int_offset, spec=PolyKernel(degree=2.0, offset=1, scale=2))
    save_model(ModelBundle(model=dataclasses.replace(model, bank=(whole,))), path)
    assert type(read_store(path)["bank0_degree"]) is int
    write_store({**read_store(path), "bank0_degree": 2.0}, path)
    with pytest.raises(ValueError, match="bank0_degree: stored as float, expected int"):
        load_model(path)


def _saved_stores(tmp_path):
    """A model bundle and a feature cache with every optional entry, saved."""
    model, blocks = _small_model()
    reference = LandmarkSet(np.random.default_rng(2).uniform(0, 127, (LANDMARK_COUNT, 2)))
    feature = FeatureParams(descriptors=("lbph", "hog"))
    features = FeatureSet(blocks=blocks, labels=("anger",) * 6 + ("joy",) * 6 + ("fear",) * 6,
                          subjects=tuple(f"s {i % 4}" for i in range(18)),
                          reference=reference, feature=feature, diagnostics=("one", "two"))
    save_model(ModelBundle(model, reference, feature), tmp_path / "model.store")
    save_features(features, tmp_path / "features.store")
    return tmp_path / "model.store", tmp_path / "features.store"


class _RecordedEntries(StoreEntries):
    """Store entries that note the name of every lookup."""

    def __init__(self, entries, path):
        super().__init__(entries, path)
        self.looked_up = set()

    def __getitem__(self, name):
        self.looked_up.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.looked_up.add(name)
        return super().get(name, default)


def test_loaders_read_every_entry_the_writers_write(tmp_path, monkeypatch):
    recorded = []

    def recording_read_store(path):
        recorded.append(_RecordedEntries(read_store(path), path))
        return recorded[-1]

    monkeypatch.setattr(modelio, "read_store", recording_read_store)
    monkeypatch.setattr(extraction, "read_store", recording_read_store)
    model_path, features_path = _saved_stores(tmp_path)
    load_model(model_path)
    load_features(features_path)
    assert [entries.path for entries in recorded] == [model_path, features_path]
    for entries in recorded:
        assert sorted(set(entries) - entries.looked_up) == [], entries.path


def test_stores_with_dropped_entries_still_load(tmp_path):
    # Earlier writers also stored each model's pair table and bias flag, and
    # each cache's class and block lists; the loaders no longer read them.
    model_path, features_path = _saved_stores(tmp_path)
    dropped = {
        model_path: {"include_bias": 1, "pairs": np.array([[0, 1], [0, 2], [1, 2]])},
        features_path: {"classes": "anger joy fear", "blocks": "hog lbph"},
    }
    for path, (load, save) in ((model_path, (load_model, save_model)),
                               (features_path, (load_features, save_features))):
        old = tmp_path / f"old_{path.name}"
        write_store({**read_store(path), **dropped[path]}, old)
        resaved = tmp_path / f"resaved_{path.name}"
        save(load(old), resaved)
        assert resaved.read_bytes() == path.read_bytes()
