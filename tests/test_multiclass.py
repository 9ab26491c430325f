"""One-vs-one voting, tie-breaks and cross-validation."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bearface import multiclass
from bearface.kernels import AutoRbf, PolyKernel, RbfKernel, resolve_kernel, sq_distances
from bearface.multiclass import (
    BankEntry,
    MulticlassModel,
    class_pairs,
    classify,
    cross_validate,
    decision_values,
    order_classes,
    random_folds,
    subject_folds,
    tally_votes,
    train_multiclass,
    vote,
)
from bearface.pca import fit_pca


def make_blobs(rng, class_names, per_class=12, dims=6, spread=8.0):
    centers = rng.normal(size=(len(class_names), dims)) * spread
    rows = []
    labels = []
    for index, name in enumerate(class_names):
        rows.append(rng.normal(size=(per_class, dims)) + centers[index])
        labels += [name] * per_class
    return np.vstack(rows), labels


def test_order_classes_canonical_first():
    ordered = order_classes(["joy", "anger", "zeta", "neutral", "alpha"])
    assert ordered == ("anger", "joy", "neutral", "alpha", "zeta")


def test_tally_votes_two_classes():
    votes, winner = tally_votes(2, [-0.3])
    assert votes.tolist() == [0, 1]
    assert winner == 1
    votes, winner = tally_votes(2, [0.0])  # h >= 0 goes to the first class
    assert winner == 0


def test_tally_votes_tie_breaks_on_margin_then_index():
    # Rows follow class_pairs(3): (0, 1), (0, 2), (1, 2).
    # Perfect 3-way cycle: everyone wins once with margin 1.0 -> lowest index.
    votes, winner = tally_votes(3, [1.0, -1.0, 1.0])
    assert votes.tolist() == [1, 1, 1]
    assert winner == 0
    # Boost class 2's winning margin: it takes the tie.
    _, winner = tally_votes(3, [1.0, -2.5, 1.0])
    assert winner == 2


def test_class_pairs_order():
    assert class_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert len(class_pairs(7)) == 21
    assert class_pairs(1) == ()


@given(
    class_count=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_tally_votes_bounds(class_count, seed):
    rng = np.random.default_rng(seed)
    row = rng.normal(size=len(class_pairs(class_count))).tolist()
    votes, winner = tally_votes(class_count, row)
    assert votes.sum() == class_count * (class_count - 1) // 2
    assert votes.max() <= class_count - 1
    assert votes[winner] == votes.max()


def test_two_class_model_single_classifier():
    rng = np.random.default_rng(41)
    X, labels = make_blobs(rng, ["anger", "joy"], per_class=10)
    model = train_multiclass({"x": X}, labels, [("x", AutoRbf())], C=10.0)
    assert len(model.pairs) == 1
    result = classify(model, {"x": X[0]})
    assert result.votes == 1
    assert result.winner == "anger"


def test_separable_blobs_classify_training_set_perfectly():
    rng = np.random.default_rng(42)
    names = ["anger", "surprise", "disgust", "fear", "joy", "sadness", "neutral"]
    X, labels = make_blobs(rng, names, per_class=8, dims=10)
    model = train_multiclass(
        {"x": X}, labels, [("x", AutoRbf()), ("x", PolyKernel())], C=100.0
    )
    assert len(model.pairs) == 21
    errors = 0
    deep_checked = False
    for row, label in zip(X, labels):
        result = classify(model, {"x": row})
        errors += result.winner != label
        if not deep_checked:
            assert result.votes == 6  # wins every one of its P-1 matches
            deep_checked = True
    assert errors == 0


def test_classify_reports_full_tally():
    rng = np.random.default_rng(43)
    X, labels = make_blobs(rng, ["anger", "joy", "fear"], per_class=6)
    model = train_multiclass({"x": X}, labels, [("x", AutoRbf())], C=10.0)
    result = classify(model, {"x": X[0]})
    assert sum(result.tally) == 3
    assert len(result.decisions) == 3
    assert result.class_names == ("anger", "fear", "joy")


def test_batch_decisions_match_single_queries():
    rng = np.random.default_rng(51)
    names = ["anger", "surprise", "disgust", "fear", "joy", "sadness", "neutral"]
    X, labels = make_blobs(rng, names, per_class=6, dims=5, spread=2.0)
    blocks = {"x": X, "y": X[:, :3] ** 2}
    model = train_multiclass(
        blocks, labels, [("x", AutoRbf()), ("y", PolyKernel())], C=10.0,
        pca_energy=0.95,
    )
    queries = {name: data + rng.normal(size=data.shape) for name, data in blocks.items()}
    batch = decision_values(model, queries)
    assert batch.shape == (len(labels), 21)
    named = [(model.class_names[a], model.class_names[b]) for a, b in model.pairs]
    for i, row in enumerate(batch):
        single = classify(model, {name: data[i] for name, data in queries.items()})
        expected = [single.decisions[key] for key in named]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)
        voted = vote(model, row)
        assert (voted.winner, voted.tally) == (single.winner, single.tally)


def test_single_query_projection_matches_one_row_product():
    # A 1-D query is projected by gemv; it must give the bits of the
    # (1, d) product, block by block and in every decision.
    rng = np.random.default_rng(52)
    names = ["anger", "joy", "fear", "sadness"]
    X, labels = make_blobs(rng, names, per_class=10, dims=300, spread=1.0)
    blocks = {"x": X, "y": np.abs(X[:, :120]) * 40.0}
    model = train_multiclass(
        blocks, labels, [("x", AutoRbf()), ("y", PolyKernel())], C=10.0, pca_energy=0.95,
    )
    assert all(pca.k > 1 for pca in model.pca.values())
    for i in range(0, len(labels), 7):
        query = {name: data[i] + rng.normal(size=data.shape[1]) for name, data in blocks.items()}
        for name, pca in model.pca.items():
            one = multiclass._reduce_block(pca, query[name])
            row = multiclass._reduce_block(pca, query[name][None, :])
            assert one.shape == (pca.k,) and row.shape == (1, pca.k)
            assert np.array_equal(one.view(np.int64), row[0].view(np.int64))
        single = decision_values(model, query)
        as_row = decision_values(model, {name: v[None, :] for name, v in query.items()})
        assert single.shape == as_row.shape == (1, len(model.pairs))
        assert np.array_equal(single.view(np.int64), as_row.view(np.int64))


def reference_decision_values(fields, x_blocks):
    """h_p(x) summed over every bank entry of a model's fields, dead ones included."""
    x = {name: np.asarray(x_blocks[name], dtype=np.float64) for name in fields["pool"]}
    for name, pca in fields["pca"].items():
        x[name] = multiclass._reduce_block(pca, x[name])
    n = len(np.atleast_2d(next(iter(x.values()))))
    total = np.zeros((n, len(fields["bias"])))
    for m, entry in enumerate(fields["bank"]):
        K = multiclass.kernel_matrix(entry.spec, x[entry.block], fields["pool"][entry.block])
        total += fields["kernel_weights"][:, m] * (K @ fields["dual_coef"])
    return total + fields["bias"]


def _fields_with_dead_entries():
    """The fields of a model whose two kernels on block x are live and whose
    two on block y are dead, with queries.

    The dead columns mix +0.0 and -0.0, and a live column has a zero.
    """
    rng = np.random.default_rng(53)
    names = ["anger", "joy", "fear", "sadness"]
    X, labels = make_blobs(rng, names, per_class=8, dims=12, spread=2.0)
    blocks = {"x": X, "y": np.abs(X[:, :6]) * 3.0}
    pca = {name: fit_pca(data, 0.95) for name, data in blocks.items()}
    pool = {name: multiclass._reduce_block(pca[name], data) for name, data in blocks.items()}
    plans = [("x", AutoRbf()), ("y", PolyKernel(degree=3)), ("x", PolyKernel()), ("y", AutoRbf())]
    pairs = len(class_pairs(len(names)))
    weights = np.zeros((pairs, 4))
    weights[:, 0] = rng.uniform(0.2, 0.8, pairs)
    weights[:, 2] = 1.0 - weights[:, 0]
    weights[0, 0] = 0.0
    weights[1::2, 1] = -0.0
    weights[::3, 3] = -0.0
    fields = dict(
        class_names=tuple(names),
        bank=tuple(BankEntry(block, resolve_kernel(plan, pool[block])) for block, plan in plans),
        kernel_weights=weights,
        bias=rng.normal(size=pairs),
        pool=pool,
        dual_coef=rng.normal(size=(len(labels), pairs)),
        pca=pca,
    )
    queries = {name: data + rng.normal(size=data.shape) for name, data in blocks.items()}
    return fields, queries


def test_dead_entries_are_pruned_and_score_as_before():
    fields, queries = _fields_with_dead_entries()
    model = MulticlassModel(**fields)
    assert model.bank == (fields["bank"][0], fields["bank"][2])
    assert np.array_equal(model.kernel_weights, fields["kernel_weights"][:, [0, 2]])
    assert model.pool.keys() == model.pca.keys() == {"x"}
    assert np.array_equal(model.pool["x"], fields["pool"]["x"])
    # A block that only dead entries read need not be held at all.
    held = {**fields, "pool": {"x": fields["pool"]["x"]}, "pca": {"x": fields["pca"]["x"]}}
    assert MulticlassModel(**held).bank == model.bank
    # Pruning adds only exact zeros to the reference sum, so no bit moves.
    batch = decision_values(model, queries)
    expected = reference_decision_values(fields, queries)
    assert np.array_equal(batch.view(np.int64), expected.view(np.int64))
    for i in range(len(batch)):
        query = {name: data[i] for name, data in queries.items()}
        single = decision_values(model, query)
        expected = reference_decision_values(fields, query)
        assert np.array_equal(single.view(np.int64), expected.view(np.int64))


def test_an_entry_with_any_nonzero_weight_is_kept():
    fields, _ = _fields_with_dead_entries()
    weights = fields["kernel_weights"].copy()
    weights[4, 1] = -1e-300
    weights[2, 3] = 5e-324  # the smallest subnormal is not a zero
    model = MulticlassModel(**{**fields, "kernel_weights": weights})
    assert model.bank == fields["bank"]
    assert model.pool.keys() == model.pca.keys() == {"x", "y"}
    with pytest.raises(ValueError, match=re.escape(
        "the kernel bank reads block 'y', which the support-vector pool lacks (blocks held: x)"
    )):
        MulticlassModel(**{**fields, "kernel_weights": weights, "pool": {"x": fields["pool"]["x"]}})
    with pytest.raises(ValueError, match="^kernel_weights has no nonzero weight"):
        MulticlassModel(**{**fields, "kernel_weights": -np.zeros_like(weights)})
    # A NaN weight, which would count as nonzero, builds no model.
    weights[2, 3] = np.nan
    with pytest.raises(ValueError, match="^non-finite values in kernel_weights row 2$"):
        MulticlassModel(**{**fields, "kernel_weights": weights})


def test_dead_kernel_overflow_leaves_the_row_finite():
    # A query block outside the model is ignored. The cubic kernel on y
    # would overflow on this query; it is dead, so the model holds no y and
    # the row is that of any y, or of none. The full sum gives 0 * inf = NaN.
    fields, queries = _fields_with_dead_entries()
    model = MulticlassModel(**fields)
    tame = decision_values(model, {"x": queries["x"][:3]})
    tame_single = decision_values(model, {"x": queries["x"][1]})
    for y in (np.full((3, 6), 1e120), np.full((3, 6), np.nan), queries["y"][:3]):
        rows = decision_values(model, {"x": queries["x"][:3], "y": y})
        assert np.array_equal(rows.view(np.int64), tame.view(np.int64))
        single = decision_values(model, {"x": queries["x"][1], "y": y[1]})
        assert np.array_equal(single.view(np.int64), tame_single.view(np.int64))
    assert np.isfinite(tame).all()
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = {"x": queries["x"][:3], "y": np.full((3, 6), 1e120)}
        assert np.isnan(reference_decision_values(fields, overflow)).all()


@pytest.mark.parametrize("block", ["x", "y"])
def test_non_finite_query_is_rejected(block):
    # Each block the model reads is checked. Block y is read only once one
    # of its kernels has a nonzero weight; with both dead it is pruned and
    # a NaN there is ignored (test_dead_kernel_overflow_leaves_the_row_finite).
    fields, queries = _fields_with_dead_entries()
    if block == "y":
        weights = fields["kernel_weights"].copy()
        weights[:, 3] = 0.25
        fields = {**fields, "kernel_weights": weights}
    model = MulticlassModel(**fields)
    assert block in model.pool
    batch = {name: data[:5].copy() for name, data in queries.items()}
    batch[block][3, 1] = np.nan
    with pytest.raises(ValueError, match="^non-finite feature values in left sample 3$"):
        decision_values(model, batch)
    single = {name: data[3] for name, data in batch.items()}
    with pytest.raises(ValueError, match="^non-finite feature values in left sample 0$"):
        decision_values(model, single)
    single[block] = np.where(np.isnan(single[block]), np.inf, single[block])
    with pytest.raises(ValueError, match="^non-finite feature values in left sample 0$"):
        classify(model, single)


def test_query_lacking_a_block_the_model_reads_is_rejected():
    # It used to fail with a bare KeyError: 'x'.
    fields, queries = _fields_with_dead_entries()
    model = MulticlassModel(**{**fields, "kernel_weights": np.ones((6, 4))})
    for query in ({"y": queries["y"]}, {"y": queries["y"][0], "z": queries["y"][0]}):
        held = " ".join(query)
        with pytest.raises(ValueError, match=re.escape(
            f"the kernel bank reads block 'x', which the query lacks (blocks held: {held})"
        )):
            decision_values(model, query)


def test_pool_holds_each_support_vector_once(monkeypatch):
    rng = np.random.default_rng(52)
    X, labels = make_blobs(
        rng, ["anger", "joy", "fear", "sadness"], per_class=10, dims=4, spread=1.5
    )
    solutions = []
    original = multiclass.train_binary_mkl

    def recording(*args, **kwargs):
        solutions.append(original(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(multiclass, "train_binary_mkl", recording)
    model = train_multiclass({"x": X}, labels, [("x", AutoRbf())], C=1.0)
    label_array = np.asarray(labels)
    support = np.zeros(len(labels), dtype=bool)
    for (a, b), solution in zip(model.pairs, solutions):
        members = np.nonzero(
            (label_array == model.class_names[a]) | (label_array == model.class_names[b])
        )[0]
        support[members[solution.alphas > 0]] = True
    # Without PCA the pool is the support rows of X, in training order.
    assert np.array_equal(model.pool["x"], X[support])
    assert len(np.unique(model.pool["x"], axis=0)) == len(model.pool["x"])
    assert support.sum() < sum(len(s.support_indices) for s in solutions)


def test_random_folds_partition_and_stratification():
    labels = ["a"] * 30 + ["b"] * 30
    assignment = random_folds(labels, 10, np.random.default_rng(0))
    assert assignment.shape == (60,)
    assert set(assignment.tolist()) == set(range(10))
    for fold in range(10):
        mask = assignment == fold
        assert mask.sum() == 6  # every sample in exactly one fold, 3 per class
        assert np.asarray(labels)[mask].tolist().count("a") == 3


def test_subject_folds_keep_subjects_whole():
    subjects = [f"s{i % 7}" for i in range(70)]
    assignment = subject_folds(subjects, 3)
    by_subject = {}
    for subject, fold in zip(subjects, assignment):
        by_subject.setdefault(subject, set()).add(int(fold))
    assert all(len(folds) == 1 for folds in by_subject.values())


def test_cross_validate_separable_is_perfect():
    rng = np.random.default_rng(44)
    names = ["anger", "joy", "fear"]
    X, labels = make_blobs(rng, names, per_class=10, dims=5)
    result = cross_validate(
        {"x": X}, labels, [("x", AutoRbf())], C=10.0, folds=5, seed=3
    )
    assert result.overall_rate == 100.0
    assert result.counts.sum() == 30
    assert np.trace(result.counts) == 30


def test_cross_validate_shuffled_labels_near_chance():
    rng = np.random.default_rng(45)
    names = ["anger", "surprise", "disgust", "fear", "joy", "sadness", "neutral"]
    X, balanced = make_blobs(rng, names, per_class=14, dims=5)
    shuffled = list(balanced)
    rng.shuffle(shuffled)  # balanced but uncorrelated with the features
    result = cross_validate(
        {"x": X}, shuffled, [("x", AutoRbf())], C=1.0, folds=10, seed=7
    )
    assert abs(result.overall_rate - 100.0 / 7.0) <= 5.0


def test_cross_validate_rejects_fold_missing_class():
    rng = np.random.default_rng(46)
    X, labels = make_blobs(rng, ["anger", "joy"], per_class=9, dims=3)
    X = np.vstack([X, rng.normal(size=(1, 3)) + 30.0])
    labels = labels + ["fear"]  # a single-sample class
    result = cross_validate(
        {"x": X}, labels, [("x", RbfKernel(0.5))], C=1.0, folds=3, seed=0
    )
    assert len(result.fold_notes) == 1
    assert "fear" in result.fold_notes[0]
    # The skipped fold's samples are not evaluated.
    assert result.counts.sum() < len(labels)


def test_cross_validate_person_independent_requires_subjects():
    rng = np.random.default_rng(47)
    X, labels = make_blobs(rng, ["anger", "joy"], per_class=10, dims=3)
    with pytest.raises(ValueError, match="subject"):
        cross_validate(
            {"x": X}, labels, [("x", RbfKernel(0.5))], C=1.0,
            folds=2, scheme="person-independent",
        )


def test_cross_validate_person_independent_runs():
    rng = np.random.default_rng(48)
    names = ["anger", "joy"]
    X, labels = make_blobs(rng, names, per_class=12, dims=4)
    # Subjects orthogonal to class so every fold keeps both classes.
    subjects = [f"s{i % 4}" for i in range(len(labels))]
    result = cross_validate(
        {"x": X}, labels, [("x", AutoRbf())], C=10.0,
        folds=4, scheme="person-independent", subjects=subjects, seed=0,
    )
    assert result.counts.sum() == len(labels)
    assert result.overall_rate == 100.0


def test_bias_can_be_switched_off():
    rng = np.random.default_rng(50)
    X, labels = make_blobs(rng, ["anger", "joy", "fear"], per_class=8, dims=4)
    model = train_multiclass(
        {"x": X}, labels, [("x", AutoRbf())], C=50.0, include_bias=False
    )
    assert (model.bias == 0.0).all()
    errors = sum(
        classify(model, {"x": row}).winner != label for row, label in zip(X, labels)
    )
    assert errors == 0  # separable blobs survive without the bias term


def test_train_multiclass_validates_labels():
    rng = np.random.default_rng(49)
    X, labels = make_blobs(rng, ["anger", "joy"], per_class=4, dims=3)
    with pytest.raises(ValueError, match="not in the class set"):
        train_multiclass(
            {"x": X}, labels, [("x", RbfKernel(1.0))], class_names=("anger",)
        )
    with pytest.raises(ValueError, match="rows"):
        train_multiclass({"x": X[:-1]}, labels, [("x", RbfKernel(1.0))])
    with pytest.raises(ValueError, match="bank is empty"):
        train_multiclass({"x": X}, labels, [])
    # One class gives no pairs, so no kernel would be live; it used to train.
    for few in ([], ["joy"] * 4):
        with pytest.raises(ValueError, match=re.escape(f"two classes or more, got {few[:1]}")):
            train_multiclass({"x": X[:len(few)]}, few, [("x", RbfKernel(1.0))])


@pytest.mark.parametrize("pca_energy", [None, 0.95])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_block_names_block_and_row(pca_energy, bad):
    # With PCA this used to fail in fit_pca with "zero-size array to
    # reduction operation maximum", without it in the auto RBF width with
    # "rbf gamma must be positive and finite, got nan".
    rng = np.random.default_rng(54)
    X, labels = make_blobs(rng, ["anger", "joy", "fear"], per_class=6, dims=8)
    blocks = {"x": X, "y": np.abs(X[:, :5])}
    blocks["y"][7, 2] = bad
    plans = [("x", AutoRbf()), ("y", AutoRbf())]
    with pytest.raises(ValueError, match="^non-finite values in block 'y' row 7$"):
        train_multiclass(blocks, labels, plans, pca_energy=pca_energy)


def test_rbf_squared_distances_are_floored_at_zero():
    # Two equal rows far from the origin: the norm expansion leaves a
    # negative residue between them, which the floor turns into 0.
    X = np.random.default_rng(0).normal(1e4, 1.0, (3, 3, 5))[2]
    X[1] = X[0]
    assert (np.sum(X * X, axis=1)[:, None] + np.sum(X * X, axis=1) - 2.0 * (X @ X.T)).min() < 0
    assert sq_distances(X, X).min() == 0.0
    assert multiclass.kernel_matrix(RbfKernel(1.0), X).max() == 1.0
