"""One-vs-one multiclass classification with max-wins voting.

P classes give P(P-1)/2 pairwise binary classifiers, each trained with its
own kernel weights on the samples of its two classes. A query is scored by
every pair; each pair votes for its sign winner and the class with the
most votes is predicted. Vote ties break on the larger sum of winning
decision magnitudes, then on the lower class index.

Features arrive as named blocks (e.g. separate LBPH and HOG vectors); the
kernel bank lists (block, kernel) combinations, and those entries are the
basis kernels whose weights each pair learns.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .expressions import CLASS_ORDER
from .kernels import KernelPlan, KernelSpec, kernel_matrix, resolve_kernel
from .mkl import train_binary_mkl
from .pca import PcaModel, fit_pca, pca_project
from .records import check_finite, frozen

FeatureBlocks = Mapping[str, np.ndarray]


def _reduce_block(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project onto the retained components and whiten.

    Whitening keeps the coordinates O(1) regardless of the raw descriptor
    scale; without it histogram-count features (magnitudes in the
    thousands) blow polynomial-kernel entries up to ~1e16 and the dual
    becomes numerically meaningless.
    """
    return pca_project(model, x) / model.whitening_scales

CLASS_NAMES = tuple(e.value for e in CLASS_ORDER)
CV_SCHEMES = ("random", "person-independent")


def order_classes(labels: Sequence[str]) -> tuple[str, ...]:
    """Canonical expression order first, any extra labels sorted after."""
    present = set(labels)
    ordered = [name for name in CLASS_NAMES if name in present]
    ordered += sorted(present - set(CLASS_NAMES))
    return tuple(ordered)


@cache
def class_pairs(class_count: int) -> tuple[tuple[int, int], ...]:
    """The (a, b) class index pairs, a < b, in the order of a model's pair axis."""
    return tuple(itertools.combinations(range(class_count), 2))


@dataclass(frozen=True)
class BankEntry:
    """One basis kernel: which feature block it reads and its spec."""

    block: str
    spec: KernelSpec


@dataclass(frozen=True)
class MulticlassModel:
    """All pairwise classifiers plus everything needed to score new samples.

    The pairs share one support-vector pool, stored once: `pool` holds, per
    feature block in the order the bank first reads them, the reduced
    training rows that are a support vector of at least one pair (in
    training order), and column p of `dual_coef` holds alpha_i * y_i of
    pair p over those rows (zero where a row is not one of that pair's
    support vectors). Pair p is `class_pairs(P)[p]`.

    Every array must be finite, which is checked when the model is built.
    Then bank entries with an all-zero weight column are dropped, with the
    pool and PCA blocks no live entry reads: a model holds live kernels only.
    """

    class_names: tuple[str, ...]
    bank: tuple[BankEntry, ...]
    kernel_weights: np.ndarray           # (pairs, M)
    bias: np.ndarray                     # (pairs,)
    pool: Mapping[str, np.ndarray]       # block -> (S, d_block)
    dual_coef: np.ndarray                # (S, pairs)
    pca: Mapping[str, PcaModel] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("kernel_weights", "bias", "dual_coef"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64))
        pool = {name: frozen(rows, np.float64) for name, rows in self.pool.items()}
        count = len(self.pairs)
        if self.kernel_weights.shape != (count, len(self.bank)):
            raise ValueError(
                f"kernel weights have shape {self.kernel_weights.shape}, "
                f"expected ({count}, {len(self.bank)}) for pairs x bank kernels"
            )
        if self.bias.shape != (count,):
            raise ValueError(f"bias has shape {self.bias.shape}, expected ({count},)")
        if self.dual_coef.ndim != 2 or self.dual_coef.shape[1] != count:
            raise ValueError(
                f"dual coefficients have shape {self.dual_coef.shape}, "
                f"expected (pool rows, {count})"
            )
        for name, rows in pool.items():
            if rows.ndim != 2 or rows.shape[0] != self.dual_coef.shape[0]:
                raise ValueError(
                    f"pool block {name!r} has shape {rows.shape}, expected "
                    f"{self.dual_coef.shape[0]} rows"
                )
            if name in self.pca and rows.shape[1] != self.pca[name].k:
                raise ValueError(
                    f"pool block {name!r} has {rows.shape[1]} columns, expected the "
                    f"{self.pca[name].k} components of its PCA model"
                )
            check_finite(rows, f"values in pool block {name!r} row")
        check_finite(self.kernel_weights, "values in kernel_weights row")
        check_finite(self.bias, "values in bias entry")
        check_finite(self.dual_coef, "values in dual_coef row")
        live = self.kernel_weights.any(axis=0)
        if not live.any():
            raise ValueError("kernel_weights has no nonzero weight: no bank entry is live")
        bank = tuple(itertools.compress(self.bank, live))
        live_pool = {e.block: _read_block(pool, e.block, "the support-vector pool lacks")
                     for e in bank}
        object.__setattr__(self, "bank", bank)
        object.__setattr__(self, "kernel_weights", frozen(self.kernel_weights[:, live]))
        object.__setattr__(self, "pool", live_pool)
        object.__setattr__(self, "pca", {n: p for n, p in self.pca.items() if n in live_pool})

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return class_pairs(self.class_count)


@dataclass(frozen=True)
class VoteResult:
    """Outcome of max-wins voting for one query."""

    winner: str
    votes: int
    tally: tuple[int, ...]
    decisions: Mapping[tuple[str, str], float]
    class_names: tuple[str, ...]


def tally_votes(class_count: int, row: Sequence[float]) -> tuple[np.ndarray, int]:
    """Count pairwise wins and resolve the winner.

    `row` holds one discriminant value per pair (a, b) of
    `class_pairs(class_count)`; h >= 0 is a win for a. Ties on votes break
    on the larger sum of |h| over won pairs, then on the lower class index.
    """
    votes = np.zeros(class_count, dtype=np.int64)
    margin = np.zeros(class_count)
    for (a, b), h in zip(class_pairs(class_count), row):
        winner = a if h >= 0 else b
        votes[winner] += 1
        margin[winner] += abs(h)
    best = 0
    for candidate in range(1, class_count):
        if votes[candidate] > votes[best] or (
            votes[candidate] == votes[best] and margin[candidate] > margin[best]
        ):
            best = candidate
    return votes, best


def _read_block(blocks: FeatureBlocks, name: str, lack: str) -> np.ndarray:
    """`blocks[name]` as float64; a missing block is named with the blocks held."""
    if name not in blocks:
        raise ValueError(f"the kernel bank reads block {name!r}, which {lack} "
                         f"(blocks held: {' '.join(blocks)})")
    return np.asarray(blocks[name], dtype=np.float64)


def train_multiclass(
    blocks: FeatureBlocks,
    labels: Sequence[str],
    bank_plans: Sequence[tuple[str, KernelPlan]],
    C: float = 10.0,
    *,
    class_names: Sequence[str] | None = None,
    pca_energy: float | None = None,
    include_bias: bool = True,
) -> MulticlassModel:
    """Train every pairwise classifier over the feature blocks the bank reads.

    Kernel plans resolve against the training data (auto RBF widths use the
    full training set of their block). Each block the bank reads must be
    given and finite; other blocks are ignored. With `pca_energy` set, each
    read block is reduced first and the projections are stored in the model
    so queries go through the same mapping.
    """
    labels = list(labels)
    n = len(labels)
    if len(set(labels)) < 2:  # a model of no class pairs would have no live kernel
        raise ValueError(f"training needs two classes or more, got {sorted(set(labels))}")
    names = tuple(class_names) if class_names is not None else order_classes(labels)
    index_of = {name: i for i, name in enumerate(names)}
    unknown = sorted(set(labels) - set(names))
    if unknown:
        raise ValueError(f"labels not in the class set: {unknown}")
    y_index = np.asarray([index_of[label] for label in labels])

    pca_models: dict[str, PcaModel] = {}
    used: dict[str, np.ndarray] = {}
    for name in dict.fromkeys(block for block, _ in bank_plans):
        data = _read_block(blocks, name, "the features lack")
        if data.shape[0] != n:
            raise ValueError(f"block {name!r} has {data.shape[0]} rows, expected {n}")
        check_finite(data, f"values in block {name!r} row")
        if pca_energy is not None:
            model = fit_pca(data, pca_energy)
            pca_models[name] = model
            data = _reduce_block(model, data)
        used[name] = data

    bank = tuple(
        BankEntry(block, resolve_kernel(plan, used[block]))
        for block, plan in bank_plans
    )
    if not bank:
        raise ValueError("kernel bank is empty")
    grams = np.empty((len(bank), n, n))  # filled in place: no second copy of the bank
    for K, entry in zip(grams, bank):
        K[...] = kernel_matrix(entry.spec, used[entry.block])

    pairs = class_pairs(len(names))
    weights = np.zeros((len(pairs), len(bank)))
    bias = np.zeros(len(pairs))
    coef = np.zeros((n, len(pairs)))  # alpha * y over all training rows
    for p, (a, b) in enumerate(pairs):
        subset = np.nonzero((y_index == a) | (y_index == b))[0]
        y = np.where(y_index[subset] == a, 1.0, -1.0)
        solution = train_binary_mkl(grams[:, subset[:, None], subset], y, C)
        sv = solution.support_indices
        coef[subset[sv], p] = solution.alphas[sv] * solution.labels[sv]
        weights[p] = solution.kernel_weights
        if include_bias:
            bias[p] = solution.bias
    in_pool = np.nonzero(coef.any(axis=1))[0]
    return MulticlassModel(
        class_names=names,
        bank=bank,
        kernel_weights=weights,
        bias=bias,
        pool={block: used[block][in_pool] for block in sorted(used)},
        dual_coef=coef[in_pool],
        pca=pca_models,
    )


def decision_values(model: MulticlassModel, x_blocks: FeatureBlocks) -> np.ndarray:
    """Pairwise discriminants of a batch of queries, shape (n, pairs).

    h_p(x) = sum_m w[p, m] * sum_i dual_coef[i, p] * k_m(x, pool_i) + bias[p];
    a single query may be given as 1-D block vectors. h >= 0 is a vote for
    the pair's first class. Blocks the bank does not read are ignored; the
    others are checked for NaN and inf once reduced, in bank order.

    A single query's 1-D block is projected as 1-D, through gemv, which
    gives the bits of the (1, d) product; a batch goes through gemm, whose
    rows need not have those bits, so each keeps its own path.
    """
    x = {}
    for name in model.pool:
        x[name] = _read_block(x_blocks, name, "the query lacks")
        if name in model.pca:
            x[name] = _reduce_block(model.pca[name], x[name])
        check_finite(np.atleast_2d(x[name]), "feature values in left sample")
    n = len(np.atleast_2d(next(iter(x.values()))))
    total = np.zeros((n, len(model.pairs)))
    for m, entry in enumerate(model.bank):
        K = kernel_matrix(entry.spec, x[entry.block], model.pool[entry.block])
        total += model.kernel_weights[:, m] * (K @ model.dual_coef)
    return total + model.bias


def vote(model: MulticlassModel, row: np.ndarray) -> VoteResult:
    """Max-wins voting over one query's row of `decision_values`."""
    h = row.tolist()
    votes, winner = tally_votes(model.class_count, h)
    names = model.class_names
    return VoteResult(
        winner=names[winner],
        votes=int(votes[winner]),
        tally=tuple(int(v) for v in votes),
        decisions={(names[a], names[b]): value for (a, b), value in zip(model.pairs, h)},
        class_names=names,
    )


def classify(model: MulticlassModel, x_blocks: FeatureBlocks) -> VoteResult:
    """Score one query with every pairwise classifier and vote."""
    return vote(model, decision_values(model, x_blocks)[0])


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CvResult:
    """Confusion counts and overall rate from one cross-validation run."""

    class_names: tuple[str, ...]
    counts: np.ndarray            # (P, P) int, rows true, cols predicted
    fold_notes: tuple[str, ...]   # diagnostics, e.g. skipped folds
    folds: int
    scheme: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", frozen(self.counts, np.int64))

    @property
    def percentages(self) -> np.ndarray:
        """Row-normalized confusion matrix in percent."""
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1)
        return 100.0 * self.counts / safe

    @property
    def overall_rate(self) -> float:
        """Overall recognition rate in percent."""
        total = int(self.counts.sum())
        if total == 0:
            return 0.0
        return 100.0 * float(np.trace(self.counts)) / total


def random_folds(
    labels: Sequence[str], folds: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified fold assignment: shuffle within class, deal round-robin."""
    labels = np.asarray(labels)
    assignment = np.zeros(len(labels), dtype=np.int64)
    for name in sorted(set(labels.tolist())):
        indices = np.nonzero(labels == name)[0]
        rng.shuffle(indices)
        assignment[indices] = np.arange(len(indices)) % folds
    return assignment


def subject_folds(subjects: Sequence[str], folds: int) -> np.ndarray:
    """Whole subjects per fold, dealt in stable hash order of the id."""
    digest = {
        s: hashlib.sha256(s.encode("utf-8")).hexdigest() for s in set(subjects)
    }
    ordered = sorted(digest, key=lambda s: (digest[s], s))
    fold_of = {s: i % folds for i, s in enumerate(ordered)}
    return np.asarray([fold_of[s] for s in subjects], dtype=np.int64)


def cross_validate(
    blocks: FeatureBlocks,
    labels: Sequence[str],
    bank_plans: Sequence[tuple[str, KernelPlan]],
    C: float = 10.0,
    *,
    folds: int = 10,
    scheme: str = "random",
    subjects: Sequence[str] | None = None,
    seed: int = 0,
    pca_energy: float | None = None,
    include_bias: bool = True,
) -> CvResult:
    """K-fold evaluation; training folds never see test samples.

    Under the person-independent scheme whole subjects are held out, so no
    subject appears on both sides of a split. Folds whose training part
    lacks a class are skipped with a diagnostic note. All shuffling flows
    from `seed`.
    """
    labels = list(labels)
    n = len(labels)
    if n < folds:
        raise ValueError(f"need at least {folds} samples for {folds} folds")
    if scheme not in CV_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} ({', '.join(CV_SCHEMES)})")
    if scheme == "random":
        assignment = random_folds(labels, folds, np.random.default_rng(seed))
    else:
        if subjects is None:
            raise ValueError("person-independent scheme requires subject ids")
        assignment = subject_folds(subjects, folds)

    names = order_classes(labels)
    index_of = {name: i for i, name in enumerate(names)}
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    notes = []
    label_array = np.asarray(labels)
    for fold in range(folds):
        test = np.nonzero(assignment == fold)[0]
        train = np.nonzero(assignment != fold)[0]
        if len(test) == 0:
            notes.append(f"fold {fold}: empty test fold, skipped")
            continue
        train_labels = label_array[train]
        missing = [name for name in names if name not in set(train_labels.tolist())]
        if missing:
            notes.append(
                f"fold {fold}: class {missing[0]!r} absent from training, skipped"
            )
            continue
        train_blocks = {name: data[train] for name, data in blocks.items()}
        model = train_multiclass(
            train_blocks,
            train_labels.tolist(),
            bank_plans,
            C,
            class_names=names,
            pca_energy=pca_energy,
            include_bias=include_bias,
        )
        h = decision_values(model, {name: data[test] for name, data in blocks.items()})
        for index, row in zip(test, h):
            counts[index_of[labels[index]], index_of[vote(model, row).winner]] += 1
    return CvResult(
        class_names=names,
        counts=counts,
        fold_notes=tuple(notes),
        folds=folds,
        scheme=scheme,
    )
