"""Persistence of trained classifier bundles.

A bundle carries everything classification of a fresh image needs: the
pairwise kernel weights and biases, the shared support-vector pool with its
(pool rows x pairs) dual coefficients, the per-block PCA models, the
registration reference shape and the descriptor settings used at
extraction time. Bank entry m is stored as `bank<m>_block`, `bank<m>_kernel`
and a typed `bank<m>_<param>` per kernel parameter (`kernels.KINDS`), for each
column m of `kernel_weights`. Arrays are raw bytes: a round trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .arraystore import StoreEntries, read_store, write_store
from .kernels import KINDS
from .lbp import MIN_WINDOW
from .multiclass import BankEntry, MulticlassModel
from .pca import PcaModel
from .records import located
from .registration import CROP_SIZE, LandmarkSet

# HOG gets at most one bin per degree of orientation.
MAX_HOG_BINS = 180

# The stored fields of a block's PcaModel, in its field order.
_PCA_ENTRIES = (("mean", np.ndarray), ("components", np.ndarray),
                ("variances", np.ndarray), ("retained", float), ("energy", float))


@dataclass(frozen=True)
class FeatureParams:
    """Descriptor settings that must match between extraction and inference."""

    descriptors: tuple[str, ...]  # subset of ("lbph", "hog")
    grid: int = 8
    hog_bins: int = 59

    def __post_init__(self) -> None:
        if any(d not in ("lbph", "hog") for d in self.descriptors) or not self.descriptors:
            raise ValueError(f"descriptors must be from lbph/hog, got {self.descriptors}")
        if len(set(self.descriptors)) < len(self.descriptors):
            raise ValueError(f"descriptors must not repeat, got {self.descriptors}")
        if self.grid < 1:
            raise ValueError(f"grid must be at least 1, got {self.grid}")
        if CROP_SIZE % self.grid or CROP_SIZE // self.grid < MIN_WINDOW:
            raise ValueError(f"grid must divide the {CROP_SIZE}-px crop into windows of "
                             f"at least {MIN_WINDOW} px, got {self.grid}")
        if self.hog_bins < 1:
            raise ValueError(f"hog_bins must be at least 1, got {self.hog_bins}")
        if self.hog_bins > MAX_HOG_BINS:
            raise ValueError(f"hog_bins must be at most {MAX_HOG_BINS}, got {self.hog_bins}")

    def entries(self) -> dict[str, object]:
        """The store entries that hold these settings, in their stored order."""
        return {
            "feature_descriptors": " ".join(self.descriptors),
            "feature_grid": self.grid,
            "feature_hog_bins": self.hog_bins,
        }

    @classmethod
    def from_entries(cls, entries: StoreEntries) -> "FeatureParams":
        """The settings a store holds; a bad value names `path: entry`."""
        stored = {"descriptors": tuple(entries.typed("feature_descriptors", str).split()),
                  "grid": entries.typed("feature_grid", int),
                  "hog_bins": entries.typed("feature_hog_bins", int)}
        # Every check concerns one field, so setting the fields one at a
        # time over valid defaults names the entry at fault.
        params = cls(("lbph", "hog"))
        for name, value in stored.items():
            with located(f"{entries.path}: feature_{name}"):
                params = replace(params, **{name: value})
        return params


@dataclass(frozen=True)
class ModelBundle:
    """A trained model plus its preprocessing context."""

    model: MulticlassModel
    reference: LandmarkSet | None = None
    feature: FeatureParams | None = None


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    model = bundle.model
    entries: dict[str, object] = {"kind": "model", "classes": " ".join(model.class_names)}
    for m, entry in enumerate(model.bank):
        kind = next(k for k, (make, _) in KINDS.items() if isinstance(entry.spec, make))
        entries.update({f"bank{m}_block": entry.block, f"bank{m}_kernel": kind})
        for name, convert in KINDS[kind][1].items():
            value = getattr(entry.spec, name)  # kept where converting loses it (degree 2.5)
            entries[f"bank{m}_{name}"] = convert(value) if convert(value) == value else value
    entries["pca_blocks"] = " ".join(sorted(model.pca))
    for name in sorted(model.pca):
        for key, _ in _PCA_ENTRIES:
            entries[f"pca_{name}_{key}"] = getattr(model.pca[name], key)
    entries["bias"] = model.bias
    entries["kernel_weights"] = model.kernel_weights
    entries["dual_coef"] = model.dual_coef
    for block in sorted(model.pool):
        entries[f"pool_{block}"] = model.pool[block]
    if bundle.reference is not None:
        entries["reference"] = bundle.reference.points
    if bundle.feature is not None:
        entries.update(bundle.feature.entries())
    write_store(entries, path)


def load_model(path: str | Path) -> ModelBundle:
    entries = read_store(path)
    if entries.get("kind") != "model":
        raise ValueError(f"{path} is not a model bundle")
    if "bank0_spec" in entries:
        raise ValueError(f"{path}: bank0_spec: a text kernel spec; retrain with 'bearface train'")
    bank = []
    for m in range(entries.typed("kernel_weights", np.ndarray).shape[-1]):
        block, kind = entries.typed(f"bank{m}_block", str), entries.typed(f"bank{m}_kernel", str)
        if kind not in KINDS:
            raise ValueError(f"{path}: bank{m}_kernel: unknown kernel kind {kind!r}")
        make, params = KINDS[kind]
        values = {name: entries.typed(f"bank{m}_{name}", t) for name, t in params.items()}
        with located(f"{path}: bank{m}"):
            bank.append(BankEntry(block=block, spec=make(**values)))
    pca = {
        name: entries.build(
            PcaModel, *(entries.typed(f"pca_{name}_{key}", kind) for key, kind in _PCA_ENTRIES)
        )
        for name in entries.typed("pca_blocks", str).split()
    }
    model = entries.build(
        MulticlassModel,
        class_names=tuple(entries.typed("classes", str).split()),
        bank=tuple(bank),
        kernel_weights=entries.typed("kernel_weights", np.ndarray),
        bias=entries.typed("bias", np.ndarray),
        pool={
            block: entries.typed(f"pool_{block}", np.ndarray)
            for block in sorted({e.block for e in bank})
        },
        dual_coef=entries.typed("dual_coef", np.ndarray),
        pca=pca,
    )
    reference = None
    if "reference" in entries:
        reference = entries.build(LandmarkSet, entries.typed("reference", np.ndarray))
    feature = FeatureParams.from_entries(entries) if "feature_descriptors" in entries else None
    lacking = [b for b in model.pool if feature is not None and b not in feature.descriptors]
    if lacking:  # checked after pruning: a block only dead entries read may be absent
        raise ValueError(f"{path}: feature_descriptors: lacks block {lacking[0]!r}, "
                         "which the kernel bank reads")
    return ModelBundle(model=model, reference=reference, feature=feature)
