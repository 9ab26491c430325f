"""Persistence of trained classifier bundles.

A bundle carries everything classification of a fresh image needs: the
pairwise kernel weights and biases, the shared support-vector pool with its
(pool rows x pairs) dual coefficients, the per-block PCA models, the
registration reference shape and the descriptor settings used at
extraction time. Arrays are stored as raw bytes, so a save/load round trip
is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .arraystore import read_store, write_store
from .kernels import format_kernel, parse_kernel
from .lbp import MIN_WINDOW
from .multiclass import BankEntry, MulticlassModel
from .pca import PcaModel
from .registration import CROP_SIZE, LandmarkSet

# HOG gets at most one bin per degree of orientation.
MAX_HOG_BINS = 180


@dataclass(frozen=True)
class FeatureParams:
    """Descriptor settings that must match between extraction and inference."""

    descriptors: tuple[str, ...]  # subset of ("lbph", "hog")
    grid: int = 8
    hog_bins: int = 59

    def __post_init__(self) -> None:
        if any(d not in ("lbph", "hog") for d in self.descriptors) or not self.descriptors:
            raise ValueError(f"descriptors must be from lbph/hog, got {self.descriptors}")
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
    def from_entries(cls, entries: Mapping[str, object], origin: str | Path) -> "FeatureParams":
        """The settings a store holds; a bad value names `origin: entry`."""
        # Every check concerns one field, so setting the fields one at a
        # time over valid defaults names the entry at fault.
        params = cls(("lbph", "hog"))
        for name, read in (("descriptors", lambda text: tuple(str(text).split())),
                           ("grid", int), ("hog_bins", int)):
            try:
                params = replace(params, **{name: read(entries[f"feature_{name}"])})
            except ValueError as error:
                raise ValueError(f"{origin}: feature_{name}: {error}") from None
        return params


@dataclass(frozen=True)
class ModelBundle:
    """A trained model plus its preprocessing context."""

    model: MulticlassModel
    reference: LandmarkSet | None = None
    feature: FeatureParams | None = None


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    model = bundle.model
    entries: dict[str, object] = {
        "kind": "model",
        "classes": " ".join(model.class_names),
        "include_bias": int(model.include_bias),
        "bank_count": len(model.bank),
    }
    for m, entry in enumerate(model.bank):
        entries[f"bank{m}_block"] = entry.block
        entries[f"bank{m}_spec"] = format_kernel(entry.spec)
    entries["pca_blocks"] = " ".join(sorted(model.pca))
    for name in sorted(model.pca):
        pca = model.pca[name]
        entries[f"pca_{name}_mean"] = pca.mean
        entries[f"pca_{name}_components"] = pca.components
        entries[f"pca_{name}_variances"] = pca.variances
        entries[f"pca_{name}_retained"] = pca.retained
        entries[f"pca_{name}_energy"] = pca.energy
    entries["pairs"] = np.asarray(model.pairs, dtype=np.int64).reshape(-1, 2)
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
    pooled = ("pairs", "bias", "kernel_weights", "dual_coef")
    missing = [key for key in pooled if key not in entries]
    if missing:
        raise ValueError(
            f"{path} lacks the {missing[0]!r} entry of the shared support-vector "
            f"pool layout; retrain the model"
        )
    class_names = tuple(str(entries["classes"]).split())
    bank = []
    for m in range(int(entries["bank_count"])):
        block, spec = str(entries[f"bank{m}_block"]), str(entries[f"bank{m}_spec"])
        try:
            bank.append(BankEntry(block=block, spec=parse_kernel(spec)))
        except ValueError as error:
            raise ValueError(f"{path}: bank{m}_spec: {error}") from None
    pca = {}
    pca_blocks = str(entries.get("pca_blocks", "")).split()
    for name in pca_blocks:
        pca[name] = PcaModel(
            mean=entries[f"pca_{name}_mean"],
            components=entries[f"pca_{name}_components"],
            variances=entries[f"pca_{name}_variances"],
            retained=float(entries[f"pca_{name}_retained"]),
            energy=float(entries[f"pca_{name}_energy"]),
        )
    model = MulticlassModel(
        class_names=class_names,
        bank=tuple(bank),
        pairs=entries["pairs"],
        kernel_weights=entries["kernel_weights"],
        bias=entries["bias"],
        pool={
            block: entries[f"pool_{block}"] for block in sorted({e.block for e in bank})
        },
        dual_coef=entries["dual_coef"],
        pca=pca,
        include_bias=bool(int(entries["include_bias"])),
    )
    reference = None
    if "reference" in entries:
        reference = LandmarkSet(entries["reference"])
    feature = FeatureParams.from_entries(entries, path) if "feature_descriptors" in entries else None
    return ModelBundle(model=model, reference=reference, feature=feature)
