"""Principal-component reduction keeping a target fraction of variance.

Which decomposition runs depends only on the shape (n, d) of the samples:

- n >= d (tall): an SVD of the centred (n, d) matrix. Its right singular
  vectors are the components and sigma**2 / (n - 1) the variances. This
  is the reference route.
- d > n (wide, e.g. 240 faces of 3 776 LBPH or HOG bins): the "snapshot"
  route of eigenfaces (Sirovich & Kirby, JOSA A 1987; Turk & Pentland,
  J. Cogn. Neurosci. 1991). The symmetric eigendecomposition of the n x n
  Gram matrix G = Xc Xc^T gives eigenvalues sigma**2 and left singular
  vectors U, and only the k retained components are formed, as
  Xc^T U[:, :k] / sigma[:k]. At most n - 1 components exist, so this
  replaces an SVD of the full block by an n x n problem, seven to nine
  times faster on those blocks.

Forming G squares the condition number, so the Gram route loses relative
accuracy only in components whose sigma is far below sigma_max; their
error grows like eps * (sigma_max / sigma)**2. The retained components
carry a target share of the variance (95% by default), so their sigma
stays close to sigma_max (sigma_max / sigma_k is 10 to 27 on the
benchmark's face blocks), and there the two routes agree to about 1e-12
(tests/test_pca.py compares them). A centred wide block always has
one sigma of zero and duplicate rows add more: negative eigenvalues from
rounding are clamped to 0, and a component with sigma <= 1e-12 * sigma_max
is never retained or divided by, so no component is inf or NaN.

Component signs are fixed so the entry with the largest magnitude in each
basis vector is positive, making fits reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .records import check_finite, frozen

DEFAULT_ENERGY = 0.95


class ZeroVarianceError(ValueError):
    """All samples identical up to rounding; there is no variance to retain."""


@dataclass(frozen=True)
class PcaModel:
    """Mean, orthonormal basis columns, per-component variances, all finite;
    every variance positive, `retained` and `energy` finite."""

    mean: np.ndarray        # (d,)
    components: np.ndarray  # (d, k), orthonormal columns, variance order
    variances: np.ndarray   # (k,), non-increasing
    retained: float         # fraction of total variance kept
    energy: float           # requested fraction

    def __post_init__(self) -> None:
        for name in ("mean", "components", "variances"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64))
        if self.components.ndim != 2:
            raise ValueError(f"PCA components must be 2-D, got shape {self.components.shape}")
        if self.mean.shape != (self.dimension,):
            raise ValueError(f"PCA mean has shape {self.mean.shape}, expected "
                             f"({self.dimension},) for {self.dimension} component rows")
        if self.variances.shape != (self.k,):
            raise ValueError(f"PCA variances have shape {self.variances.shape}, expected "
                             f"({self.k},) for {self.k} components")
        check_finite(self.mean, "values in PCA mean entry")
        check_finite(self.components, "values in PCA components row")
        check_finite(self.variances, "values in PCA variances entry")
        positive = self.variances > 0
        if not positive.all():
            index = int(positive.argmin())
            raise ValueError(f"non-positive values in PCA variances entry {index}")
        for name in ("retained", "energy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"PCA {name} must be finite, got {getattr(self, name)!r}")

    @property
    def dimension(self) -> int:
        return self.components.shape[0]

    @property
    def k(self) -> int:
        return self.components.shape[1]

    @cached_property
    def whitening_scales(self) -> np.ndarray:
        """The divisors that whiten a projection, worked out once per model:
        each variance's square root, the variance floored at 1e-12 of the largest."""
        scales = np.sqrt(np.maximum(self.variances, 1e-12 * self.variances.max()))
        scales.setflags(write=False)
        return scales


def fit_pca(samples: np.ndarray, energy: float = DEFAULT_ENERGY) -> PcaModel:
    """Fit a model keeping the smallest k with cumulative variance >= energy."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"samples must be 2-D (n, d), got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"energy must be in (0, 1], got {energy}")
    mean = X.mean(axis=0)
    centered = X - mean
    if d > n:
        # Snapshot route (module docstring): eigh is ascending, so reverse.
        eigenvalues, u = np.linalg.eigh(centered @ centered.T)
        eigenvalues = np.maximum(eigenvalues[::-1], 0.0)
        u = u[:, ::-1]
        singular = np.sqrt(eigenvalues)
        variances = eigenvalues / (n - 1)
    else:
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        variances = singular**2 / (n - 1)
    total = float(variances.sum())
    # Identical rows whose mean does not round back to the row still leave
    # a centred residue of a few ulps of the mean per entry, so a total at
    # or below (n ulps of each sample's size)**2 is rounding, not variance.
    if total <= (n * np.finfo(np.float64).eps) ** 2 * n * float(mean @ mean):
        raise ZeroVarianceError("samples have zero variance; nothing to retain")
    ratios = np.cumsum(variances) / total
    k = int(np.searchsorted(ratios, energy - 1e-12, side="left")) + 1
    k = min(k, len(variances))
    if d > n:
        # Never retain or divide by a sigma that is zero to rounding.
        k = min(k, int(np.count_nonzero(singular > 1e-12 * singular[0])))
        product = centered.T @ u[:, :k]
        components = np.divide(product, singular[:k], out=product)  # no second (d, k) array
    else:
        components = vt[:k].T.copy()
    # Deterministic sign: largest-magnitude entry of each component positive.
    for j in range(k):
        pivot = int(np.argmax(np.abs(components[:, j])))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return PcaModel(
        mean=mean,
        components=components,
        variances=variances[:k],
        retained=float(ratios[k - 1]),
        energy=energy,
    )


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Coefficients of (x - mean) on the basis; accepts a vector or matrix."""
    array = np.asarray(x, dtype=np.float64)
    if array.shape[-1] != model.dimension:
        raise ValueError(
            f"input dimension {array.shape[-1]} does not match model "
            f"dimension {model.dimension}"
        )
    return (array - model.mean) @ model.components

