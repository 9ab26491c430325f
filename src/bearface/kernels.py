"""Basis kernels and Gram matrices for the classifier.

Two kernel families are supported: Gaussian RBF and polynomial. A kernel
bank pairs each kernel with a named feature block (e.g. RBF and polynomial
kernels on both the LBPH and HOG blocks), giving the M basis kernels the
weight learner combines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class RbfKernel:
    """k(x, z) = exp(-gamma * ||x - z||^2)."""

    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"rbf gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class PolyKernel:
    """k(x, z) = (scale * <x, z> + offset) ** degree."""

    degree: int = 2
    offset: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"poly degree must be >= 1, got {self.degree}")
        if not (self.offset >= 0 and math.isfinite(self.offset)):
            raise ValueError(f"poly offset must be >= 0 and finite, got {self.offset}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"poly scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class AutoRbf:
    """RBF whose gamma is resolved from training data at fit time."""


KernelSpec = Union[RbfKernel, PolyKernel]
KernelPlan = Union[RbfKernel, PolyKernel, AutoRbf]

# Each kind's kernel class and parameter types, as a model store holds them.
KINDS = {
    "rbf": (RbfKernel, {"gamma": float}),
    "poly": (PolyKernel, {"degree": int, "offset": float, "scale": float}),
}


def sq_distances(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """||x_i - z_j||^2 as ||x_i||^2 + ||z_j||^2 - 2 <x_i, z_j>, floored at 0."""
    sq_dist = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :] - 2.0 * (X @ Z.T)
    return np.maximum(sq_dist, 0.0, out=sq_dist)


def kernel_matrix(
    spec: KernelSpec, X: np.ndarray, Z: np.ndarray | None = None
) -> np.ndarray:
    """Kernel evaluations k(x_i, z_j); Z = None gives the symmetric Gram.

    Pure arithmetic: NaN and inf are checked where data enters, not here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.size == 0:
        raise ValueError("empty feature set")
    symmetric = Z is None
    Zm = X if symmetric else np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if Zm.shape[1] != X.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {X.shape[1]} vs {Zm.shape[1]}"
        )
    if isinstance(spec, RbfKernel):
        K = np.exp(-spec.gamma * sq_distances(X, Zm))
    elif isinstance(spec, PolyKernel):
        K = (spec.scale * (X @ Zm.T) + spec.offset) ** spec.degree
    else:
        raise TypeError(f"unresolved kernel spec {spec!r}")
    if symmetric:
        K = 0.5 * (K + K.T)
    return K


def median_sq_distance(X: np.ndarray) -> float:
    """Median pairwise squared Euclidean distance over a sample set."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return 0.0
    return float(np.median(sq_distances(X, X)[np.triu_indices(n, k=1)]))


def auto_gamma(X: np.ndarray) -> float:
    """Data-driven RBF width: 1 / (dimension * median pairwise sq distance)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dimension = max(1, X.shape[1])
    median = median_sq_distance(X)
    if median <= 0.0:
        return 1.0 / dimension
    return 1.0 / (dimension * median)


def resolve_kernel(plan: KernelPlan, X: np.ndarray) -> KernelSpec:
    """Turn a kernel plan into a concrete spec against training data."""
    if isinstance(plan, AutoRbf):
        return RbfKernel(gamma=auto_gamma(X))
    return plan


def combine_grams(grams: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Convex combination sum_m d_m * K_m, in the shape of one K_m.

    `grams` is a sequence of M matrices, one (M, ...) stack, or an
    (M, n * n) view of one; a float64 stack is combined without being
    copied. The product is the (1 x M) . (M x n*n) one that `np.tensordot`
    issues for the same operands, so the result is the same bit for bit.
    """
    stacked = np.asarray(grams)
    row = np.asarray(weights, dtype=np.float64).reshape(1, len(stacked))
    return np.dot(row, stacked.reshape(len(stacked), -1)).reshape(stacked.shape[1:])
