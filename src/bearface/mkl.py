"""Learning convex kernel-combination weights jointly with the SVM dual.

For M basis Gram matrices the trainer alternates an exact inner dual solve
at fixed weights d with an outer descent step on d over the probability
simplex. The outer step is second order: the curvature of the outer
objective is recovered from the sensitivity of the free dual variables to
d (a bordered KKT solve), and a constrained Newton direction is taken when
that system is well behaved, otherwise plain projected gradient. Either
way a backtracking line search only ever accepts weights that do not
increase the objective, so the recorded objective sequence is
non-increasing by construction.

Most trials of that line search are rejected, and a bound proves most of
those rejections before any solve. With the duals alpha of the current
weights, g_m = -0.5 (alpha y)' K_m (alpha y) is the outer gradient, and
for any weights d' the dual objective of alpha under sum_m d'_m K_m is

    J(alpha; d') = sum(alpha) + d' . g.

The trial at d' warm-starts from alpha, which is feasible for every d'
(the box and the equality constraint do not depend on d), and the SMO
solve only climbs from it. So the trial's objective is at least
sum(alpha) + d' . g, the weak-duality identity behind SimpleMKL's duality
gap (Rakotomamonjy et al., JMLR 9, 2008). A trial is accepted only if its
objective is at most the current one plus 1e-12 relative; when the bound
already exceeds that by another 1e-12 relative, far more than the
rounding of a 4-term dot product or of the solver's objective, the trial
would be rejected, and it is skipped unsolved. A rejected trial changes no
state, so every accepted step, and the model, is the same as with every
trial solved (tests/test_mkl.py solves the skipped ones to check).

Each fit stacks its Grams once and combines them through one (M, n * n)
view; the Newton direction reuses the Gram its duals were solved on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import combine_grams
from .records import frozen
from .svm import DualSolution, ensure_psd, free_set, solve_svm_dual

DEFAULT_C = 10.0
STEP_TOL = 1e-4          # sup-norm of the accepted weight step
OBJECTIVE_TOL = 1e-6     # accepted objective decrease
MAX_OUTER_ITERATIONS = 100
_SUPPORT_EPS = 1e-9
# The solver's two-variable update can leave a multiplier a few ulps above
# C, so the box check allows that much, relative to C: an absolute slack of
# 1e-12 is less than one ulp of C once C >= 8192.
_BOX_RTOL = 4 * np.finfo(np.float64).eps
_BACKTRACK_LIMIT = 25


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {d : d >= 0, sum(d) = 1}.

    The sort-and-threshold rule: sort descending, keep running sums s_k,
    and take theta = (s_rho - 1) / rho for the last rho with
    d_rho > (s_rho - 1) / rho. It runs on Python floats, which do the
    IEEE operations of the array form (``np.cumsum`` adds in sequence,
    then the same divisions and subtractions, and ``np.maximum(v - theta,
    0.0)``, which gives +0.0 for a zero of either sign) in the same order,
    so the bits are the same at a fraction of the per-call cost on the few
    weights of a kernel bank.
    """
    values = np.asarray(v, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty 1-D vector")
    values = values.tolist()
    running = 0.0
    theta = None
    for rank, value in enumerate(sorted(values, reverse=True), start=1):
        running += value
        shifted = (running - 1.0) / rank
        if value - shifted > 0:
            theta = shifted
    # No threshold: an entry of +inf or NaN, or a sum that overflows. The
    # array form sorts NaN first and so finds none; Python's sort may
    # leave a NaN anywhere, so a NaN sum is rejected too.
    if theta is None or math.isnan(running):
        raise ValueError(f"no simplex projection of {values}")
    return np.array([0.0 if x - theta <= 0.0 else x - theta for x in values])


def mkl_gradient(
    alpha: np.ndarray, y: np.ndarray, grams: Sequence[np.ndarray]
) -> np.ndarray:
    """d(objective)/d(d_m) = -0.5 * sum_ij alpha_i alpha_j y_i y_j K^m_ij."""
    v = alpha * y
    return np.asarray([-0.5 * float(v @ K @ v) for K in grams])


@dataclass(frozen=True)
class BinaryMklSolution:
    """One trained pairwise classifier with learned kernel weights."""

    alphas: np.ndarray          # dual variables per training sample
    kernel_weights: np.ndarray  # d over the M basis kernels, on the simplex
    bias: float
    labels: np.ndarray          # +/-1 per training sample (+1 = first class)
    C: float
    objective: float
    history: tuple[tuple[tuple[float, ...], float], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("alphas", "kernel_weights", "labels"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64))

    @property
    def support_indices(self) -> np.ndarray:
        # Relative cutoff: dual magnitudes scale inversely with the kernel
        # magnitude, so an absolute threshold would misfire on large grams.
        cutoff = _SUPPORT_EPS * float(self.alphas.max(initial=0.0))
        return np.nonzero(self.alphas > cutoff)[0]

    def validate(self) -> None:
        """Raise if the dual/simplex feasibility invariants are broken."""
        upper = self.C * (1 + _BOX_RTOL)
        if (self.alphas < -1e-12).any() or (self.alphas > upper).any():
            raise AssertionError("dual variables leave the box [0, C]")
        if abs(float(self.alphas @ self.labels)) > 1e-8:
            raise AssertionError("dual equality constraint violated")
        if (self.kernel_weights < 0).any():
            raise AssertionError("negative kernel weight")
        if abs(float(self.kernel_weights.sum()) - 1.0) > 1e-10:
            raise AssertionError("kernel weights do not sum to one")


def bound_rejects(
    alpha_sum: float, candidate: np.ndarray, gradient: np.ndarray, objective: float
) -> bool:
    """Whether the warm-start bound proves a line-search trial rejected.

    The inner solve at `candidate` starts from the current duals and only
    climbs, so its objective is at least their objective there, which is
    `alpha_sum + candidate @ gradient` (module docstring). A trial whose
    bound exceeds the acceptance threshold by another 1e-12 relative, far
    more than the rounding of either value, would be rejected.
    """
    bound = alpha_sum + float(candidate @ gradient)
    return bound > objective + 2e-12 * (1.0 + abs(objective))


def _curvature_direction(
    grams: np.ndarray,
    combined: np.ndarray,
    y: np.ndarray,
    alpha: np.ndarray,
    C: float,
    gradient: np.ndarray,
) -> np.ndarray | None:
    """Constrained Newton direction from the KKT sensitivity of the duals.

    On the face where the free support set is fixed, the derivative of the
    free duals with respect to each weight solves a bordered system in the
    combined kernel; this yields the outer Hessian H and the direction
    minimizing g'D + 0.5 D'HD subject to sum(D) = 0. `combined` is the
    Gram at the current weights, the one the current duals were solved on.
    Returns None when the system is degenerate or ill-conditioned.
    """
    M = len(grams)
    free = np.flatnonzero(free_set(alpha, C))
    count = free.size
    if count == 0:
        return None
    v = alpha * y
    y_free = y[free]
    # The bordered system S [dalpha; db] = [U; 0]. U's column m is
    # u_m = (yy' o K^m) alpha on the free set, one gemv per Gram, in place.
    sensitivity = np.zeros((count + 1, M))
    U = sensitivity[:count]
    np.multiply(y_free, grams.take(free, axis=1) @ v, out=U.T)
    # The bordered KKT matrix uses the current combined kernel on the free set.
    S = np.zeros((count + 1, count + 1))
    np.multiply(np.multiply.outer(y_free, y_free),
                combined.take(free, axis=0).take(free, axis=1), out=S[:count, :count])
    S[:count, count] = y_free
    S[count, :count] = y_free
    try:
        solved = np.linalg.solve(S, sensitivity)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(solved).all():
        return None
    H = U.T @ solved[:count]            # (M, M)
    H = 0.5 * (H + H.T)
    ridge = 1e-10 * max(1.0, float(np.trace(H)) / max(M, 1))
    system = np.zeros((M + 1, M + 1))
    system[:M, :M] = H + ridge * np.eye(M)
    system[:M, M] = 1.0
    system[M, :M] = 1.0
    rhs = np.concatenate([-gradient, [0.0]])
    try:
        step = np.linalg.solve(system, rhs)[:M]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(step).all():
        return None
    return step


def train_binary_mkl(
    grams: np.ndarray | Sequence[np.ndarray],
    labels: np.ndarray,
    C: float = DEFAULT_C,
) -> BinaryMklSolution:
    """Fit kernel weights and dual variables for one binary problem.

    Weights start uniform at 1/M. Identical basis kernels make the
    objective flat in d, in which case training simply converges at the
    barycenter. The returned history logs (weights, objective) for the
    initial point and every accepted step. Inner solves stop at the SVM
    solver's default KKT tolerance; the outer loop stops on a step below
    STEP_TOL, a decrease below OBJECTIVE_TOL or MAX_OUTER_ITERATIONS.
    """
    if len(grams) == 0:
        raise ValueError("need at least one Gram matrix")
    # One C-ordered (M, n, n) copy for the whole fit, whatever the input's strides:
    # no inner solve or curvature step re-stacks it, and one (M, n * n) view combines it.
    try:
        grams = np.array(grams, dtype=np.float64, order="C")
    except ValueError:  # numpy refuses a ragged sequence
        grams = np.empty(0)
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2]:
        raise ValueError("Gram matrices must share one square shape")
    M, n, _ = grams.shape
    for K in grams:
        K[...] = ensure_psd(K)
    flat = grams.reshape(M, n * n)
    y = np.asarray(labels, dtype=np.float64)
    d = np.full(M, 1.0 / M)

    def inner(
        weights: np.ndarray, warm: np.ndarray | None
    ) -> tuple[DualSolution, np.ndarray]:
        combined = combine_grams(flat, weights).reshape(n, n)
        solution = solve_svm_dual(combined, y, C, warm_alpha=warm)
        return solution, combined

    solution, combined = inner(d, None)
    objective = solution.objective
    history: list[tuple[tuple[float, ...], float]] = [(tuple(d), objective)]

    for _ in range(MAX_OUTER_ITERATIONS):
        gradient = mkl_gradient(solution.alpha, y, grams)
        newton = _curvature_direction(grams, combined, y, solution.alpha, C, gradient)
        gradient_step = -gradient * (0.5 / max(float(np.abs(gradient).max()), 1e-12))
        directions = [newton, gradient_step] if newton is not None else [gradient_step]
        alpha_sum = float(solution.alpha.sum())
        threshold = objective + 1e-12 * (1.0 + abs(objective))

        accepted = None
        for direction in directions:
            scale = 1.0
            for _ in range(_BACKTRACK_LIMIT):
                candidate = project_simplex(d + scale * direction)
                if float(np.abs(candidate - d).max()) < 1e-15:
                    break
                if not bound_rejects(alpha_sum, candidate, gradient, objective):
                    trial, trial_gram = inner(candidate, solution.alpha)
                    if trial.objective <= threshold:
                        accepted = (candidate, trial, trial_gram)
                        break
                scale *= 0.5
            if accepted is not None:
                break
        if accepted is None:
            break  # no feasible descent direction: converged

        d_new, solution, combined = accepted
        step_size = float(np.abs(d_new - d).max())
        decrease = objective - solution.objective
        d = d_new
        objective = solution.objective
        history.append((tuple(d), objective))
        if step_size < STEP_TOL or decrease < OBJECTIVE_TOL:
            break

    return BinaryMklSolution(
        alphas=solution.alpha,
        kernel_weights=d,
        bias=solution.bias,
        labels=y,
        C=C,
        objective=objective,
        history=tuple(history),
    )
