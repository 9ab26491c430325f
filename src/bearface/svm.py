"""Soft-margin SVM dual solver on a precomputed Gram matrix.

Sequential two-variable coordinate optimization: each step picks the
maximal-violating index and pairs it with the partner giving the best
second-order gain (WSS2 of Fan, Chen & Lin, JMLR 6, 2005), then solves that
two-variable subproblem exactly. Convergence is declared when the largest
KKT violation falls below the tolerance. A step that the box clips to no
move at all (a multiplier within rounding of a bound) puts that multiplier
on its bound instead, so a solve never stops above the tolerance while a
violating pair is left. The bias comes from the free
support vectors, or from the midpoint of the bound constraints when none
are free.

The working set is kept the way LIBSVM keeps it (Chang & Lin, ACM TIST
2011), so a step costs O(1) Python work and about a dozen vector
operations, which write into buffers made once per solve:
- the loop state is yg = -y * gradient, not the gradient. Because y is
  +/-1, y_k * gradient_k == -yg_k, and the update -y * (Q[:, i] * delta_i)
  equals K[:, i] * (-y_i * delta_i) bit for bit, so yg moves by columns of
  K times -y_k * delta_k, read as rows of one transposed copy of K; the
  start's yg = -y * (Q @ alpha - 1) is y - K @ (y * alpha) for the same
  reason. A cold start is the warm start from alpha = 0: K @ (y * 0) is a
  vector of zeros, so yg starts as y bit for bit, the plain loop's -y * -1;
- membership of I_up and I_low lives in one (2, n) additive penalty array
  (0 in the set, -inf / +inf outside), built once per solve in one
  `np.where`, and yg is added to both rows in one call; a step changes
  only alpha_i and alpha_j, so it rewrites only those two entries of each
  row;
- the curvature of every candidate pair is one (n, n) matrix built once per
  solve, and row i is the partner search's curvature vector;
- the partner gain is max(m_up - low_score, 0)**2 / curvature, with no
  mask: a candidate (in I_low with yg < m_up) gets the plain rule's gain
  and every other index gets 0. The violation is at least tol > 0, so the
  largest gain is positive and only a candidate reaches it: the same
  partner. Should that gain underflow to 0 (a tol far below the kernel's
  scale), the plain masked rule picks instead;
- the two-variable update runs on Python floats.

Exact-identity rule: the loop must return the multipliers, bias, objective,
violation and iteration count of the plain loop that rebuilds the masks
every step (`reference_solve` in tests/test_svm.py), bit for bit. So every
value that feeds a comparison, the gradient update or the result is
computed from the same operands in the same order; a sign flip by y is
exact and commutes with rounding. Adding a 0 penalty leaves a score
unchanged (a -0.0 turns into +0.0, which compares equal; at most the sign
of a zero violation can differ), because y is +/-1, 2.0 * y[i] * y[j] *
Q[i, j] equals 2.0 * K[i, j] exactly, and the bias mean is np.mean's own
add.reduce over the free set divided by its count.

The PSD check (`ensure_psd`) adds diagonal jitter when the smallest
eigenvalue that `np.linalg.eigvalsh` computes is below -1e-8. One
Cholesky factorisation can prove that it is not, with eps = 2**-52:
lower K's diagonal by s = max(0, 64 n**2 eps tr(K) - 1e-8) and factor.
- A factorisation that completes, with a finite diagonal, is the exact
  factorisation of K - s I + E with ||E||_2 <= (n + 1) eps ||L||_F**2 /
  (1 - (n + 1) eps) (Demmel's backward error; Higham, Accuracy and
  Stability of Numerical Algorithms, 2nd ed., Thm 10.5), and ||L||_F**2 is
  the trace of L L', at most tr(K) to first order. So lambda_min(K) >=
  s - (n + 2) eps tr(K).
- LAPACK's symmetric eigensolvers return each eigenvalue within
  p(n) eps ||K||_2 of the exact one (LAPACK Users' Guide, 3rd ed.,
  section 4.7), for a modestly growing p(n), and ||K||_2 <= tr(K) to
  first order once lambda_min(K) is bounded as above. The constant 64
  lets 64 n**2 - (n + 2) stand for p(n) with room to spare.
So the computed eigvalsh(K)[0] is at least s - 64 n**2 eps tr(K) >= -1e-8,
and the eigendecomposition would return K unchanged: the check returns K
without running it. Every other matrix (the factorisation fails because K
is indefinite, singular or too close to the floor; K is empty, not square
or not float64) goes through eigvalsh as before, with its floor, warning
and jitter. On the benchmark's Grams, lambda_min / (n**2 eps tr(K)) is at
least about 770, twelve times the constant, so the certificate decides
every one of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import NumericsWarning
from .records import frozen

DEFAULT_KKT_TOL = 1e-3
_PSD_FLOOR = -1e-8   # most negative eigenvalue tolerated without repair
# The PSD certificate's constant: c n**2 eps tr(K) covers the Cholesky
# backward error and eigvalsh's error bound together (module docstring).
_CERTIFICATE = 64.0
_EPS = float(np.finfo(np.float64).eps)
_JITTER = 1e-8
_TAU = 1e-12
# The penalty of an index outside I_up (row 0) and outside I_low (row 1).
_OUTSIDE = np.array([[-np.inf], [np.inf]])


@dataclass(frozen=True)
class DualSolution:
    """Result of one dual solve."""

    alpha: np.ndarray
    bias: float
    objective: float      # sum(alpha) - 0.5 * alpha' Q alpha (maximized)
    kkt_violation: float
    iterations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", frozen(self.alpha, np.float64))


def free_set(alpha: np.ndarray, C: float) -> np.ndarray:
    """The free duals, 1e-9 * C clear of both bounds of the box [0, C]."""
    return (alpha > 1e-9 * C) & (alpha < C - 1e-9 * C)


def dual_objective(alpha: np.ndarray, K: np.ndarray, y: np.ndarray) -> float:
    """Value of the dual objective for given multipliers."""
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ K @ v)


def _certified_psd(K: np.ndarray) -> bool:
    """Whether one Cholesky factorisation proves eigvalsh(K)[0] >= -1e-8.

    K is lowered on its diagonal by s = max(0, 64 n**2 eps tr(K) - 1e-8)
    and factored; see the module docstring for the two error bounds that
    make a completed factorisation a proof. Like eigvalsh, the
    factorisation reads only the lower triangle.
    """
    if (not isinstance(K, np.ndarray) or K.dtype != np.float64 or K.ndim != 2
            or K.shape[0] != K.shape[1] or not K.size):
        return False
    n = K.shape[0]
    # A trace summed on Python floats overflows to inf without a warning,
    # and an infinite shift fails the factorisation.
    shift = _CERTIFICATE * n * n * _EPS * sum(K.diagonal().tolist()) + _PSD_FLOOR
    if shift > 0.0:
        K = K.copy()
        K.reshape(-1)[:: n + 1] -= shift
    try:
        factor = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return False
    # OpenBLAS takes a NaN pivot (an overflow inside the factorisation of
    # a finite matrix) for a positive one; every NaN ends on the diagonal.
    return bool(np.isfinite(factor.diagonal()).all())


def _check_finite_gram(K: np.ndarray) -> None:
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix has non-finite entries")


def ensure_psd(K: np.ndarray) -> np.ndarray:
    """Add diagonal jitter when the matrix is meaningfully indefinite.

    Returns K itself when eigvalsh's smallest eigenvalue is at least -1e-8,
    and otherwise K + 1e-8 I with a NumericsWarning. A completed Cholesky
    factorisation of K lowered by max(0, 64 n**2 eps tr(K) - 1e-8) on its
    diagonal proves the first case without the eigendecomposition (module
    docstring); any other matrix goes through eigvalsh. A matrix with a
    NaN or an infinite entry is rejected with a ValueError first.
    """
    _check_finite_gram(K)
    if _certified_psd(K):
        return K
    smallest = float(np.linalg.eigvalsh(K)[0])
    if smallest < _PSD_FLOOR:
        warnings.warn(
            f"combined kernel matrix has eigenvalue {smallest:.3e}; "
            f"adding diagonal jitter {_JITTER:g}",
            NumericsWarning,
            stacklevel=3,
        )
        K = K + _JITTER * np.eye(K.shape[0])
    return K


def solve_svm_dual(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = DEFAULT_KKT_TOL,
    max_iter: int | None = None,
    warm_alpha: np.ndarray | None = None,
) -> DualSolution:
    """Maximize the box-constrained dual over a combined kernel matrix.

    K must be finite, which is checked, and positive semidefinite, which is
    not: `ensure_psd` repairs a K that is not. `y` must contain both classes
    as +/-1. `warm_alpha`, when given, must be feasible (box and equality
    constraints); it seeds the solve, which makes repeated solves under
    slowly changing kernels cheap. Without it the solve starts from
    alpha = 0.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix must be square, got {K.shape}")
    _check_finite_gram(K)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match matrix size {n}")
    y_l = y.tolist()
    classes = set(y_l)
    if not classes <= {1.0, -1.0}:
        raise ValueError("labels must be -1 or +1")
    if len(classes) < 2:
        raise ValueError("both classes must be present")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if max_iter is None:
        max_iter = max(20000, 200 * n)

    start = np.zeros(n) if warm_alpha is None else np.asarray(warm_alpha, dtype=np.float64)
    alpha = np.clip(start, 0.0, C)
    alpha_l = alpha.tolist()
    # -y * (Q @ alpha - 1.0) with Q = yy' o K: each product and partial
    # sum of Q's rows is K's times y_k, an exact sign flip, and so is
    # the subtraction of 1.0 (module docstring). K is read in C order,
    # as Q was, so the dot products add in the same order.
    yg = y - np.ascontiguousarray(K) @ (y * alpha)
    above, below = alpha > 0, alpha < C
    # In I_up: below C for y = +1, above 0 for y = -1; I_low the reverse.
    members = np.where(y > 0, [below, above], [above, below])
    # Row 0 is the I_up penalty, row 1 the I_low penalty.
    penalty = np.where(members, 0.0, _OUTSIDE)
    up_pen, low_pen = penalty
    # Row k of `rows` is column k of K (module docstring).
    rows = np.ascontiguousarray(K.T)

    diag = K.diagonal()  # the diagonal of Q, since y_k**2 == 1
    # Row i is the partner search's curvature vector (module docstring).
    curvature = np.add.outer(diag, diag)
    np.subtract(curvature, 2.0 * K, out=curvature)
    curvature[~(curvature > 0)] = _TAU
    scores = np.empty((2, n))
    up_scores, low_scores = scores
    gain = np.empty(n)
    step = np.empty(n)
    diag_l = diag.tolist()
    iterations = 0
    violation = np.inf
    for iterations in range(1, max_iter + 1):
        np.add(yg, penalty, out=scores)
        i = int(up_scores.argmax())
        m_up = float(yg[i]) if up_pen[i] == 0.0 else -np.inf  # -inf: I_up empty
        m_low = float(low_scores[low_scores.argmin()])  # cheaper than .min()
        violation = m_up - m_low
        if violation < tol:
            break

        # Second-order partner selection among violating candidates; every
        # other index gains 0 (module docstring).
        np.subtract(m_up, low_scores, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, curvature[i], out=gain)
        j = int(gain.argmax())
        if not gain[j] > 0.0:
            # The best gain underflowed to 0 (tol**2 below the curvature's
            # range): pick among the candidates alone, as the plain rule does.
            b_vec = m_up - yg
            masked = np.where(low_scores < m_up, (b_vec * b_vec) / curvature[i], -np.inf)
            j = int(masked.argmax())

        # Exact two-variable update with box clipping, on Python floats.
        y_i = y_l[i]
        y_j = y_l[j]
        s = y_i * y_j
        eta = diag_l[i] + diag_l[j] - 2.0 * float(K[i, j])
        if eta <= 0:
            eta = _TAU
        alpha_j_old = alpha_l[j]
        alpha_i_old = alpha_l[i]
        # y_i * gradient_i - y_j * gradient_j, with y_k * gradient_k == -yg_k.
        candidate = alpha_j_old + y_j * (float(yg[j]) - m_up) / eta
        if s < 0:
            lo = max(0.0, alpha_j_old - alpha_i_old)
            hi = min(C, C + alpha_j_old - alpha_i_old)
        else:
            lo = max(0.0, alpha_i_old + alpha_j_old - C)
            hi = min(C, alpha_i_old + alpha_j_old)
        alpha_j_new = min(hi, max(lo, candidate))
        # Clipped into [0, C]; the order of the operands keeps every value
        # inside the box (a -0.0 included) bit for bit.
        alpha_i_new = min(max(alpha_i_old + s * (alpha_j_old - alpha_j_new), 0.0), C)
        delta_i = alpha_i_new - alpha_i_old
        delta_j = alpha_j_new - alpha_j_old
        if delta_i == 0.0 and delta_j == 0.0:
            # Stuck rule: alpha_i lies within rounding of a bound of the pair's
            # box, e.g. a cancellation residue of 8e-20, which keeps i in its
            # set although no step can move it. Put it on its nearer bound,
            # as LIBSVM's update does, and go on; stop only if that is no
            # move either.
            alpha_i_new = C if alpha_i_old > 0.5 * C else 0.0
            delta_i = alpha_i_new - alpha_i_old
            if delta_i == 0.0:
                break  # no movable pair left at this precision
        alpha_l[i] = alpha_i_new
        alpha_l[j] = alpha_j_new
        for k, a_k in ((i, alpha_i_new), (j, alpha_j_new)):
            lower, upper = (a_k > 0, a_k < C) if y_l[k] > 0 else (a_k < C, a_k > 0)
            up_pen[k] = 0.0 if upper else -np.inf
            low_pen[k] = 0.0 if lower else np.inf
        # -y * (gradient + Q[:, i] * delta_i + Q[:, j] * delta_j), exactly.
        np.multiply(rows[i], -y_i * delta_i, out=gain)
        np.multiply(rows[j], -y_j * delta_j, out=step)
        np.add(gain, step, out=gain)
        np.add(yg, gain, out=yg)
    else:
        warnings.warn(
            f"dual solver hit the iteration cap ({max_iter}); "
            f"violation {violation:.3e}",
            NumericsWarning,
            stacklevel=2,
        )
    alpha = np.array(alpha_l, dtype=np.float64)

    free = free_set(alpha, C)
    count = int(np.count_nonzero(free))
    if count:
        bias = float(np.add.reduce(yg[free]) / count)  # np.mean's own steps
    else:
        up, low = penalty == 0.0  # I_up and I_low of the final alpha
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))

    return DualSolution(
        alpha=alpha,
        bias=bias,
        objective=dual_objective(alpha, K, y),
        kkt_violation=float(max(violation, 0.0)),
        iterations=iterations,
    )
