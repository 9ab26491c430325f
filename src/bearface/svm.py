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
  K times -y_k * delta_k; the start's yg = -y * (Q @ alpha - 1) is
  y - K @ (y * alpha) for the same reason. A cold start is the warm start
  from alpha = 0: K @ (y * 0) is a vector of zeros, so yg starts as y bit
  for bit, the plain loop's -y * -1;
- yg lives only in one (2, n) scores array: row 0 holds yg on I_up and
  -inf outside it, row 1 holds yg on I_low and +inf outside it, built at
  the start in one `np.where`. A step adds its update to both rows in one
  call: each index of a doubled transposed copy of K holds that column
  of K in both rows, and an infinite score plus a finite update stays
  infinite. A step moves only alpha_i and alpha_j, so only an index whose
  multiplier changed its place in [0, C] (at 0, inside, at C) joins or
  leaves a set; its two scores are rewritten from its finite one, before
  the update;
- the curvature of every candidate pair is one (n, n) matrix, and row i is
  the partner search's curvature vector. It and the doubled copy of K are
  built at the first step, so a start that is already converged (42 of
  the 105 solves of the benchmark's `train` operation) builds neither;
- the partner gain is max(m_up - low_score, 0)**2 / curvature, with no
  mask: a candidate (in I_low with yg < m_up) gets the plain rule's gain
  and every other index gets 0. The violation is at least tol > 0, so the
  largest gain is positive and only a candidate reaches it: the same
  partner. Should that gain underflow to 0 (a tol far below the kernel's
  scale), the plain masked rule picks instead;
- the scalar operands of those vector operations (m_up, the 0 of the
  clamp and the two step coefficients) are 0-d arrays made once, which
  numpy takes faster than Python floats; scalars are read back through
  bound `item`, `argmax` and `argmin` methods;
- the two-variable update runs on Python floats, its box clipping on the
  comparisons that the builtins max and min make, without their calls.

Exact-identity rule: the loop must return the multipliers, bias, objective,
violation and iteration count of the plain loop that rebuilds the masks
every step (`reference_solve` in tests/test_svm.py), bit for bit. So every
value that feeds a comparison, the gradient update or the result is
computed from the same operands in the same order; a sign flip by y is
exact and commutes with rounding. A member score is yg itself, as in the
plain loop's `np.where`: the updates add the same vectors to it, and a
rewrite stores the Python float read from a row that held it, which is
exact.
The plain loop's m_low is `.min()` where this loop takes the entry at
`.argmin()`, so at most the sign of a zero violation can differ. Because y
is +/-1, 2.0 * y[i] * y[j] * Q[i, j] equals 2.0 * K[i, j] exactly, and the
bias mean is np.mean's own add.reduce over the free set divided by its
count.

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
# The score of an index outside I_up (row 0) and outside I_low (row 1).
_OUTSIDE = np.array([[-np.inf], [np.inf]])
# I_up and I_low as -y * alpha and y * alpha above a bound (`_members`).
_SIDES = np.array([[-1.0], [1.0]])
_POS_BOUNDS = np.array([[-1.0], [0.0]])  # times C, for y = +1
_NEG_BOUNDS = np.array([[0.0], [-1.0]])  # times C, for y = -1


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


def _members(ya: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """I_up (row 0) and I_low (row 1) of the multipliers alpha = y * ya.

    I_up is alpha < C for y = +1 and alpha > 0 for y = -1, that is
    -y * alpha > -C or > 0; I_low the reverse, y * alpha > 0 or > -C.
    """
    return np.multiply(ya, _SIDES) > np.multiply(np.where(y > 0, _POS_BOUNDS, _NEG_BOUNDS), C)


def _place(up_scores: np.ndarray, low_scores: np.ndarray, k: int, yg_k: float,
           alpha_k: float, C: float, y_k: float) -> None:
    """Rewrite index k's two scores for its multiplier's new place in [0, C]."""
    upper, lower = (alpha_k < C, alpha_k > 0.0) if y_k > 0 else (alpha_k > 0.0, alpha_k < C)
    up_scores[k] = yg_k if upper else -np.inf
    low_scores[k] = yg_k if lower else np.inf


def _step_operands(K: np.ndarray) -> tuple[list, list, list]:
    """The columns of K, the curvature rows and the diagonal, for the steps.

    Both rows of rows[k] are column k of K, so one product updates both
    score rows; curvature[i] is the partner search's curvature vector
    (module docstring). Both are lists of row views, which index faster
    than the arrays do.
    """
    n = K.shape[0]
    rows = np.empty((n, 2, n))
    rows[:, 0] = rows[:, 1] = K.T
    diag = K.diagonal()  # the diagonal of Q, since y_k**2 == 1
    curvature = np.add.outer(diag, diag)
    np.subtract(curvature, 2.0 * K, out=curvature)
    curvature[~(curvature > 0)] = _TAU
    return list(rows), list(curvature), diag.tolist()


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

    if warm_alpha is None:
        alpha = np.zeros(n)
        ya = y * alpha
        yg = y  # -y * (Q @ 0 - 1.0) == y bit for bit (module docstring)
    else:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64), 0.0, C)
        if alpha.shape != (n,):
            raise ValueError(f"warm_alpha has shape {alpha.shape}, expected ({n},) for n = {n}")
        ya = y * alpha
        # -y * (Q @ alpha - 1.0) with Q = yy' o K: each product and partial
        # sum of Q's rows is K's times y_k, an exact sign flip, and so is
        # the subtraction of 1.0 (module docstring). K is read in C order,
        # as Q was, so the dot products add in the same order.
        yg = y - np.ascontiguousarray(K) @ ya
    # Row 0 holds yg on I_up and -inf elsewhere, row 1 yg on I_low and +inf
    # elsewhere.
    scores = np.where(_members(ya, y, C), yg, _OUTSIDE)
    up_scores, low_scores = scores
    gain = np.empty(n)
    update = np.empty((2, n))
    step = np.empty((2, n))
    # The loop's array operands: numpy takes a 0-d array faster than a float.
    m_up_0d, zero, coef_i, coef_j = np.empty(()), np.zeros(()), np.empty(()), np.empty(())
    up_argmax, up_item = up_scores.argmax, up_scores.item
    low_argmin, low_item = low_scores.argmin, low_scores.item
    gain_argmax, gain_item = gain.argmax, gain.item
    k_item = K.item
    rows = None
    iterations = 0
    violation = np.inf
    for iterations in range(1, max_iter + 1):
        i = up_argmax()
        m_up = up_item(i)  # -inf when I_up is empty
        m_low = low_item(low_argmin())  # cheaper than .min()
        violation = m_up - m_low
        if violation < tol:
            break
        if rows is None:  # a start that is already converged needs none
            rows, curvature, diag_l = _step_operands(K)
            alpha_l = alpha.tolist()

        # Second-order partner selection among violating candidates; every
        # other index gains 0 (module docstring).
        m_up_0d[()] = m_up
        np.subtract(m_up_0d, low_scores, out=gain)
        np.maximum(gain, zero, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, curvature[i], out=gain)
        j = gain_argmax()
        if gain_item(j) > 0.0:
            yg_j = low_item(j)  # j is a candidate, so in I_low
        else:
            # The best gain underflowed to 0 (tol**2 below the curvature's
            # range): pick among the candidates alone, as the plain rule does.
            b_vec = m_up - low_scores
            masked = np.where(low_scores < m_up, (b_vec * b_vec) / curvature[i], -np.inf)
            j = int(masked.argmax())
            yg_j = low_item(j)
            if yg_j == np.inf:  # no candidate (tol <= 0): j may lie outside I_low
                yg_j = up_item(j)

        # Exact two-variable update with box clipping, on Python floats.
        y_i = y_l[i]
        y_j = y_l[j]
        s = y_i * y_j
        eta = diag_l[i] + diag_l[j] - 2.0 * k_item(i, j)
        if eta <= 0:
            eta = _TAU
        alpha_j_old = alpha_l[j]
        alpha_i_old = alpha_l[i]
        # y_i * gradient_i - y_j * gradient_j, with y_k * gradient_k == -yg_k.
        candidate = alpha_j_old + y_j * (yg_j - m_up) / eta
        # Box clipping on comparisons, as max(a, b) and min(a, b) do it
        # (a is kept unless b is strictly larger or smaller), without their
        # calls.
        if s < 0:
            lo = alpha_j_old - alpha_i_old
            hi = C + alpha_j_old - alpha_i_old
        else:
            lo = alpha_i_old + alpha_j_old - C
            hi = alpha_i_old + alpha_j_old
        lo = lo if lo > 0.0 else 0.0  # max(0.0, lo)
        hi = hi if hi < C else C  # min(C, hi)
        alpha_j_new = candidate if candidate > lo else lo  # max(lo, candidate)
        alpha_j_new = alpha_j_new if alpha_j_new < hi else hi  # min(hi, alpha_j_new)
        # Clipped into [0, C]; the order of the operands keeps every value
        # inside the box (a -0.0 included) bit for bit.
        alpha_i_new = alpha_i_old + s * (alpha_j_old - alpha_j_new)
        if 0.0 > alpha_i_new:  # max(alpha_i_new, 0.0)
            alpha_i_new = 0.0
        if C < alpha_i_new:  # min(alpha_i_new, C)
            alpha_i_new = C
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
        # An index whose place in [0, C] changed (at 0, inside, at C) joins
        # or leaves I_up or I_low: its two scores are rewritten from its yg.
        alpha_l[i] = alpha_i_new
        if ((alpha_i_new > 0.0) is not (alpha_i_old > 0.0)
                or (alpha_i_new < C) is not (alpha_i_old < C)):
            _place(up_scores, low_scores, i, m_up, alpha_i_new, C, y_i)
        alpha_j_old = alpha_l[j]  # alpha_i_new when j == i (tol <= 0)
        alpha_l[j] = alpha_j_new
        if ((alpha_j_new > 0.0) is not (alpha_j_old > 0.0)
                or (alpha_j_new < C) is not (alpha_j_old < C)):
            _place(up_scores, low_scores, j, yg_j, alpha_j_new, C, y_j)
        # -y * (gradient + Q[:, i] * delta_i + Q[:, j] * delta_j), exactly,
        # added to both rows: an infinite score stays infinite.
        coef_i[()] = -y_i * delta_i
        coef_j[()] = -y_j * delta_j
        np.multiply(rows[i], coef_i, out=update)
        np.multiply(rows[j], coef_j, out=step)
        np.add(update, step, out=update)
        np.add(scores, update, out=scores)
    else:
        warnings.warn(
            f"dual solver hit the iteration cap ({max_iter}); "
            f"violation {violation:.3e}",
            NumericsWarning,
            stacklevel=2,
        )
    if rows is not None:
        alpha = np.array(alpha_l, dtype=np.float64)

    free = free_set(alpha, C)
    count = int(np.count_nonzero(free))
    if count:
        # A free index is in I_up, so its row-0 score is its yg.
        bias = float(np.add.reduce(up_scores[free]) / count)  # np.mean's own steps
    else:
        up, low = _members(y * alpha, y, C)
        hi = up_scores[up].max() if up.any() else 0.0
        lo = low_scores[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))

    return DualSolution(
        alpha=alpha,
        bias=bias,
        objective=dual_objective(alpha, K, y),
        kkt_violation=float(max(violation, 0.0)),
        iterations=iterations,
    )
