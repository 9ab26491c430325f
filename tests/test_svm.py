"""Dual solver against analytic solutions, an exhaustive-search oracle, the
plain reference loop and a general-purpose optimizer."""

import warnings

import numpy as np
import pytest

from bearface import mkl
from bearface.config import RunConfig
from bearface.diagnostics import NumericsWarning
from bearface.extraction import extract_dataset
from bearface.kernels import PolyKernel, RbfKernel, kernel_matrix
from bearface.manifest import read_manifest
from bearface.mkl import train_binary_mkl
from bearface.multiclass import train_multiclass
from bearface.svm import DEFAULT_KKT_TOL, dual_objective, ensure_psd, solve_svm_dual

_TAU = 1e-12


def reference_solve(K, y, C, tol=DEFAULT_KKT_TOL, max_iter=None, warm_alpha=None):
    """The SMO loop written out with full-length masks at every step.

    A plain restatement of the working-set rule, kept as the reference the
    solver's incremental bookkeeping must reproduce bit for bit. Takes a
    PSD Gram (no jitter step) and valid labels. Returns the solution fields
    and how many steps took the `eta <= 0` branch.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(20000, 200 * n)
    Q = (y[:, None] * y[None, :]) * K
    if warm_alpha is not None:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64).copy(), 0.0, C)
        gradient = Q @ alpha - 1.0
    else:
        alpha = np.zeros(n)
        gradient = -np.ones(n)
    diag = np.diag(Q).copy()
    flat_steps = 0
    iterations = 0
    violation = np.inf
    for iterations in range(1, max_iter + 1):
        yg = -y * gradient
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        up_scores = np.where(up, yg, -np.inf)
        low_scores = np.where(low, yg, np.inf)
        i = int(np.argmax(up_scores))
        m_up = up_scores[i]
        m_low = float(low_scores.min())
        violation = m_up - m_low
        if violation < tol:
            break
        b_vec = m_up - yg
        eligible = low & (yg < m_up)
        a_vec = diag[i] + diag - 2.0 * y[i] * y * Q[i]
        a_vec = np.where(a_vec > 0, a_vec, _TAU)
        gain = np.where(eligible, (b_vec * b_vec) / a_vec, -np.inf)
        j = int(np.argmax(gain))
        s = y[i] * y[j]
        e_i = y[i] * gradient[i]
        e_j = y[j] * gradient[j]
        eta = diag[i] + diag[j] - 2.0 * y[i] * y[j] * Q[i, j]
        if eta <= 0:
            eta = _TAU
            flat_steps += 1
        alpha_j_old = alpha[j]
        alpha_i_old = alpha[i]
        candidate = alpha_j_old + y[j] * (e_i - e_j) / eta
        if s < 0:
            lo = max(0.0, alpha_j_old - alpha_i_old)
            hi = min(C, C + alpha_j_old - alpha_i_old)
        else:
            lo = max(0.0, alpha_i_old + alpha_j_old - C)
            hi = min(C, alpha_i_old + alpha_j_old)
        alpha_j_new = min(hi, max(lo, candidate))
        alpha_i_new = min(max(alpha_i_old + s * (alpha_j_old - alpha_j_new), 0.0), C)
        delta_i = alpha_i_new - alpha_i_old
        delta_j = alpha_j_new - alpha_j_old
        if delta_i == 0.0 and delta_j == 0.0:
            # The pair's box allows no move: alpha_i sits within rounding of
            # a bound. Put it on the nearer bound; stop only if it is there.
            alpha_i_new = C if alpha_i_old > 0.5 * C else 0.0
            delta_i = alpha_i_new - alpha_i_old
            if delta_i == 0.0:
                break
        alpha[i] = alpha_i_new
        alpha[j] = alpha_j_new
        gradient += Q[:, i] * delta_i + Q[:, j] * delta_j
    yg = -y * gradient
    eps = 1e-9 * C
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        bias = float(yg[free].mean())
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))
    fields = dict(
        alpha=alpha,
        bias=bias,
        objective=dual_objective(alpha, K, y),
        kkt_violation=float(max(violation, 0.0)),
        iterations=iterations,
    )
    return fields, flat_steps


def assert_matches_reference(K, y, C, **options):
    """Solve with both loops; returns the reference's `eta <= 0` step count."""
    expected, flat_steps = reference_solve(K, y, C, **options)
    assert_same_solution(solve_svm_dual(K, y, C, **options), expected)
    return flat_steps


def assert_same_solution(solution, expected):
    """The solver's result is the reference's, bit for bit."""
    assert solution.alpha.tobytes() == expected["alpha"].tobytes()
    for name in ("bias", "objective", "kkt_violation", "iterations"):
        assert getattr(solution, name) == expected[name], name


def random_labels(rng, n):
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if (y > 0).any() and (y < 0).any():
            return y


def oracle_dual_objective(K, y, C, levels=12, points=7):
    """Best dual objective by refining exhaustive search.

    One dual is pinned by the equality constraint and a grid over the rest
    is enumerated, keeping the best feasible point and shrinking the window
    around it. Every choice of pinned coordinate is tried, so duals sitting
    exactly on the box boundary are always representable on some grid.
    Independent of the solver's update path.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q = np.outer(y, y) * K

    def objective(A):
        return A.sum(axis=1) - 0.5 * np.einsum("mi,ij,mj->m", A, Q, A)

    best_value = 0.0  # alpha = 0 is always feasible
    best = np.zeros(n)
    for pin in range(n):
        free = [i for i in range(n) if i != pin]
        center = np.full(n - 1, C / 2.0)
        radius = C / 2.0
        local_best = None
        for _ in range(levels):
            axes = [
                np.linspace(max(0.0, c - radius), min(C, c + radius), points)
                for c in center
            ]
            grid = np.stack(
                np.meshgrid(*axes, indexing="ij"), axis=-1
            ).reshape(-1, n - 1)
            pinned = -(grid @ y[free]) * y[pin]
            feasible = (pinned >= -1e-12) & (pinned <= C + 1e-12)
            if feasible.any():
                candidates = np.zeros((int(feasible.sum()), n))
                candidates[:, free] = grid[feasible]
                candidates[:, pin] = np.clip(pinned[feasible], 0.0, C)
                values = objective(candidates)
                index = int(np.argmax(values))
                if local_best is None or values[index] > local_best[0]:
                    local_best = (float(values[index]), candidates[index])
            if local_best is not None:
                center = local_best[1][free]
            radius *= 0.5
        if local_best is not None and local_best[0] > best_value:
            best_value, best = local_best
    return best_value, best


def random_problem(rng, n=None, C=None):
    n = n or int(rng.integers(2, 7))
    C = C or float(rng.choice([0.5, 1.0, 10.0]))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if (y > 0).any() and (y < 0).any():
            break
    X = rng.normal(size=(n, 2))
    K = kernel_matrix(RbfKernel(gamma=float(rng.uniform(0.2, 2.0))), X)
    return K, y, C


def test_two_point_analytic_solution():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])  # linear kernel of x = +1, -1
    y = np.array([1.0, -1.0])
    solution = solve_svm_dual(K, y, C=1000.0)
    assert solution.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
    assert solution.bias == pytest.approx(0.0, abs=1e-9)
    assert solution.objective == pytest.approx(0.5, abs=1e-9)


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        K, y, C = random_problem(rng)
        solution = solve_svm_dual(K, y, C, tol=1e-6)
        oracle_value, _ = oracle_dual_objective(K, y, C)
        assert solution.objective == pytest.approx(oracle_value, abs=1e-4)


def test_kkt_feasibility():
    rng = np.random.default_rng(13)
    for _ in range(20):
        K, y, C = random_problem(rng)
        solution = solve_svm_dual(K, y, C)
        assert (solution.alpha >= -1e-12).all()
        assert (solution.alpha <= C + 1e-12).all()
        assert abs(float(solution.alpha @ y)) <= 1e-8
        assert solution.kkt_violation < 1e-3


def test_duplicated_dataset_keeps_decision():
    # C large enough that the box never binds: duplicating samples then
    # leaves the primal problem (and the decision function) unchanged.
    rng = np.random.default_rng(14)
    X = rng.normal(size=(8, 2)) + np.array([[2.0, 0.0]] * 4 + [[-2.0, 0.0]] * 4)
    y = np.array([1.0] * 4 + [-1.0] * 4)
    spec = RbfKernel(gamma=0.5)
    K = kernel_matrix(spec, X)
    single = solve_svm_dual(K, y, C=50.0, tol=1e-6)
    assert single.alpha.max() < 50.0  # all support vectors free

    X2 = np.vstack([X, X])
    y2 = np.concatenate([y, y])
    K2 = kernel_matrix(spec, X2)
    double = solve_svm_dual(K2, y2, C=50.0, tol=1e-6)

    rows = kernel_matrix(spec, X2, X)  # (16, 8): each column is one train point
    f_single = (single.alpha * y) @ kernel_matrix(spec, X, X) + single.bias
    f_double = (double.alpha * y2) @ rows + double.bias
    assert np.allclose(f_single, f_double, atol=1e-6)


def test_separable_large_c_classifies_training_set():
    rng = np.random.default_rng(15)
    X = np.vstack(
        [rng.normal(size=(20, 3)) + 4.0, rng.normal(size=(20, 3)) - 4.0]
    )
    y = np.array([1.0] * 20 + [-1.0] * 20)
    K = kernel_matrix(RbfKernel(gamma=0.1), X)
    solution = solve_svm_dual(K, y, C=100.0)
    decisions = (solution.alpha * y) @ K + solution.bias
    assert (np.sign(decisions) == y).all()


def test_warm_start_reaches_same_objective():
    rng = np.random.default_rng(16)
    K, y, C = random_problem(rng, n=6, C=1.0)
    cold = solve_svm_dual(K, y, C, tol=1e-6)
    warm = solve_svm_dual(K, y, C, tol=1e-6, warm_alpha=cold.alpha)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
    assert warm.iterations <= cold.iterations


def test_single_class_rejected():
    K = np.eye(3)
    with pytest.raises(ValueError, match="both classes"):
        solve_svm_dual(K, np.array([1.0, 1.0, 1.0]), C=1.0)


def test_bad_labels_rejected():
    K = np.eye(2)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        solve_svm_dual(K, np.array([0.0, 1.0]), C=1.0)


def test_indefinite_matrix_gets_jitter_warning():
    # The repair is ensure_psd's; the solver takes K as it is.
    K = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +/-1
    with pytest.warns(NumericsWarning, match="jitter"):
        repaired = ensure_psd(K)
    np.testing.assert_array_equal(repaired, K + 1e-8 * np.eye(2))


def test_dual_objective_helper():
    K = np.eye(2)
    y = np.array([1.0, -1.0])
    alpha = np.array([0.3, 0.3])
    # sum(alpha) - 0.5 * (0.09 + 0.09)
    assert dual_objective(alpha, K, y) == pytest.approx(0.6 - 0.09)


def test_agrees_with_external_solver_on_medium_problems():
    # Cross-library route: libsvm via scikit-learn on precomputed kernels.
    # The exhaustive oracle above only scales to 6 points; this covers 40.
    sklearn_svm = pytest.importorskip("sklearn.svm")
    rng = np.random.default_rng(18)
    for C in (0.5, 5.0):
        X = np.vstack(
            [rng.normal(size=(20, 3)) + 1.0, rng.normal(size=(20, 3)) - 1.0]
        )
        y = np.array([1.0] * 20 + [-1.0] * 20)
        K = kernel_matrix(RbfKernel(gamma=0.4), X)
        ours = solve_svm_dual(K, y, C, tol=1e-6)
        reference = sklearn_svm.SVC(C=C, kernel="precomputed", tol=1e-8)
        reference.fit(K, y)
        ref_alpha = np.zeros_like(ours.alpha)
        ref_alpha[reference.support_] = np.abs(reference.dual_coef_[0])
        assert ours.objective == pytest.approx(
            dual_objective(ref_alpha, K, y), abs=1e-5
        )
        ref_decision = reference.decision_function(K)
        our_decision = (ours.alpha * y) @ K + ours.bias
        assert np.allclose(our_decision, ref_decision, atol=1e-4)


@pytest.mark.parametrize("C", [0.5, 1.0, 10.0])
def test_loop_matches_reference_on_random_problems(C):
    rng = np.random.default_rng(int(C * 10) + 40)
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 120):
        y = random_labels(rng, n)
        X = rng.normal(size=(n, 3)) + y[:, None] * rng.uniform(0.0, 1.5)
        K = kernel_matrix(RbfKernel(gamma=float(rng.uniform(0.1, 2.0))), X)
        assert_matches_reference(K, y, C)
        assert_matches_reference(K, y, C, tol=1e-6)


def test_loop_matches_reference_from_warm_starts():
    # The MKL trainer's pattern: the solution under one kernel seeds the
    # solve under a nearby kernel. Both warm starts are feasible.
    rng = np.random.default_rng(50)
    for n in (6, 30, 90):
        y = random_labels(rng, n)
        X = rng.normal(size=(n, 4)) + 0.7 * y[:, None]
        K1 = kernel_matrix(RbfKernel(gamma=0.3), X)
        K2 = 0.6 * K1 + 0.4 * kernel_matrix(RbfKernel(gamma=1.5), X)
        for C in (0.5, 10.0):
            seed = solve_svm_dual(K1, y, C).alpha
            assert abs(float(seed @ y)) <= 1e-8
            assert_matches_reference(K2, y, C, warm_alpha=seed)
            assert_matches_reference(K1, y, C, tol=1e-6, warm_alpha=seed)


def test_loop_matches_reference_with_duplicate_rows():
    rng = np.random.default_rng(51)
    flat_steps = 0
    for n in (4, 12, 40):
        X = rng.normal(size=(n // 2, 2))
        X = np.vstack([X, X])
        y = random_labels(rng, n)
        K = kernel_matrix(RbfKernel(gamma=0.8), X)
        for C in (1.0, 10.0):
            flat_steps += assert_matches_reference(K, y, C)
    assert flat_steps > 0  # the cases reach the eta <= 0 branch


def test_loop_matches_reference_on_large_polynomial_grams():
    # Diagonals from a few hundred to a few 1e4, like the benchmark's quadratic
    # kernels on whitened PCA features.
    rng = np.random.default_rng(52)
    for n in (20, 60, 90):
        y = random_labels(rng, n)
        X = rng.normal(size=(n, 60)) * rng.uniform(0.6, 1.5, size=(n, 1))
        X += 0.3 * y[:, None]
        K = kernel_matrix(PolyKernel(degree=2), X)
        diag = np.diag(K)
        assert 3e2 < diag.min() and diag.max() < 4e4 and diag.max() > 10 * diag.min()
        # Duals scale like 1 / diag, so only small C makes the box bind.
        for C in (1e-4, 1e-3, 10.0):
            assert_matches_reference(K, y, C)


def test_cancellation_residue_does_not_stop_the_solve():
    # Without the stuck rule this solve stops after 11 steps at violation
    # 0.91: alpha_0 (y = +1) is left at 6.9e-18 by a cancellation, so it stays
    # in I_low, and the clip bound alpha_j - alpha_0 rounds to alpha_j.
    rng = np.random.default_rng(126)
    n = int(rng.integers(4, 16))
    y = random_labels(rng, n)
    d = int(rng.integers(2, 30))
    X = rng.normal(size=(n, d)) * rng.uniform(0.6, 1.5, size=(n, 1))
    X += 0.3 * y[:, None]
    K = kernel_matrix(PolyKernel(degree=2), X)
    assert n == 7
    solution = solve_svm_dual(K, y, 1.0)
    assert solution.kkt_violation < DEFAULT_KKT_TOL
    assert solution.alpha[0] == 0.0
    assert abs(float(solution.alpha @ y)) <= 1e-15
    assert_matches_reference(K, y, 1.0)


def test_alphas_stay_in_box_on_polynomial_grams():
    # At C = 1e-4 the update alpha_i + s * (alpha_j_old - alpha_j_new) used to
    # land one ulp above C in 7 of these 40 problems.
    rng = np.random.default_rng(55)
    C = 1e-4
    for _ in range(40):
        n = int(rng.integers(8, 40))
        y = random_labels(rng, n)
        X = rng.normal(size=(n, 20)) * rng.uniform(0.6, 1.5, size=(n, 1))
        X += 0.3 * y[:, None]
        K = kernel_matrix(PolyKernel(degree=2), X)
        solution = solve_svm_dual(K, y, C)
        assert solution.alpha.min() >= 0.0
        assert solution.alpha.max() <= C
        assert solution.kkt_violation < DEFAULT_KKT_TOL


def test_loop_matches_reference_at_the_iteration_cap():
    rng = np.random.default_rng(53)
    y = random_labels(rng, 30)
    K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(30, 3)))
    expected, _ = reference_solve(K, y, 10.0, max_iter=3)
    with pytest.warns(NumericsWarning, match="iteration cap"):
        solution = solve_svm_dual(K, y, 10.0, max_iter=3)
    assert solution.iterations == expected["iterations"] == 3
    assert solution.alpha.tobytes() == expected["alpha"].tobytes()
    assert solution.bias == expected["bias"]
    assert solution.kkt_violation == expected["kkt_violation"] > 1e-3


def test_loop_matches_reference_when_gains_underflow():
    # On a Gram scaled by 1e300 the squared violations divided by the
    # curvature underflow to 0, so the largest second-order gain is 0 and
    # the partner must be the plain rule's pick among the candidates.
    rng = np.random.default_rng(62)
    for n in (5, 12):
        y = random_labels(rng, n)
        K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(n, 3)) + 0.5 * y[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)  # the cap, at n = 12
            assert_matches_reference(1e300 * K, y, 1.0, tol=1e-300, max_iter=300)


def test_cold_start_is_the_warm_start_from_zero():
    # The solver has one start: no warm_alpha means alpha = 0, whose yg is
    # y - K @ (y * 0) = y. Both must give the reference's own cold start,
    # a gradient of -1, bit for bit, on a Gram scaled by 1e300 too.
    rng = np.random.default_rng(63)
    for n, scale, options in ((7, 1.0, {}), (40, 1.0, {"tol": 1e-6}),
                              (12, 1e300, {"tol": 1e-300, "max_iter": 300})):
        y = random_labels(rng, n)
        K = scale * kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(n, 3)) + 0.5 * y[:, None])
        for C in (1.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericsWarning)  # the cap, at 1e300
                expected, _ = reference_solve(K, y, C, **options)
                assert_same_solution(solve_svm_dual(K, y, C, **options), expected)
                zero = np.zeros(n)
                assert_same_solution(solve_svm_dual(K, y, C, **options, warm_alpha=zero), expected)


def test_loop_matches_reference_on_asymmetric_matrices():
    # The gradient update reads columns of K; for a symmetric K its rows.
    rng = np.random.default_rng(61)
    for n in (5, 12, 30):
        y = random_labels(rng, n)
        K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(n, 3)) + 0.5 * y[:, None])
        K += 1e-9 * rng.normal(size=K.shape)
        assert not np.array_equal(K, K.T)
        for C in (1.0, 10.0):
            assert_matches_reference(K, y, C)


def test_loop_matches_reference_when_a_multiplier_leaves_and_reenters_i_up():
    # alpha_0 (y = +1) reaches C at the first step, which takes it out of
    # I_up, and drops back below C at the third, which puts it back: its
    # scores are rewritten twice within one solve.
    rng = np.random.default_rng(1)
    n = int(rng.integers(5, 10))
    y = random_labels(rng, n)
    K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(n, 2)) + 0.3 * y[:, None])
    path = [reference_solve(K, y, 1.0, max_iter=steps)[0]["alpha"][0] for steps in (1, 2, 3)]
    assert y[0] > 0 and path[0] == path[1] == 1.0 > path[2]
    assert_matches_reference(K, y, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericsWarning)  # the cap
        for steps in (1, 2, 3):
            assert_matches_reference(K, y, 1.0, max_iter=steps)


def test_loop_matches_reference_past_convergence():
    # With tol <= 0 the loop goes on once no candidate is left, and both
    # loops then pair i with index 0, which may lie outside I_low.
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        y = random_labels(rng, n)
        K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(n, 2)) + 0.3 * y[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)  # the cap
            for tol in (0.0, -1.0):
                assert_matches_reference(K, y, 1.0, tol=tol, max_iter=60)


def test_every_solve_of_a_face_training_matches_reference(synthetic_dataset, monkeypatch):
    # The Grams, labels, C and warm starts the MKL trainer passes to the
    # solver while training on the face set, cold and warm, at two tolerances.
    config = RunConfig()
    features = extract_dataset(read_manifest(synthetic_dataset), config.feature_params())
    problems = []

    def recording(K, y, C, **options):
        problems.append((np.array(K), np.array(y), C, options.get("warm_alpha")))
        return solve_svm_dual(K, y, C, **options)

    monkeypatch.setattr(mkl, "solve_svm_dual", recording)
    train_multiclass(features.blocks, features.labels, config.kernel_plans(), config.svm_c,
                     pca_energy=config.pca_energy)
    assert len(problems) > 100
    assert sum(warm is None for *_, warm in problems) == 21  # one cold start per pair
    for K, y, C, warm in problems:
        for tol in (1e-3, 1e-6):
            assert_matches_reference(K, y, C, tol=tol, warm_alpha=warm)


def test_objective_agrees_with_scipy_on_medium_problems():
    # A general-purpose constrained optimizer on the same dual. At a point
    # whose maximal violation m_up - m_low is at most tol, concavity bounds
    # the objective gap by sum_k |alpha*_k - alpha_k| * tol / 2
    # <= n * C * tol / 2, so that is the tolerance, fixed in advance.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(54)
    for n, C in ((20, 1.0), (30, 0.5), (40, 1.0)):
        y = random_labels(rng, n)
        X = rng.normal(size=(n, 3)) + 0.5 * y[:, None]
        K = kernel_matrix(RbfKernel(gamma=0.5), X)
        Q = np.outer(y, y) * K
        ours = solve_svm_dual(K, y, C)
        result = optimize.minimize(
            lambda a: 0.5 * a @ Q @ a - a.sum(),
            np.zeros(n),
            jac=lambda a: Q @ a - 1.0,
            bounds=[(0.0, C)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert result.success, result.message
        assert abs(float(result.x @ y)) < 1e-8
        reference = dual_objective(np.clip(result.x, 0.0, C), K, y)
        bound = n * C * DEFAULT_KKT_TOL / 2
        assert ours.objective == pytest.approx(reference, abs=bound)
        assert ours.kkt_violation < DEFAULT_KKT_TOL


def test_warm_start_matches_reference_on_any_layout():
    # The warm start reads K in C order whatever the caller's layout, as the
    # reference's Q = yy' o K is; the gradient update reads K's columns.
    rng = np.random.default_rng(63)
    for n in (5, 17, 40):
        y = random_labels(rng, n)
        K = kernel_matrix(PolyKernel(degree=2), rng.normal(size=(n, 4)) + 0.4 * y[:, None])
        asymmetric = K + 1e-9 * rng.normal(size=K.shape)
        seed = solve_svm_dual(K, y, 1.0, tol=0.5).alpha
        padded = np.zeros(n * n + 1)
        padded[1:] = K.ravel()
        strided = np.zeros((n, 2 * n))[:, ::2]
        strided[:] = asymmetric
        for layout in (np.asfortranarray(K), asymmetric, np.asfortranarray(asymmetric),
                       padded[1:].reshape(n, n), strided):
            assert_matches_reference(layout, y, 1.0, warm_alpha=seed)


def reference_ensure_psd(K):
    """The PSD check as one eigendecomposition: jitter below -1e-8."""
    smallest = float(np.linalg.eigvalsh(K)[0])
    if smallest < -1e-8:
        warnings.warn(
            f"combined kernel matrix has eigenvalue {smallest:.3e}; "
            f"adding diagonal jitter {1e-8:g}",
            NumericsWarning,
            stacklevel=3,
        )
        K = K + 1e-8 * np.eye(K.shape[0])
    return K


def _psd_outcome(check, K):
    """(returned bytes, returned K itself, warning texts, error) of one check."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = check(K)
        except Exception as error:  # the same error from both checks
            return None, None, [], (type(error), str(error))
    texts = [(w.category, str(w.message)) for w in caught]
    return result.tobytes(), result is K, texts, None


def _rotated(rng, eigenvalues):
    Q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return (Q * eigenvalues) @ Q.T


def _graded_gram(rng, n):
    """A correlation matrix scaled by norms from 1e-4.5 to 1e5: positive
    definite, and Cholesky completes on it, while eigvalsh's error of
    eps * ||K|| often puts its smallest eigenvalue below -1e-8."""
    A = rng.normal(size=(n, n))
    C = A @ A.T + n * np.eye(n)
    scale = 1.0 / np.sqrt(np.diag(C))
    norms = 10 ** rng.uniform(-4.5, 5.0, size=n)
    K = C * (scale * norms)[:, None] * (scale * norms)[None, :]
    return 0.5 * (K + K.T)


def _psd_cases():
    rng = np.random.default_rng(71)
    floor = -1e-8
    for n in (2, 7, 30, 90):
        X = rng.normal(size=(n, n + 3))
        yield X @ X.T                                        # random PSD
        A = rng.normal(size=(n, n))
        yield 0.5 * (A + A.T)                                # indefinite
        yield kernel_matrix(RbfKernel(gamma=0.7), rng.normal(size=(n, 3)))
    for n in (3, 10, 40):
        values = np.linspace(1.0, 3.0, n)
        for smallest in (floor, 0.0, 1e-12):
            for ulps in range(-3, 4):
                edge = smallest
                for _ in range(abs(ulps)):
                    edge = np.nextafter(edge, np.inf if ulps > 0 else -np.inf)
                values[0] = edge
                yield np.diag(values)                        # exact eigenvalues
                yield _rotated(rng, values)                  # eigvalsh's rounding
    for n in (4, 12, 40):                                    # duplicated rows
        X = rng.normal(size=(n // 2, 3))
        X = np.vstack([X, X])
        yield kernel_matrix(RbfKernel(gamma=0.8), X)
        yield kernel_matrix(PolyKernel(degree=2), 30.0 * X)
    for n in (20, 60, 90):                                   # large traces
        X = rng.normal(size=(n, 60)) * rng.uniform(0.6, 1.5, size=(n, 1))
        yield kernel_matrix(PolyKernel(degree=2), X)
        yield kernel_matrix(PolyKernel(degree=2), 40.0 * X[:, :5])   # rank 21
    for n in (12, 16, 20, 24, 29):
        for _ in range(6):
            yield _graded_gram(rng, n)
    for value in (-1.0, -1e-8, -5e-9, 0.0, 1e-12, 3.0):      # n = 1
        yield np.array([[value]])
    yield np.zeros((0, 0))
    yield np.zeros((2, 3))


def test_psd_check_matches_the_eigendecomposition_bit_for_bit():
    cases = list(_psd_cases())
    outcomes = [(_psd_outcome(ensure_psd, K), _psd_outcome(reference_ensure_psd, K)) for K in cases]
    for K, (ours, expected) in zip(cases, outcomes):
        assert ours == expected, K.shape
    # The cases reach the jitter, both sides of the floor, and an error.
    assert any(expected[2] for _, expected in outcomes)
    assert any(expected[1] for _, expected in outcomes)
    assert any(expected[3] for _, expected in outcomes)


def test_cholesky_of_the_unlowered_matrix_proves_nothing():
    # On graded Grams a factorisation of K itself completes although
    # eigvalsh puts the smallest eigenvalue below the floor: the diagonal
    # must come down by 64 n**2 eps tr(K) before a factorisation proves it.
    rng = np.random.default_rng(72)
    fooled = 0
    for _ in range(60):
        K = _graded_gram(rng, int(rng.integers(12, 30)))
        if np.linalg.eigvalsh(K)[0] < -1e-8:
            np.linalg.cholesky(K)  # completes
            fooled += 1
            assert _psd_outcome(ensure_psd, K) == _psd_outcome(reference_ensure_psd, K)
    assert fooled >= 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gram_is_rejected_up_front(bad):
    rng = np.random.default_rng(73)
    y = random_labels(rng, 10)
    K = kernel_matrix(RbfKernel(gamma=0.5), rng.normal(size=(10, 3)))
    K[3, 6] = bad
    message = "^kernel matrix has non-finite entries$"
    with pytest.raises(ValueError, match=message):
        ensure_psd(K)
    # The solver checks K itself, before its loop: an infinite entry used
    # to run to the iteration cap on NaNs, with RuntimeWarnings.
    for warm in (None, np.zeros(10)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                solve_svm_dual(K, y, 1.0, warm_alpha=warm)
        assert caught == []
    with pytest.raises(ValueError, match=message):
        train_binary_mkl([K, np.eye(10)], y, 1.0)
