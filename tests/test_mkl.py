"""Kernel-weight learning: reductions, synthetic selection, invariants."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bearface.kernels import (
    AutoRbf,
    PolyKernel,
    RbfKernel,
    combine_grams,
    kernel_matrix,
    resolve_kernel,
)
from bearface.mkl import (
    MAX_OUTER_ITERATIONS,
    OBJECTIVE_TOL,
    STEP_TOL,
    BinaryMklSolution,
    _curvature_direction,
    bound_rejects,
    mkl_gradient,
    project_simplex,
    train_binary_mkl,
)
from bearface.multiclass import decision_values, train_multiclass
from bearface.svm import ensure_psd, free_set, solve_svm_dual


def _blob_problem(rng, per_class=15, dims=4, gap=4.0):
    X = np.vstack(
        [
            rng.normal(size=(per_class, dims)) + gap / 2,
            rng.normal(size=(per_class, dims)) - gap / 2,
        ]
    )
    y = np.array([1.0] * per_class + [-1.0] * per_class)
    return X, y


def reference_project_simplex(v: np.ndarray) -> np.ndarray:
    """The array form of the sort-and-threshold projection, which
    `project_simplex` must reproduce bit for bit on Python floats."""
    v = np.asarray(v, dtype=np.float64)
    descending = np.sort(v)[::-1]
    cumulative = np.cumsum(descending) - 1.0
    indices = np.arange(1, v.size + 1)
    mask = descending - cumulative / indices > 0
    rho = int(np.nonzero(mask)[0][-1]) + 1
    theta = cumulative[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def test_project_simplex_matches_array_reference():
    rng = np.random.default_rng(44)
    special = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1 / 3, 5e-324, 1e308, np.inf, -np.inf, np.nan]
    raised = 0
    for i in range(20_000):
        size = int(rng.integers(1, 6))
        vector = [
            rng.normal(size=size),
            rng.uniform(-1, 2, size=size),
            np.round(rng.normal(size=size) * 4) / 4,  # ties and exact zeros
            rng.choice(special, size=size),
        ][i % 4]
        with np.errstate(all="ignore"):
            try:
                expected = reference_project_simplex(vector)
            except IndexError:  # no threshold: a NaN, or infinities
                expected = None
        if expected is None:
            with pytest.raises(ValueError, match="no simplex projection"):
                project_simplex(vector)
            raised += 1
            continue
        out = project_simplex(vector)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64)), vector
    assert raised > 0


def test_project_simplex_basics():
    out = project_simplex(np.array([0.2, 0.3, 0.1]))
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert (out >= 0).all()
    already = np.array([0.25, 0.25, 0.5])
    assert np.allclose(project_simplex(already), already, atol=1e-12)
    assert np.allclose(project_simplex(np.array([9.0, -3.0])), [1.0, 0.0])


@given(
    vector=st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    )
)
def test_project_simplex_properties(vector):
    out = project_simplex(np.asarray(vector))
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= 0).all()
    assert np.allclose(project_simplex(out), out, atol=1e-9)  # idempotent


def test_single_kernel_reduces_to_plain_svm():
    rng = np.random.default_rng(30)
    X, y = _blob_problem(rng)
    K = kernel_matrix(RbfKernel(gamma=0.3), X)
    solution = train_binary_mkl([K], y, C=5.0)
    assert solution.kernel_weights.tolist() == [1.0]
    plain = solve_svm_dual(K, y, C=5.0)
    assert abs(solution.objective - plain.objective) < 1e-6


def test_informative_kernel_dominates_noise():
    rng = np.random.default_rng(31)
    X_info, y = _blob_problem(rng, per_class=20, dims=5, gap=5.0)
    X_noise = rng.normal(size=X_info.shape)
    K_info = kernel_matrix(resolve_kernel(AutoRbf(), X_info), X_info)
    K_noise = kernel_matrix(resolve_kernel(AutoRbf(), X_noise), X_noise)
    solution = train_binary_mkl([K_info, K_noise], y, C=10.0)
    assert solution.kernel_weights[0] >= 0.8


def test_identical_kernels_stay_at_barycenter():
    rng = np.random.default_rng(32)
    X, y = _blob_problem(rng)
    K = kernel_matrix(RbfKernel(gamma=0.5), X)
    solution = train_binary_mkl([K, K.copy()], y, C=2.0)
    assert np.allclose(solution.kernel_weights, [0.5, 0.5], atol=1e-9)
    # The objective is flat in d: any simplex point matches the M=1 value.
    single = solve_svm_dual(K, y, C=2.0)
    assert abs(solution.objective - single.objective) < 1e-8


def test_history_feasible_and_monotone():
    rng = np.random.default_rng(33)
    X, y = _blob_problem(rng, per_class=12, dims=3)
    grams = [
        kernel_matrix(RbfKernel(gamma=g), X) for g in (0.05, 0.5, 5.0)
    ]
    solution = train_binary_mkl(grams, y, C=3.0)
    assert len(solution.history) >= 1
    previous = None
    for weights, objective in solution.history:
        weights = np.asarray(weights)
        assert (weights >= 0).all()
        assert abs(weights.sum() - 1.0) <= 1e-10
        if previous is not None:
            assert objective <= previous + 1e-12 * (1 + abs(previous))
        previous = objective
    solution.validate()


def _pair_solution(alpha: float, C: float) -> BinaryMklSolution:
    return BinaryMklSolution(
        alphas=np.array([alpha, alpha]),
        kernel_weights=np.array([1.0]),
        bias=0.0,
        labels=np.array([1.0, -1.0]),
        C=C,
        objective=0.0,
    )


def test_box_check_slack_scales_with_c():
    # At C = 1e4 one ulp (1.8e-12) is wider than an absolute 1e-12 slack.
    C = 1e4
    _pair_solution(float(np.nextafter(C, np.inf)), C).validate()
    _pair_solution(float(np.nextafter(1e-4, np.inf)), 1e-4).validate()
    for alpha in (1.001 * C, -1e-9):
        with pytest.raises(AssertionError, match="box"):
            _pair_solution(alpha, C).validate()


def test_combine_grams_matches_tensordot_bit_for_bit():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(30, 3))
    grams = [kernel_matrix(RbfKernel(gamma=g), X) for g in (0.1, 0.7, 2.0)]
    stack = np.stack(grams)
    weights = project_simplex(rng.uniform(size=3))
    expected = np.tensordot(weights, stack, axes=1)
    for form in (grams, stack):
        assert combine_grams(form, weights).tobytes() == expected.tobytes()
    flat = combine_grams(stack.reshape(3, -1), weights)
    assert flat.shape == (900,)
    assert flat.tobytes() == expected.tobytes()


def test_gradient_formula():
    rng = np.random.default_rng(34)
    X, y = _blob_problem(rng, per_class=5, dims=2)
    K = kernel_matrix(RbfKernel(gamma=1.0), X)
    alpha = rng.uniform(0, 1, size=len(y))
    v = alpha * y
    expected = -0.5 * float(v @ K @ v)
    assert mkl_gradient(alpha, y, [K])[0] == pytest.approx(expected, rel=1e-12)


def _two_class_model(X, y, specs, C, include_bias=True):
    """One pairwise classifier on a single block, without PCA; y = +1 is class a."""
    labels = ["anger" if label > 0 else "joy" for label in y]
    return train_multiclass(
        {"x": X}, labels, [("x", spec) for spec in specs], C,
        include_bias=include_bias,
    )


def test_decision_value_margin_at_free_sv():
    rng = np.random.default_rng(35)
    X, y = _blob_problem(rng, per_class=15, dims=4, gap=3.0)
    model = _two_class_model(X, y, [RbfKernel(gamma=0.2)], C=10.0)
    eps = 1e-6
    coef = model.dual_coef[:, 0]  # alpha * y; the pool is X without PCA
    free = (np.abs(coef) > eps) & (np.abs(coef) < 10.0 - eps)
    positive_free = np.nonzero(free & (coef > 0))[0]
    assert positive_free.size > 0
    query = model.pool["x"][int(positive_free[0])]
    assert decision_values(model, {"x": query})[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_decision_value_degenerate_all_zero():
    rng = np.random.default_rng(36)
    X, y = _blob_problem(rng, per_class=4, dims=2)
    model = _two_class_model(X, y, [RbfKernel(gamma=1.0)], C=1.0)
    zeroed = dataclasses.replace(
        model, dual_coef=np.zeros_like(model.dual_coef), bias=np.array([0.7])
    )
    assert decision_values(zeroed, {"x": X[:3]}).tolist() == [[0.7]] * 3


def test_decision_sign_invariant_under_weight_scaling():
    # Rescaling the weight vector rescales the kernel part of the decision
    # without moving its sign, so the simplex normalization of d never
    # changes which class a pair votes for.
    rng = np.random.default_rng(38)
    X, y = _blob_problem(rng, per_class=8, dims=3)
    specs = [RbfKernel(gamma=0.2), RbfKernel(gamma=2.0)]
    model = _two_class_model(X, y, specs, C=5.0, include_bias=False)
    query = {"x": rng.normal(size=3) + 1.0}
    h = decision_values(model, query)[0, 0]
    scaled = dataclasses.replace(model, kernel_weights=model.kernel_weights * 3.0)
    h_scaled = decision_values(scaled, query)[0, 0]
    assert h_scaled == pytest.approx(3.0 * h, rel=1e-12)
    assert np.sign(h_scaled) == np.sign(h)


def test_train_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        train_binary_mkl([], np.array([1.0, -1.0]), C=1.0)
    K = np.eye(4)
    for grams in ([K, np.eye(3)], K, np.ones((2, 4, 3))):
        with pytest.raises(ValueError, match="share one square shape"):
            train_binary_mkl(grams, np.array([1.0, 1.0, -1.0, -1.0]), C=1.0)


def test_pair_fit_reads_any_layout_of_its_grams_bit_for_bit():
    # `train_multiclass` hands each pair the one-index gather
    # grams[:, s[:, None], s], which is not C-ordered. The fit works on its
    # own C-ordered copy, so it must equal the fit on a contiguous copy of
    # the gather and on a list of per-Gram gathers, byte for byte.
    fits = 0
    for seed in range(3):
        grams, y = _mkl_problem(seed, 4)
        stack = np.stack(grams)
        rng = np.random.default_rng(seed)
        subset = np.flatnonzero(rng.random(len(y)) < 0.7)
        gathered = stack[:, subset[:, None], subset]
        assert not gathered.flags.c_contiguous
        layouts = (np.ascontiguousarray(gathered),
                   [K[np.ix_(subset, subset)] for K in stack])
        for C in (0.5, 10.0):
            expected = train_binary_mkl(gathered, y[subset], C)
            fits += len(expected.history) > 1
            for grams in layouts:
                solution = train_binary_mkl(grams, y[subset], C)
                assert solution.alphas.tobytes() == expected.alphas.tobytes()
                assert solution.kernel_weights.tobytes() == expected.kernel_weights.tobytes()
                for name in ("bias", "objective", "history"):
                    assert getattr(solution, name) == getattr(expected, name), name
    assert fits >= 3  # most fits take outer steps, so the Newton path runs


# ---------------------------------------------------------------------------
# The trainer against its plain line search
# ---------------------------------------------------------------------------


def reference_curvature_direction(grams, combined, y, alpha, C, gradient):
    """The Newton direction built from full-length masks and stacked copies.

    A plain restatement of the bordered KKT solve, kept as the reference
    `_curvature_direction` must reproduce bit for bit.
    """
    M = len(grams)
    free = free_set(alpha, C)
    count = int(free.sum())
    if count == 0:
        return None
    v = alpha * y
    U = np.stack([y[free] * (K[free] @ v) for K in grams], axis=1)  # (F, M)
    Q_ff = (y[free, None] * y[None, free]) * combined[np.ix_(free, free)]
    S = np.zeros((count + 1, count + 1))
    S[:count, :count] = Q_ff
    S[:count, count] = y[free]
    S[count, :count] = y[free]
    try:
        solved = np.linalg.solve(S, np.vstack([U, np.zeros((1, M))]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(solved).all():
        return None
    H = U.T @ solved[:count]
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


@pytest.mark.parametrize("M", [1, 2, 4])
def test_newton_direction_matches_reference_bit_for_bit(M):
    # Duals with no free entry, one, several and all of them, on weights
    # off the barycenter, so every column of U and of the bordered system
    # counts. The sizes are `_mkl_problem`'s own draw (20 to 48 rows) and
    # the pair sizes of the benchmark's `cli` (12, 18, 27) and `train`
    # (60, 90) runs.
    C = 2.0
    steps = 0
    for seed, size in itertools.product(range(4), (None, 12, 18, 27, 60, 90)):
        grams, y = _mkl_problem(seed, M, size)
        grams = np.stack(grams)
        n = len(y)
        rng = np.random.default_rng([seed, M])
        d = rng.dirichlet(np.ones(M))
        combined = np.tensordot(d, grams, axes=1)
        solved = solve_svm_dual(combined, y, C).alpha
        one = np.where(rng.random(n) < 0.5, 0.0, C)
        one[int(rng.integers(n))] = 0.3 * C
        for alpha in (np.zeros(n), np.full(n, C), one, solved,
                      rng.uniform(0.1, 0.9, size=n) * C):
            gradient = mkl_gradient(alpha, y, grams)
            expected = reference_curvature_direction(grams, combined, y, alpha, C, gradient)
            ours = _curvature_direction(grams, combined, y, alpha, C, gradient)
            assert (ours is None) == (expected is None)
            if expected is not None:
                assert ours.tobytes() == expected.tobytes()
                steps += 1
    assert steps >= 72


def reference_train_binary_mkl(grams, labels, C, trial_hook=None):
    """The outer loop that solves every line-search trial.

    A plain restatement of the trainer before trials were screened by the
    warm-start bound, kept as the reference `train_binary_mkl` must
    reproduce bit for bit. It combines the Grams with `np.tensordot` and
    builds the combined Gram again for the Newton direction, which it takes
    from `reference_curvature_direction`. Returns the
    solution fields and the set of events the fit went through:
    "newton" (a Newton step accepted), "fallback" (the Newton direction
    rejected, then the gradient step accepted) and "final sweep" (both
    directions rejected after at least one trial, which ends the fit).
    `trial_hook(alpha_sum, candidate, gradient, objective, trial)` sees
    every solved trial.
    """
    grams = np.stack([ensure_psd(np.asarray(K, dtype=np.float64)) for K in grams])
    y = np.asarray(labels, dtype=np.float64)
    M = len(grams)
    d = np.full(M, 1.0 / M)

    def inner(weights, warm):
        combined = np.tensordot(weights, grams, axes=1)
        return solve_svm_dual(combined, y, C, warm_alpha=warm)

    solution = inner(d, None)
    objective = solution.objective
    history = [(tuple(d), objective)]
    events = set()
    for _ in range(MAX_OUTER_ITERATIONS):
        gradient = mkl_gradient(solution.alpha, y, grams)
        combined = np.tensordot(d, grams, axes=1)
        newton = reference_curvature_direction(grams, combined, y, solution.alpha, C, gradient)
        gradient_step = -gradient * (0.5 / max(float(np.abs(gradient).max()), 1e-12))
        directions = [newton, gradient_step] if newton is not None else [gradient_step]
        accepted = None
        trials = 0
        for index, direction in enumerate(directions):
            scale = 1.0
            for _ in range(25):
                candidate = reference_project_simplex(d + scale * direction)
                if float(np.abs(candidate - d).max()) < 1e-15:
                    break
                trial = inner(candidate, solution.alpha)
                trials += 1
                if trial_hook is not None:
                    alpha_sum = float(solution.alpha.sum())
                    trial_hook(alpha_sum, candidate, gradient, objective, trial)
                if trial.objective <= objective + 1e-12 * (1.0 + abs(objective)):
                    accepted = (candidate, trial)
                    break
                scale *= 0.5
            if accepted is not None:
                if newton is not None:
                    events.add("newton" if index == 0 else "fallback")
                break
        if accepted is None:
            if newton is not None and trials:
                events.add("final sweep")
            break
        d_new, solution = accepted
        step_size = float(np.abs(d_new - d).max())
        decrease = objective - solution.objective
        d = d_new
        objective = solution.objective
        history.append((tuple(d), objective))
        if step_size < STEP_TOL or decrease < OBJECTIVE_TOL:
            break
    fields = dict(
        alphas=solution.alpha,
        kernel_weights=d,
        bias=solution.bias,
        objective=objective,
        history=tuple(history),
    )
    return fields, events


def _mkl_problem(seed, M, n=None):
    """Two noisy blobs under M basis kernels: RBFs of several widths, and a
    quadratic kernel on a second, weakly informative block. With `n` given,
    the first n of 2 * ceil(n / 2) samples; otherwise 20 to 48."""
    rng = np.random.default_rng(seed)
    per_class = int(rng.integers(10, 25)) if n is None else (n + 1) // 2
    X, y = _blob_problem(rng, per_class=per_class, dims=4, gap=2.0)
    X, y = X[:n], y[:n]
    noise = 0.5 * y[:, None] + rng.normal(size=(len(y), 3))
    specs = [
        (X, RbfKernel(gamma=0.3)),
        (noise, PolyKernel(degree=2)),
        (X, RbfKernel(gamma=3.0)),
        (noise, RbfKernel(gamma=0.1)),
    ]
    return [kernel_matrix(spec, block) for block, spec in specs[:M]], y


# The line-search paths each (M, C) case goes through over seeds 0-2. With
# M = 1 no trial can move the weights, so those fits are one cold solve.
_REFERENCE_EVENTS = {
    (1, 0.5): set(),
    (1, 10.0): set(),
    (4, 0.5): {"newton", "fallback", "final sweep"},
    (4, 10.0): {"newton", "fallback"},
}


@pytest.mark.parametrize("M, C", sorted(_REFERENCE_EVENTS))
def test_trainer_matches_reference_bit_for_bit(M, C):
    events = set()
    for seed in range(3):
        grams, y = _mkl_problem(seed, M)
        expected, seen = reference_train_binary_mkl(grams, y, C)
        events |= seen
        solution = train_binary_mkl(grams, y, C)
        assert solution.alphas.tobytes() == expected["alphas"].tobytes()
        assert solution.kernel_weights.tobytes() == expected["kernel_weights"].tobytes()
        for name in ("bias", "objective", "history"):
            assert getattr(solution, name) == expected[name], name
    assert events == _REFERENCE_EVENTS[M, C]


def test_bound_skips_only_trials_the_search_rejects():
    # Solve every trial, including those the warm-start bound lets the
    # trainer skip: each skipped one must fail the acceptance test, and the
    # bound must lie below the trial's objective up to rounding.
    seen = {"skipped": 0, "solved": 0}

    def shadow(alpha_sum, candidate, gradient, objective, trial):
        seen["solved"] += 1
        bound = alpha_sum + float(candidate @ gradient)
        assert trial.objective >= bound - 1e-12 * (1.0 + abs(bound))
        if bound_rejects(alpha_sum, candidate, gradient, objective):
            seen["skipped"] += 1
            assert trial.objective > objective + 1e-12 * (1.0 + abs(objective))

    for seed in range(3):
        for C in (0.5, 10.0):
            grams, y = _mkl_problem(seed, 4)
            reference_train_binary_mkl(grams, y, C, trial_hook=shadow)
    assert 0 < seen["skipped"] < seen["solved"]
