"""Kernel-weight learning: reductions, synthetic selection, invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bearface.kernels import AutoRbf, RbfKernel, kernel_matrix, resolve_kernel
from bearface.mkl import (
    BinaryMklSolution,
    mkl_gradient,
    project_simplex,
    train_binary_mkl,
)
from bearface.multiclass import decision_values, train_multiclass
from bearface.svm import solve_svm_dual


def _blob_problem(rng, per_class=15, dims=4, gap=4.0):
    X = np.vstack(
        [
            rng.normal(size=(per_class, dims)) + gap / 2,
            rng.normal(size=(per_class, dims)) - gap / 2,
        ]
    )
    y = np.array([1.0] * per_class + [-1.0] * per_class)
    return X, y


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
        class_a=0,
        class_b=1,
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
    with pytest.raises(ValueError, match="share"):
        train_binary_mkl([K, np.eye(3)], np.array([1.0, 1.0, -1.0, -1.0]), C=1.0)
