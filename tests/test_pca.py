"""Variance-retaining principal-component reduction."""

import numpy as np
import pytest

from bearface.pca import (
    PcaModel,
    ZeroVarianceError,
    fit_pca,
    pca_project,
)


def pca_reconstruct(model, coefficients):
    """Back-projection from PCA coefficients to the original space."""
    assert np.shape(coefficients)[-1] == model.k, "coefficients must have k entries"
    return np.asarray(coefficients) @ model.components.T + model.mean


def reference_fit_pca(samples, energy):
    """PCA by a full SVD of the centred samples, whatever their shape.

    The fit before wide blocks took the Gram route, kept as the reference:
    returns (components, variances, retained).
    """
    X = np.asarray(samples, dtype=np.float64)
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singular**2 / (n - 1)
    ratios = np.cumsum(variances) / float(variances.sum())
    k = int(np.searchsorted(ratios, energy - 1e-12, side="left")) + 1
    k = min(k, len(variances))
    components = vt[:k].T.copy()
    for j in range(k):
        pivot = int(np.argmax(np.abs(components[:, j])))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return components, variances[:k], float(ratios[k - 1])


def test_rank_one_data():
    rng = np.random.default_rng(0)
    direction = rng.normal(size=10)
    samples = np.outer(rng.normal(size=40), direction)
    model = fit_pca(samples, energy=0.95)
    assert model.k == 1
    assert model.retained == pytest.approx(1.0)


def test_isotropic_gaussian_needs_all_components():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(600, 3))
    model = fit_pca(samples, energy=0.95)
    assert model.k == 3


def test_minimal_k_against_eigh_oracle():
    rng = np.random.default_rng(2)
    scales = np.array([10.0, 5.0, 2.0, 1.0, 0.5, 0.1])
    samples = rng.normal(size=(400, 6)) * scales
    energy = 0.9
    model = fit_pca(samples, energy=energy)
    # Independent oracle: eigenvalues of the covariance matrix.
    cov = np.cov(samples, rowvar=False)
    eigenvalues = np.sort(np.linalg.eigvalsh(cov))[::-1]
    ratios = np.cumsum(eigenvalues) / eigenvalues.sum()
    expected_k = int(np.searchsorted(ratios, energy - 1e-12)) + 1
    assert model.k == expected_k
    assert model.retained >= energy
    if model.k > 1:
        assert ratios[model.k - 2] < energy  # k is minimal


def test_basis_orthonormal_and_variances_sorted():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(50, 20)) * np.linspace(5, 0.1, 20)
    model = fit_pca(samples, energy=0.99)
    gram = model.components.T @ model.components
    assert np.allclose(gram, np.eye(model.k), atol=1e-8)
    assert (np.diff(model.variances) <= 1e-12).all()


def test_projection_of_mean_and_components():
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(60, 8)) * np.linspace(3, 0.2, 8)
    model = fit_pca(samples, energy=0.99)
    assert np.allclose(pca_project(model, model.mean), 0.0, atol=1e-12)
    unit = pca_project(model, model.mean + model.components[:, 0])
    expected = np.zeros(model.k)
    expected[0] = 1.0
    assert np.allclose(unit, expected, atol=1e-9)


def test_project_reconstruct_project_idempotent():
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(40, 12))
    model = fit_pca(samples, energy=0.8)
    x = rng.normal(size=12)
    once = pca_project(model, x)
    again = pca_project(model, pca_reconstruct(model, once))
    assert np.allclose(once, again, atol=1e-9)


def test_reconstruction_error_bound():
    rng = np.random.default_rng(6)
    samples = rng.normal(size=(200, 15)) * np.linspace(4, 0.1, 15)
    model = fit_pca(samples, energy=0.9)
    coords = pca_project(model, samples)
    rebuilt = pca_reconstruct(model, coords)
    mean_sq_error = float(np.mean(np.sum((samples - rebuilt) ** 2, axis=1)))
    total_variance = float(np.cov(samples, rowvar=False).trace())
    assert mean_sq_error <= (1.0 - model.retained) * total_variance * 1.1


def test_deterministic_sign():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(30, 5))
    a = fit_pca(samples, 0.99)
    b = fit_pca(samples.copy(), 0.99)
    assert np.array_equal(a.components, b.components)
    for j in range(a.k):
        pivot = int(np.argmax(np.abs(a.components[:, j])))
        assert a.components[pivot, j] > 0


@pytest.mark.parametrize("shape", [(3776, 156), (40, 7), (5, 1)])
def test_sign_vector_flips_like_masked_negative(shape):
    # fit_pca flips a component by multiplying it by -1.0; that must give
    # the bits of np.negative, +-0.0 entries included.
    rng = np.random.default_rng(shape[0])
    block = rng.normal(size=shape)
    block[:2] = [[0.0], [-0.0]]  # zeros of both signs in every column
    flip = rng.random(shape[1]) < 0.5
    flip[0] = True
    masked = np.negative(block, out=block.copy(), where=flip)
    multiplied = block * np.where(flip, -1.0, 1.0)
    assert np.array_equal(masked.view(np.int64), multiplied.view(np.int64))


def test_errors():
    with pytest.raises(ZeroVarianceError):
        fit_pca(np.ones((10, 4)))
    with pytest.raises(ZeroVarianceError):
        fit_pca(np.full((6, 40), 3.0))  # wide: the Gram route
    with pytest.raises(ValueError, match="at least 2"):
        fit_pca(np.ones((1, 4)))
    rng = np.random.default_rng(8)
    model = fit_pca(rng.normal(size=(20, 6)))
    with pytest.raises(ValueError, match="dimension"):
        pca_project(model, np.zeros(5))


@pytest.mark.parametrize(
    "variances, retained, energy, problem",
    [
        ([2.0, -1.0], 0.9, 0.95, "^non-positive values in PCA variances entry 1$"),
        ([0.0, 0.0], 0.9, 0.95, "^non-positive values in PCA variances entry 0$"),
        ([2.0, 1.0], np.nan, 0.95, "^PCA retained must be finite, got nan$"),
        ([2.0, 1.0], 0.9, np.nan, "^PCA energy must be finite, got nan$"),
    ],
)
def test_model_rejects_what_whitening_cannot_use(variances, retained, energy, problem):
    # Whitening divides by the square roots of the variances, so a model
    # with one that is not positive is refused when it is built.
    with pytest.raises(ValueError, match=problem):
        PcaModel(np.zeros(3), np.eye(3, 2), np.array(variances), retained, energy)


@pytest.mark.parametrize("shape", [(3, 40), (40, 3)])
def test_identical_rows_with_rounded_mean_have_no_variance(shape):
    # The mean of these rows is 0.1 plus an ulp or so, so the centred block
    # is a residue of about 1e-17 per entry, not zero.
    samples = np.full(shape, 0.1)
    assert (samples - samples.mean(axis=0)).any()
    with pytest.raises(ZeroVarianceError):
        fit_pca(samples)


def test_identical_rows_never_give_components():
    # Both routes, over row sizes from 1e-8 to 1e7.
    rng = np.random.default_rng(9)
    for _ in range(300):
        n, d = (int(v) for v in rng.integers(2, 60, size=2))
        row = rng.uniform(0.5, 2.0, size=d) * rng.uniform(-1, 1) * 10.0 ** rng.integers(-8, 8)
        with pytest.raises(ZeroVarianceError):
            fit_pca(np.tile(row, (n, 1)))


@pytest.mark.parametrize("shape", [(3, 40), (40, 3)])
def test_small_real_variance_is_kept(shape):
    rng = np.random.default_rng(10)
    samples = 0.1 + 1e-9 * rng.normal(size=shape)
    model = fit_pca(samples, energy=1.0)
    assert model.k >= 1
    assert model.variances[0] > 1e-19


@pytest.mark.parametrize("n, d", [(5, 400), (48, 1500), (240, 3776)])
def test_wide_blocks_match_svd_reference(n, d):
    # Decaying column scales, like descriptor bins, so the retained k is
    # well below n; energy 0.95 is the default of the pipeline.
    rng = np.random.default_rng(n)
    samples = rng.normal(size=(n, d)) * np.geomspace(5.0, 0.05, d)
    samples += 3.0 * rng.normal(size=d)  # an offset the centring removes
    for energy in (0.5, 0.95, 0.99):
        model = fit_pca(samples, energy)
        components, variances, retained = reference_fit_pca(samples, energy)
        assert model.k == len(variances)
        assert model.retained == pytest.approx(retained, rel=1e-12)
        assert np.allclose(model.variances, variances, rtol=1e-12, atol=0.0)
        assert np.abs(model.components - components).max() <= 1e-9


def test_rank_deficient_wide_blocks_give_finite_components():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(4, 300)) * np.geomspace(2.0, 0.1, 300)
    samples = np.vstack([base, base, base[:2]])  # 10 rows, rank 3 once centred
    for energy in (0.95, 1.0):
        model = fit_pca(samples, energy)
        assert np.isfinite(model.components).all()
        assert np.isfinite(model.variances).all()
        assert 1 <= model.k <= 3
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(model.k), atol=1e-9)
    rebuilt = pca_reconstruct(model, pca_project(model, samples))
    assert np.allclose(rebuilt, samples, atol=1e-9)
    line = np.outer(rng.normal(size=6), rng.normal(size=50))  # rank one
    model = fit_pca(line, 1.0)
    assert model.k == 1
    assert np.isfinite(model.components).all()


@pytest.mark.parametrize("n, d", [(30, 30), (50, 20), (400, 6), (2, 2)])
def test_tall_blocks_keep_the_svd_bit_for_bit(n, d):
    rng = np.random.default_rng(n + d)
    samples = rng.normal(size=(n, d)) * np.linspace(4.0, 0.2, d)
    for energy in (0.8, 0.95, 1.0):
        model = fit_pca(samples, energy)
        components, variances, retained = reference_fit_pca(samples, energy)
        assert model.components.tobytes() == components.tobytes()
        assert model.variances.tobytes() == variances.tobytes()
        assert model.retained == retained
