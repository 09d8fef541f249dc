"""Density, gradient, and Hessian checks against closed forms and finite differences."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import DensityModel, as_points, density_grid, kde

SQRT_2PI = np.sqrt(2.0 * np.pi)


def fd_gradient(model, x, step):
    """Central finite differences of the density."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (model.density(x + e) - model.density(x - e)) / (2.0 * step)
    return g


def fd_hessian(model, x, step):
    """Central finite differences of the analytic gradient."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    H = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        H[:, j] = (model.gradient(x + e) - model.gradient(x - e)) / (2.0 * step)
    return H


def direct_density_gradient(points, h, q):
    """Density and gradient from the unblocked (m, n, d) difference tensor."""
    n, d = points.shape
    diff = q[:, None, :] - points[None, :, :]
    w = np.exp(-np.sum(diff**2, axis=2) / (2.0 * h**2))
    norm = (2.0 * np.pi) ** (-0.5 * d) / (n * h**d)
    return norm * w.sum(axis=1), -(norm / h**2) * np.einsum("mn,mnd->md", w, diff)


class CountingModel(DensityModel):
    """Counts the (query, sample) pairs whose kernel weights it builds, as the benchmark does."""

    pairs = 0

    def _exp_weights(self, q):
        self.pairs += q.shape[0] * self.n
        return super()._exp_weights(q)


class TestClosedForms:
    def test_single_point_density_at_center(self):
        m = DensityModel([[0.0]], 1.0)
        assert_allclose(m.density([0.0]), 1.0 / SQRT_2PI, rtol=1e-14)

    def test_mirrored_data_is_symmetric(self):
        m = DensityModel([-1.0, 1.0], 0.7)
        for x in [0.3, 1.2, 2.5, 0.0]:
            assert_allclose(m.density([x]), m.density([-x]), rtol=1e-14)

    def test_two_point_matches_gaussian_mixture(self):
        # 0.5 * (phi(1 - 0) + phi(1 - 2)) for unit bandwidth
        m = DensityModel([0.0, 2.0], 1.0)
        phi1 = np.exp(-0.5) / SQRT_2PI
        assert_allclose(m.density([1.0]), phi1, rtol=1e-14)
        assert_allclose(m.density([1.0]), 0.241971, atol=5e-7)

    def test_gradient_zero_at_kernel_center(self):
        m = DensityModel([[0.0, 0.0]], 2.0)
        assert_allclose(m.gradient([0.0, 0.0]), [0.0, 0.0], atol=1e-300)

    def test_gradient_zero_by_symmetry(self):
        m = DensityModel([-1.0, 1.0], 1.0)
        assert_allclose(m.gradient([0.0]), [0.0], atol=1e-17)

    def test_single_point_hessian(self):
        m = DensityModel([[0.0]], 1.0)
        H = m.hessian([0.0])
        assert_allclose(H, [[-1.0 / SQRT_2PI]], rtol=1e-14)
        assert_allclose(H[0, 0], -0.398942, atol=5e-7)


class TestFiniteDifferences:
    def test_gradient_random_2d(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 2))
        m = DensityModel(pts, 0.8)
        x = rng.normal(size=2)
        assert_allclose(m.gradient(x), fd_gradient(m, x, 1e-5 * m.h), rtol=1e-6, atol=1e-12)

    def test_gradient_100_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3, 40))
            h = float(rng.uniform(0.3, 2.0))
            m = DensityModel(rng.normal(scale=2.0, size=(n, d)), h)
            x = rng.normal(size=d)
            assert_allclose(m.gradient(x), fd_gradient(m, x, 1e-5 * h), rtol=1e-6, atol=1e-12)

    def test_hessian_random_3d(self):
        rng = np.random.default_rng(23)
        m = DensityModel(rng.normal(size=(25, 3)), 1.1)
        x = rng.normal(size=3)
        assert_allclose(m.hessian(x), fd_hessian(m, x, 1e-5 * m.h), rtol=1e-5, atol=1e-12)

    def test_hessian_100_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            m = DensityModel(rng.normal(size=(int(rng.integers(3, 30)), d)), float(rng.uniform(0.4, 1.6)))
            x = rng.normal(size=d)
            assert_allclose(m.hessian(x), fd_hessian(m, x, 1e-5 * m.h), rtol=1e-5, atol=1e-12)


class TestModelBasics:
    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        m = DensityModel(rng.normal(size=(40, 4)), 0.9)
        H = m.hessian(rng.normal(size=4))
        assert np.array_equal(H, H.T)

    def test_density_nonnegative_and_finite(self):
        rng = np.random.default_rng(8)
        m = DensityModel(rng.normal(size=(50, 2)), 0.5)
        q = rng.normal(scale=4.0, size=(200, 2))
        vals = m.density(q)
        assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))

    def test_far_field_decay(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 2))
        m = DensityModel(pts, 0.6)
        peak = float(np.max(m.density(pts)))
        far = pts.max(axis=0) + 100.0 * m.h
        assert m.density(far) < 1e-12 * peak

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        m = DensityModel(rng.normal(size=(20, 2)), 1.0)
        q = rng.normal(size=(7, 2))
        batch = m.density(q)
        singles = np.array([m.density(row) for row in q])
        # batched and one-row GEMM kernels may differ in the last ulp
        assert_allclose(batch, singles, rtol=5e-15)

    def test_dimension_mismatch_rejected(self):
        m = DensityModel([[0.0, 0.0]], 1.0)
        with pytest.raises(ValueError):
            m.density([0.0])
        with pytest.raises(ValueError):
            m.gradient([0.0, 0.0, 0.0])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            DensityModel([[0.0]], 0.0)
        with pytest.raises(ValueError):
            DensityModel([[0.0]], np.inf)
        with pytest.raises(ValueError):
            DensityModel([[np.nan]], 1.0)
        with pytest.raises(ValueError):
            DensityModel(np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            DensityModel([[0.0]], 1.0).density([np.inf])

    def test_as_points_promotes_1d(self):
        assert as_points([1.0, 2.0, 3.0]).shape == (3, 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("d", [2, 10])
def test_hessian_accurate_far_from_origin(d):
    # the data sit 1,000 h from the origin, where an exponent expanded as
    # ||q||^2 - 2 q.X + ||X||^2 loses about 1e-10 of relative accuracy
    rng = np.random.default_rng(d)
    h = 0.5
    centre = np.full(d, 1000.0 * h / np.sqrt(d))
    pts = centre + h * rng.normal(size=(200, d))
    at = centre + 0.1 * h * rng.normal(size=d)
    L = np.longdouble
    u = (at.astype(L) - pts.astype(L)) / L(h)
    e = np.exp(-L(0.5) * np.sum(u * u, axis=1))
    ref = np.einsum("i,ij,ik->jk", e, u, u) - np.sum(e) * np.eye(d, dtype=L)
    ref *= (2 * L(np.pi)) ** (-L(d) / 2) / (pts.shape[0] * L(h) ** (d + 2))
    err = np.max(np.abs(DensityModel(pts, h).hessian(at) - ref)) / np.max(np.abs(ref))
    assert err <= 1e-13


def test_hessian_sampling_sd_shrinks_at_root_n_rate():
    # With h fixed, the sd of the Hessian estimate at a point scales like
    # n**-0.5: quadrupling sd ratio when n grows 16-fold.
    rng = np.random.default_rng(77)
    reps = 220

    def hessian_at_zero_sd(n):
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = DensityModel(rng.normal(size=n), 1.0).hessian([0.0])[0, 0]
        return float(np.std(vals, ddof=1))

    ratio = hessian_at_zero_sd(400) / hessian_at_zero_sd(6400)
    assert 3.0 <= ratio <= 5.0, f"sd ratio {ratio:.2f} outside [3, 5]"


class TestBlocking:
    def test_small_blocks_match_direct_formula(self, monkeypatch):
        monkeypatch.setattr(kde, "_BLOCK_ENTRIES", 3 * 50)  # 3-row blocks, the last partial
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            pts = rng.normal(size=(50, d))
            q = rng.normal(scale=1.5, size=(37, d))
            m = DensityModel(pts, 0.7)
            dens, grad = direct_density_gradient(pts, 0.7, q)
            assert_allclose(m.density(q), dens, rtol=1e-13)
            assert_allclose(m.gradient(q), grad, rtol=1e-13, atol=1e-13 * np.abs(grad).max())

    def test_every_kernel_pair_built_once(self, monkeypatch):
        monkeypatch.setattr(kde, "_BLOCK_ENTRIES", 4 * 30)
        rng = np.random.default_rng(12)
        m = CountingModel(rng.normal(size=(30, 2)), 1.0)
        q = rng.normal(size=(17, 2))
        m.density(q)
        assert m.pairs == 17 * 30
        m.gradient(q)
        assert m.pairs == 2 * 17 * 30
        density_grid(m, (np.linspace(-2, 2, 9), np.linspace(-3, 3, 11)))
        assert m.pairs == 2 * 17 * 30 + 9 * 11 * 30

    def test_memory_bounded_by_block_budget(self):
        rng = np.random.default_rng(13)
        m = DensityModel(rng.normal(size=(2000, 2)), 0.5)
        q = rng.normal(size=(20_000, 2))
        assert q.shape[0] * m.n >= 16 * kde._BLOCK_ENTRIES
        for evaluate in (m.density, m.gradient):
            tracemalloc.start()
            try:
                evaluate(q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * kde._BLOCK_ENTRIES * 8, f"{evaluate.__name__} peaked at {peak} bytes"
