"""Density, gradient, and Hessian checks against closed forms and finite differences."""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import (
    DensityModel,
    as_points,
    bootstrap_band,
    bootstrap_hessian_batch,
    default_axes,
    density_grid,
    find_modes,
    kde,
)
from oracles import grid_density, kde_reference, kernel_weights

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

    @pytest.mark.parametrize("h, scale", [
        (1e-200, 1.0),  # h^2 and h^d underflow to 0
        (1e-160, 1.0),  # h^2 is subnormal
        (1e-150, 1.0),  # h^(d+2) underflows to 0
        (1e200, 1.0),  # h^2 overflows
        (1.0, 1e200),  # ||X - c||^2 / 2h^2 overflows
        (1.0, 4e307),  # so does the cell split's spread, np.ptp, before the check
    ])
    def test_degenerate_scales_rejected(self, h, scale):
        pts = np.random.default_rng(0).normal(size=(600, 2)) * scale
        with pytest.raises(ValueError, match="out of range"):
            DensityModel(pts, h)

    def test_extreme_scales_that_stay_normal_are_kept(self):
        pts = np.random.default_rng(0).normal(size=(600, 2))
        for h, scale in [(1e-60, 1e-60), (1e60, 1e60)]:
            m = DensityModel(pts * scale, h)
            vals = m.density(pts[:3] * scale)
            assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)

    def test_as_points_promotes_1d(self):
        assert as_points([1.0, 2.0, 3.0]).shape == (3, 1)

    def test_caller_array_stays_writable(self):
        a = np.random.default_rng(4).normal(size=(30, 2))
        m = DensityModel(a, 1.0)
        bootstrap_hessian_batch(a, 1.0, [np.zeros(2)], B=3, seed=0)
        a[0, 0] = 7.0
        assert m.points[0, 0] != 7.0 and not m.points.flags.writeable

    def test_memory_layout_does_not_move_bits(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 10))
        q = rng.normal(scale=0.5, size=(6, 10))
        c, f = DensityModel(a, 1.3), DensityModel(np.asfortranarray(a), 1.3)
        assert c._aug.flags.c_contiguous and f._aug.flags.c_contiguous
        assert f.density(q).tobytes() == c.density(q).tobytes()
        assert f.gradient(q).tobytes() == c.gradient(q).tobytes()
        assert f.hessian(q[0]).tobytes() == c.hessian(q[0]).tobytes()
        draws_c, draws_f = (bootstrap_hessian_batch(x, 1.3, q[:2], B=5, seed=1)
                            for x in (a, np.asfortranarray(a)))
        for dc, df in zip(draws_c, draws_f):
            assert df.lambda_star.tobytes() == dc.lambda_star.tobytes()

    def test_sample_operand_is_64_byte_aligned(self):
        # every cell's run of _aug columns then starts on a 64-byte boundary too; the
        # alignment moves speed, not bits
        rng = np.random.default_rng(6)
        for n, d in [(3, 1), (300, 2), (700, 3), (2000, 10), (10_000, 10)]:
            m = DensityModel(rng.normal(size=(n, d)), 1.0)
            assert m._aug.ctypes.data % 64 == 0 and m._aug.flags.c_contiguous, (n, d)
        q = m.points[:50] + rng.normal(size=(50, d))
        density, gradient = m.density(q), m.gradient(q)
        m._aug = np.empty(m._aug.size + 1)[1:].reshape(m._aug.shape)  # 8 bytes off alignment
        m._aug[...] = DensityModel(m.points, 1.0)._aug
        assert m._aug.ctypes.data % 64 != 0
        assert m.density(q).tobytes() == density.tobytes()
        assert m.gradient(q).tobytes() == gradient.tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("d", [2, 10])
def test_hessian_accurate_far_from_origin(d):
    # the data sit 1,000 h from the origin, where an exponent expanded about
    # the origin as ||q||^2 - 2 q.X + ||X||^2 would lose about 1e-10 of
    # relative accuracy
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


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("d", [2, 10])
def test_gradient_accurate_far_from_origin(d):
    # two clusters 3 h apart, then data and queries shifted 1e6 h from the
    # origin: sums of w_i X_i taken about the origin cancel terms of size
    # 1e6 h in x sum_i w_i - sum_i w_i X_i and lose up to about 1e-9 of relative accuracy
    rng = np.random.default_rng(d)
    h = 0.5
    pts = h * rng.normal(size=(200, d))
    pts[100:, 0] += 3.0 * h
    queries = pts[::10] + 0.3 * h * rng.normal(size=(20, d))
    shift = np.full(d, 1e6 * h / np.sqrt(d))
    pts, queries = pts + shift, queries + shift
    L = np.longdouble
    u = (queries.astype(L)[:, None, :] - pts.astype(L)) / L(h)  # (m, n, d)
    e = np.exp(-L(0.5) * np.sum(u * u, axis=2))
    ref = -np.einsum("mn,mnd->md", e, u) / L(h)
    ref *= (2 * L(np.pi)) ** (-L(d) / 2) / (pts.shape[0] * L(h) ** d)
    err = np.max(np.abs(DensityModel(pts, h).gradient(queries) - ref)) / np.max(np.abs(ref))
    assert err <= 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_sample_sum_accurate_and_chunk_ordered():
    # weights in [0, 1) against signed rows, which cancel, and a row of ones;
    # widths around the 8,192-column chunk boundary and past the width from
    # which OpenBLAS threads ddot
    rng = np.random.default_rng(33)
    chunk = 8192
    for n in (1, 300, chunk, chunk + 1, 2 * chunk + 1, 24_000):
        w = rng.random((5, n))
        xt = np.vstack([rng.standard_normal((2, n)), np.ones(n)])
        s = kde.sample_sum(w, xt)
        L = np.longdouble
        ref = np.sum(w.astype(L)[:, None, :] * xt.astype(L), axis=2)
        assert np.all(np.abs(s - ref) <= 1e-14 * (np.abs(w) @ np.abs(xt).T)), n
        # the chunks' ddot results, added in column order
        parts = [np.vecdot(w[:, None, lo:lo + chunk], xt[None, :, lo:lo + chunk])
                 for lo in range(0, n, chunk)]
        assert len(parts) == -(-n // chunk)
        assert s.tobytes() == functools.reduce(np.add, parts).tobytes(), n


def sample_weights(model, q):
    """model._exp_weights(q) on the sample points alone, in the column order of
    _aug; its padding columns, those with a 0 in the unit row, weigh exactly 0."""
    w, real = model._exp_weights(q), model._aug[model.d] == 1.0
    assert real.sum() == model.n and np.all(w[:, ~real] == 0.0)
    return w[:, real]


def test_sub_tiny_weights_flush_to_exact_zero():
    # Lattice sample and queries with h = 1/2: every exponent -2 ||q - X_i||^2
    # is a multiple of 1/32, so the kernel's expansion about the (zero) mean
    # gives it exactly.  The queries run 30 h to 50 h out along the first
    # axis, across 37.6 h, where the exponent crosses log(tiny): some weights
    # sit above it, some between it and exp's underflow to 0, some below both.
    tiny = np.finfo(np.float64).tiny
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]])
    m = DensityModel(pts, 0.5)
    q = np.column_stack([np.arange(15.0, 25.0, 0.125), np.full(80, 0.5)])
    exponent = -2.0 * np.sum((q[:, None, :] - pts) ** 2, axis=2)
    sub = exponent < np.log(tiny)
    assert np.any(~sub) and np.any(sub & (exponent > -745.0)) and np.any(exponent < -746.0)
    # the whole block needs the flush; its first 16 rows (under 34 h out) do not
    for rows in (slice(None), slice(0, 16)):
        w = sample_weights(m, q[rows])
        assert np.all(w[sub[rows]] == 0.0)
        assert np.array_equal(w[~sub[rows]], np.exp(exponent[rows][~sub[rows]]))
        assert not np.any((w > 0.0) & (w < tiny))
    # Random 3-d data: queries 30 h to 50 h from the sample mean never get a
    # subnormal weight, and a weight is 0 exactly where the exponent lies below log(tiny).
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(200, 3))
    m = DensityModel(pts, 0.3)
    u = rng.normal(size=(400, 3))
    q = pts.mean(axis=0) + u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(9.0, 15.0, (400, 1))
    exponent = -np.sum((q[:, None, :] - pts) ** 2, axis=2) / (2.0 * 0.3**2)
    w = sample_weights(m, q)
    assert not np.any((w > 0.0) & (w < tiny))
    margin = 1e-9 * abs(np.log(tiny))  # the expansion and direct differences differ in low bits
    assert np.all(w[exponent < np.log(tiny) - margin] == 0.0)
    assert np.all(w[exponent > np.log(tiny) + margin] >= tiny)
    assert np.any(exponent < np.log(tiny)) and np.any(exponent > np.log(tiny))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_grid_factors_flush_to_exact_zero():
    # A sample 60 h wide on its default grid: grid coordinates near one edge
    # and sample points near the other have axis exponents in (-745, log(tiny)),
    # where np.exp is subnormal; the factors there are flushed to exact 0.
    tiny = np.finfo(np.float64).tiny
    pts = np.random.default_rng(34).uniform(0.0, 60.0, (600, 2))
    m = DensityModel(pts, 1.0)
    axes = default_axes(pts, 1.0)
    exponent = -0.5 * (axes[0][:, None] - pts[:, 0]) ** 2
    assert np.any((exponent > -745.0) & (exponent < np.log(tiny)))
    # on 2-d, lead's rows are the axis-0 factors
    factors = np.concatenate([f.ravel() for _, lead, last in m._grid_tiles(axes) for f in (lead, last)])
    assert np.any(factors == 0.0) and not np.any((factors > 0.0) & (factors < tiny))
    f = density_grid(m, axes)
    ref = np.concatenate([grid_density(pts, 1.0, (axes[0][lo:lo + 16], axes[1]))
                          for lo in range(0, axes[0].size, 16)])
    assert np.max(np.abs(f.values - ref)) <= 2e-15 * np.max(ref)


@pytest.mark.parametrize("n", [500, 2000])  # one cell, four cells
def test_overflowing_queries_weigh_zero(n):
    # ||q - c||^2 overflows for these rows: their weights are exactly 0, with no
    # RuntimeWarning, and find_modes takes such a start as dead
    rng = np.random.default_rng(35)
    m = DensityModel(rng.normal(size=(n, 2)), 1.0)
    assert m._cell_log_n.size == (1 if n <= kde._CELL_POINTS else 4)
    q = np.array([[1e200, 0.0], [0.0, -1e160], [1.7e308, -1.7e308], [0.0, 0.0]])
    dens, target = m._mean_shift(q)
    assert np.array_equal(m.density(q)[:3], [0.0] * 3) and m.density(q)[3] > 0.0
    assert np.array_equal(dens, m.density(q)) and np.all(np.isnan(target[:3]))
    assert np.array_equal(m.gradient(q)[:3], np.zeros((3, 2)))
    cands, asg = find_modes(m, mesh=np.vstack([m.points[:20], q[:3]]))
    assert not np.any(asg.converged[-3:]) and asg.diagnostics["n_unconverged"] == 3
    assert sum(c.basin_size for c in cands) == 20


def test_hessian_terms_far_out_hold_no_subnormal():
    # A point 40 h from the sample mean: its distances to a sample spread over
    # 6 h run from about 37 h out, across 37.6 h to 38.6 h, where exp is subnormal
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(32)
    for d in (1, 2, 3):
        pts = rng.uniform(-3.0, 3.0, size=(400, d))
        m = DensityModel(pts, 1.0)
        at = m._center + 40.0 * np.eye(d)[0]
        exponent = -0.5 * np.sum((at - pts) ** 2, axis=1)
        assert np.any((exponent < np.log(tiny)) & (exponent > -744.0)), d
        terms = m._hessian_terms(at)
        assert not np.any((terms != 0.0) & (np.abs(terms) < tiny)), d
        assert np.all(terms[:, exponent < np.log(tiny) - 1e-9] == 0.0), d
        assert np.any(terms != 0.0), d


def test_model_retains_two_copies_of_the_sample():
    # points as given, and the (d + 2, n) operand about the mean; no third copy
    X = np.random.default_rng(14).normal(size=(5000, 10))
    tracemalloc.start()
    try:
        model = DensityModel(X, 0.5)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 2.5 * X.nbytes, \
        f"a {model.n} x {model.d} model retains {retained / X.nbytes:.2f}x the sample's bytes"


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
            dens, grad, _ = (np.asarray(a, dtype=np.float64) for a in kde_reference(pts, 0.7, q))
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
        # grids take their weights from per-axis factors, not _exp_weights;
        # a budget of cap * (n + d n) entries makes tiles of 2, 3, 44 and 21
        # points here, which leave a ragged last tile along one axis, so a tile
        # missed or taken twice moves some value off the oracle
        for shape, cap in [((9,), 4), ((9, 11), 4), ((9, 11), 25), ((3, 5, 7), 10)]:
            monkeypatch.setattr(kde, "_BLOCK_ENTRIES", cap * 30 * (1 + len(shape)))
            m = CountingModel(rng.normal(size=(30, len(shape))), 1.0)
            axes = tuple(np.linspace(-2.0 - j, 2.0 + j, r) for j, r in enumerate(shape))
            f = density_grid(m, axes)
            assert m.pairs == 0
            ref = grid_density(m.points, 1.0, axes)
            assert np.max(np.abs(f.values - ref)) <= 2e-15 * np.max(ref), shape

    def test_sums_contract_only_the_rows_they_read(self, monkeypatch):
        # density reads sum_i w alone; gradient also reads sum_i w (X_i - c)
        rows, sample_sum = [], kde.sample_sum
        monkeypatch.setattr(kde, "sample_sum", lambda w, xt: rows.append(len(xt)) or sample_sum(w, xt))
        monkeypatch.setattr(kde, "_BLOCK_ENTRIES", 4 * 30)  # 3 blocks of 9 queries
        rng = np.random.default_rng(17)
        for d in (2, 3, 10):
            m = DensityModel(rng.normal(size=(30, d)), 1.0)
            q = rng.normal(size=(9, d))
            rows.clear()
            m.density(q)
            assert rows == [1, 1, 1], d
            rows.clear()
            m.gradient(q)
            assert rows == [d + 1] * 3, d

    def test_memory_bounded_by_block_budget(self):
        rng = np.random.default_rng(13)
        cases = [(rng.normal(size=(2000, 2)), rng.normal(size=(20_000, 2)))]
        # two clouds 40 h apart: rows drop the far cloud's cells and are evaluated over their runs
        clouds = rng.normal(size=(2000, 2))
        clouds[1000:, 0] += 20.0
        cases.append((clouds, clouds[rng.integers(0, 2000, 20_000)] + rng.normal(size=(20_000, 2))))
        for pts, q in cases:
            m = DensityModel(pts, 0.5)
            assert q.shape[0] * m.n >= 16 * kde._BLOCK_ENTRIES
            for evaluate in (m.density, m.gradient):
                tracemalloc.start()
                try:
                    evaluate(q)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 1.25 * kde._BLOCK_ENTRIES * 8, f"{evaluate.__name__} peaked at {peak} bytes"
        assert not evaluated_points(m, q).all()

    def test_grid_memory_bounded_by_block_budget(self):
        # at n = 40,000 a tile holds at most 17 points of the 128^2 grid, so
        # its weights and factors fit the budget; factor matrices over whole
        # axes would take 7x the budget
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(40_000, 2))
        axes = default_axes(pts, 0.5)
        m = DensityModel(pts, 0.5)
        B = 4
        # B > n on 64^2 axes: the band's (B, tile) products dominate, and one kept
        # alive into the next tile would overshoot the bound
        few = rng.normal(size=(500, 2))
        few_axes = default_axes(few, 0.5, resolution=64)
        # 20,000 points and 1,000 replicates: the float64 counts minus one, made
        # beside the uint16 draw, dominate
        many = rng.normal(size=(20_000, 2))
        many_axes = default_axes(many, 0.5, resolution=64)
        cases = [("density_grid", lambda: density_grid(m, axes), 1.25 * kde._BLOCK_ENTRIES * 8),
                 ("bootstrap_band", lambda: bootstrap_band(pts, 0.5, axes, 0.1, B, 0),
                  1.25 * kde._BLOCK_ENTRIES * 8 + B * pts.shape[0] * 8),
                 ("bootstrap_band B > n", lambda: bootstrap_band(few, 0.5, few_axes, 0.1, 2000, 0),
                  1.25 * kde._BLOCK_ENTRIES * 8 + 2000 * few.shape[0] * 8),
                 ("bootstrap_band B = 1000", lambda: bootstrap_band(many, 0.5, many_axes, 0.1, 1000, 0),
                  1.25 * kde._BLOCK_ENTRIES * 8 + 1000 * many.shape[0] * (8 + 2))]
        for name, evaluate, bound in cases:
            tracemalloc.start()
            try:
                evaluate()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{name} peaked at {peak} bytes"


def clustered_sample(rng, d, n=300, h=0.5):
    """n points in three unit-h clusters strung along the first axis, 10 h to
    40 h apart, and queries near them and across the span between them."""
    centers = np.zeros((3, d))
    centers[1:, 0] = np.cumsum(rng.uniform(10.0, 40.0, size=2)) * h
    pts = centers[rng.integers(0, 3, n)] + h * rng.normal(size=(n, d))
    q = np.concatenate([pts[::3] + 0.5 * h * rng.normal(size=(len(pts[::3]), d)),
                        rng.uniform(centers.min(0) - 3 * h, centers.max(0) + 3 * h, size=(40, d))])
    return pts, q


def uniform_sample(rng, d, n=300, h=0.5):
    """n points uniform in a box 15 h long on the first axis and h wide on the others,
    and queries in the box 17 h long around it."""
    pts, q = rng.uniform(0.0, h, size=(n, d)), rng.uniform(0.0, h, size=(200, d))
    pts[:, 0] *= 15.0
    q[:, 0] = 17.0 * q[:, 0] - h
    return pts, q


def evaluated_points(model, q):
    """(m, n) bool: the sample points, in sample order, that each query row's sums take."""
    order, starts = kde._split_cells(model.points)
    lo, hi = model._kept_cells(q).T
    position = np.empty(model.n, dtype=np.intp)
    position[order] = np.arange(model.n)  # each point's column of _aug
    return (starts[lo, None] <= position) & (position < starts[hi, None])


class TestCells:
    """Multi-cell models: 32-point cells over a few hundred points, whose rows drop far cells."""

    H = 0.5

    @pytest.fixture(autouse=True)
    def small_cells(self, monkeypatch):
        monkeypatch.setattr(kde, "_CELL_POINTS", 32)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_evaluations_match_direct_formula(self, d):
        # The float64 exponent, expanded about the sample mean c, carries a
        # rounding error of a few eps times S = (||q - c||^2 + max ||X_i - c||^2) / 2h^2
        # with or without dropped cells; the dropped mass adds at most 2^-53.
        rng = np.random.default_rng(40 + d)
        for pts, q in (clustered_sample(rng, d, h=self.H), uniform_sample(rng, d, h=self.H)):
            m = DensityModel(pts, self.H)
            assert m._cell_log_n.size > 1 and not evaluated_points(m, q).all()
            dens, grad, target = (np.asarray(a, dtype=np.float64)
                                  for a in kde_reference(pts, self.H, q))
            S = (np.sum((q - m._center) ** 2, axis=1)
                 + np.max(np.sum((pts - m._center) ** 2, axis=1)))
            tol = 16.0 * np.finfo(np.float64).eps * (1.0 + S / (2.0 * self.H**2))
            ms_dens, ms_target = m._mean_shift(q)
            assert np.all(np.abs(m.density(q) - dens) <= tol * dens)
            assert np.all(np.abs(ms_dens - dens) <= tol * dens)
            # the gradient against its scale p / h, the target against h
            assert np.all(np.abs(m.gradient(q) - grad) <= (tol * dens / self.H)[:, None])
            assert np.all(np.abs(ms_target - target) <= self.H * tol[:, None])

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_dropped_mass_at_most_2_pow_minus_53(self, d):
        # clustered rows drop whole clusters; uniform rows drop cells next to kept
        # ones, whose nearest points lie about a cell radius closer than their centers
        rng = np.random.default_rng(50 + d)
        for pts, q in (clustered_sample(rng, d, h=self.H), uniform_sample(rng, d, h=self.H)):
            m = DensityModel(pts, self.H)
            w = kernel_weights(pts, self.H, q)
            dropped = ~evaluated_points(m, q)
            assert np.any(dropped)
            assert np.all(np.sum(w * dropped, axis=1) <= 2.0**-53 * np.sum(w, axis=1))

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_kept_cells_depend_on_the_row_alone(self, d):
        rng = np.random.default_rng(60 + d)
        pts, q = clustered_sample(rng, d, h=self.H)
        m = DensityModel(pts, self.H)
        batch = m._kept_cells(q)
        alone = np.concatenate([m._kept_cells(row[None, :]) for row in q])
        shuffled = rng.permutation(q.shape[0])
        assert np.array_equal(alone, batch)
        assert np.array_equal(m._kept_cells(q[shuffled]), batch[shuffled])

    def test_rows_evaluated_on_fewer_than_n_columns(self, monkeypatch):
        columns, sample_sum = [], kde.sample_sum
        monkeypatch.setattr(kde, "sample_sum",
                            lambda w, xt: columns.append(w.shape[1]) or sample_sum(w, xt))
        rng = np.random.default_rng(70)
        pts, q = clustered_sample(rng, 3, h=self.H)
        m = DensityModel(pts, self.H)
        for evaluate in (m.density, m.gradient, m._mean_shift):
            columns.clear()
            evaluate(q)
            assert min(columns) < m.n, evaluate.__name__

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_empty_query(self, d):
        pts, _ = clustered_sample(np.random.default_rng(80 + d), d, h=self.H)
        m = DensityModel(pts, self.H)
        assert m._cell_log_n.size > 1
        density, target = m._mean_shift(np.empty((0, d)))
        assert m.density(np.empty((0, d))).shape == density.shape == (0,)
        assert m.gradient(np.empty((0, d))).shape == target.shape == (0, d)
