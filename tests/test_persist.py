"""Superlevel-set persistence against an independent connected-components oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage

from modesig import (
    DensityModel,
    GeneratorSpec,
    GridFunction,
    PersistenceDiagram,
    bootstrap_band,
    default_axes,
    density_grid,
    generate,
    kde,
    run_persistence,
    significant_pairs,
    superlevel_persistence,
)


def sort_pairs(pairs):
    pairs = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    life = pairs[:, 1] - pairs[:, 0]
    return pairs[np.lexsort((pairs[:, 0], -pairs[:, 1], -life))]


def persistence_oracle(values):
    """Re-run the filtration with scipy.ndimage doing the connectivity.

    Vertices are added one at a time in (value desc, flat index asc) order.
    After each addition the mask is relabeled; any label now holding more
    than one alive component kills all but the oldest at the new vertex's
    value.  Slow but entirely independent of the union-find code.
    """
    arr = np.asarray(values, dtype=np.float64)
    shape = arr.shape
    flat = arr.ravel()
    G = flat.size
    order = np.lexsort((np.arange(G), -flat))
    rank = np.empty(G, dtype=np.int64)
    rank[order] = np.arange(G)
    structure = ndimage.generate_binary_structure(arr.ndim, 1)

    added = np.zeros(shape, dtype=bool)
    alive = {}  # flat index of a component's birth vertex -> its nd index
    pairs = []
    for pos in range(G):
        v = int(order[pos])
        idx = np.unravel_index(v, shape)
        added[idx] = True
        labels, _ = ndimage.label(added, structure=structure)
        groups = {}
        for b, bidx in alive.items():
            groups.setdefault(labels[bidx], []).append(b)
        if labels[idx] not in groups:  # no alive component here: a birth
            alive[v] = idx
            groups[labels[idx]] = [v]
        for members in groups.values():
            if len(members) > 1:
                eldest = min(members, key=lambda b: rank[b])
                for b in members:
                    if b != eldest:
                        pairs.append((flat[v], flat[b]))
                        del alive[b]
    assert list(alive) == [int(order[0])]
    pairs.append((flat[order[-1]], flat[order[0]]))
    return sort_pairs(pairs)


class TestSmallExamples:
    def test_two_bumps_one_dim(self):
        f = GridFunction((np.arange(5.0),), np.array([0.0, 3.0, 1.0, 2.0, 0.0]))
        got = superlevel_persistence(f)
        assert np.array_equal(got, [[0.0, 3.0], [1.0, 2.0]])

    def test_single_bump(self):
        f = GridFunction((np.arange(3.0),), np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(superlevel_persistence(f), [[0.0, 1.0]])

    def test_constant_grid_single_flat_pair(self):
        f = GridFunction((np.arange(4.0),), np.full(4, 2.5))
        assert np.array_equal(superlevel_persistence(f), [[2.5, 2.5]])

    def test_monotone_ramp(self):
        f = GridFunction((np.arange(6.0),), np.arange(6.0))
        assert np.array_equal(superlevel_persistence(f), [[0.0, 5.0]])

    def test_two_dim_two_bumps(self):
        z = np.zeros((3, 5))
        z[1, 1] = 4.0
        z[1, 2] = 1.0  # ridge joining the two bumps
        z[1, 3] = 3.0
        f = GridFunction((np.arange(3.0), np.arange(5.0)), z)
        got = superlevel_persistence(f)
        # essential pair, the younger bump dying on the ridge, and one
        # zero-lifetime artifact of flooding the flat background in
        # index order from the corner
        assert np.array_equal(got, [[0.0, 4.0], [1.0, 3.0], [0.0, 0.0]])

    def test_affine_transform_maps_pairs(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(9, 9))
        f1 = GridFunction((np.arange(9.0), np.arange(9.0)), z)
        f2 = GridFunction((np.arange(9.0), np.arange(9.0)), 2.0 * z + 1.0)
        assert np.array_equal(superlevel_persistence(f2), 2.0 * superlevel_persistence(f1) + 1.0)


class TestAgainstOracle:
    def test_random_float_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            shape = tuple(rng.integers(2, 13, size=rng.integers(1, 3)))
            z = rng.normal(size=shape)
            f = GridFunction(tuple(np.arange(float(s)) for s in shape), z)
            assert np.array_equal(superlevel_persistence(f), persistence_oracle(z))

    def test_random_integer_grids_exercise_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(90):
            shape = tuple(rng.integers(2, 11, size=rng.integers(1, 3)))
            z = rng.integers(0, 4, size=shape).astype(np.float64)
            f = GridFunction(tuple(np.arange(float(s)) for s in shape), z)
            assert np.array_equal(superlevel_persistence(f), persistence_oracle(z))

    def test_larger_two_dim_grids(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.normal(size=(32, 32))
            f = GridFunction((np.arange(32.0), np.arange(32.0)), z)
            assert np.array_equal(superlevel_persistence(f), persistence_oracle(z))

    def test_three_dim_grids(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            z = rng.normal(size=(8, 8, 8))
            f = GridFunction(tuple(np.arange(8.0) for _ in range(3)), z)
            assert np.array_equal(superlevel_persistence(f), persistence_oracle(z))

    def test_kde_grids(self):
        data = generate(GeneratorSpec(
            family="mixture", n=300, seed=5,
            params={"means": [[-3.0], [3.0]], "cov_diags": [[1.0], [1.0]]},
        ))
        f = density_grid(DensityModel(data, 0.8), default_axes(data, 0.8, resolution=80))
        assert np.array_equal(superlevel_persistence(f), persistence_oracle(f.values))

        data2 = generate(GeneratorSpec(
            family="mixture", n=200, seed=6,
            params={"means": [[-2.0, 0.0], [2.0, 1.0]]},
        ))
        f2 = density_grid(DensityModel(data2, 0.7), default_axes(data2, 0.7, resolution=36))
        assert np.array_equal(superlevel_persistence(f2), persistence_oracle(f2.values))


class TestPairCount:
    def test_pair_count_equals_birth_count(self):
        # one pair per component, one component per vertex with no
        # earlier-ranked axis neighbor
        rng = np.random.default_rng(6)
        for _ in range(20):
            shape = tuple(rng.integers(2, 15, size=2))
            z = rng.integers(0, 5, size=shape).astype(np.float64)
            flat = z.ravel()
            G = flat.size
            order = np.lexsort((np.arange(G), -flat))
            rank = np.empty(G, dtype=np.int64)
            rank[order] = np.arange(G)
            rank_nd = rank.reshape(shape)
            births = 0
            for i in range(shape[0]):
                for j in range(shape[1]):
                    nb = []
                    if i > 0:
                        nb.append(rank_nd[i - 1, j])
                    if i < shape[0] - 1:
                        nb.append(rank_nd[i + 1, j])
                    if j > 0:
                        nb.append(rank_nd[i, j - 1])
                    if j < shape[1] - 1:
                        nb.append(rank_nd[i, j + 1])
                    births += all(r > rank_nd[i, j] for r in nb)
            f = GridFunction((np.arange(float(shape[0])), np.arange(float(shape[1]))), z)
            assert superlevel_persistence(f).shape[0] == births


class TestBand:
    def grid_1d(self):
        return (np.linspace(-5.0, 5.0, 64),)

    def test_single_replicate_brute_force(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(60, 1))
        axes = self.grid_1d()
        band = bootstrap_band(data, 1.0, axes, alpha=0.5, B=1, seed=11)
        idx = np.random.default_rng([11, 0]).integers(0, 60, 60)
        m0 = DensityModel(data, 1.0)
        m1 = DensityModel(data[idx], 1.0)
        q = axes[0][:, None]
        expected = np.max(np.abs(m1.density(q) - m0.density(q)))
        assert_allclose(band, expected, rtol=1e-12)

    def test_alpha_near_one_takes_smallest_deviation(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(50, 1))
        axes = self.grid_1d()
        m0 = DensityModel(data, 1.0)
        q = axes[0][:, None]
        devs = []
        for b in range(8):
            idx = np.random.default_rng([13, b]).integers(0, 50, 50)
            devs.append(np.max(np.abs(DensityModel(data[idx], 1.0).density(q) - m0.density(q))))
        band = bootstrap_band(data, 1.0, axes, alpha=1.0 - 1e-9, B=8, seed=13)
        assert_allclose(band, min(devs), rtol=1e-12)
        band = bootstrap_band(data, 1.0, axes, alpha=1e-9, B=8, seed=13)
        assert_allclose(band, max(devs), rtol=1e-12)

    def test_monotone_in_alpha(self):
        data = np.random.default_rng(9).normal(size=(80, 1))
        axes = self.grid_1d()
        bands = [bootstrap_band(data, 1.0, axes, a, B=60, seed=3) for a in [0.02, 0.1, 0.3, 0.7]]
        assert all(x >= y for x, y in zip(bands, bands[1:]))

    def test_root_n_shrinkage(self):
        axes = self.grid_1d()
        rng = np.random.default_rng(10)
        small = rng.normal(size=(300, 1))
        big = rng.normal(size=(4 * 300, 1))
        b_small = bootstrap_band(small, 1.0, axes, alpha=0.1, B=200, seed=5)
        b_big = bootstrap_band(big, 1.0, axes, alpha=0.1, B=200, seed=5)
        ratio = b_small / b_big
        assert 1.6 <= ratio <= 2.6, f"ratio {ratio:.2f}"

    def test_block_layout_does_not_move_band(self, monkeypatch):
        # d = 1 weights are single products, the same bits in any block;
        # the deviation product is exact, so any layout gives the same band
        data = np.random.default_rng(14).normal(size=(70, 1))
        band = bootstrap_band(data, 0.8, self.grid_1d(), alpha=0.1, B=40, seed=2)
        monkeypatch.setattr(kde, "_BLOCK_ENTRIES", 3 * 70)  # 3-row grid blocks
        assert bootstrap_band(data, 0.8, self.grid_1d(), alpha=0.1, B=40, seed=2) == band

    def test_alpha_domain(self):
        data = np.zeros((5, 1))
        with pytest.raises(ValueError):
            bootstrap_band(data, 1.0, self.grid_1d(), alpha=0.0, B=5, seed=0)


class TestSignificantPairs:
    def test_strict_lifetime_threshold(self):
        pairs = np.array([[0.0, 1.0], [0.0, 0.2], [0.1, 0.7]])
        out = significant_pairs(PersistenceDiagram(pairs=pairs, band=0.3))
        assert np.array_equal(out, [[0.0, 1.0]])

    def test_exactly_two_band_lifetimes_are_noise(self):
        pairs = np.array([[0.0, 0.6]])
        out = significant_pairs(PersistenceDiagram(pairs=pairs, band=0.3))
        assert out.shape == (0, 2)

    def test_zero_band_keeps_positive_lifetimes_only(self):
        pairs = np.array([[0.5, 0.5], [0.2, 0.9]])
        out = significant_pairs(PersistenceDiagram(pairs=pairs, band=0.0))
        assert np.array_equal(out, [[0.2, 0.9]])

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            significant_pairs(PersistenceDiagram(pairs=np.zeros((0, 2)), band=-0.1))


class TestGridHelpers:
    def test_default_axes_margins(self):
        data = np.array([[0.0, -2.0], [4.0, 6.0]])
        axes = default_axes(data, h=0.5, resolution=33)
        assert len(axes) == 2
        for j, ax in enumerate(axes):
            assert len(ax) == 33
            assert ax[0] == data[:, j].min() - 1.5
            assert ax[-1] == data[:, j].max() + 1.5

    def test_default_resolutions_by_dimension(self):
        for d, res in [(1, 128), (2, 128), (3, 64)]:
            axes = default_axes(np.zeros((4, d)), h=1.0)
            assert all(len(a) == res for a in axes)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 3"):
            default_axes(np.zeros((4, 4)), h=1.0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            default_axes(np.zeros((4, 1)), h=1.0, resolution=1)

    def test_density_grid_matches_direct_evaluation(self):
        data = np.random.default_rng(12).normal(size=(40, 2))
        m = DensityModel(data, 0.7)
        axes = (np.linspace(-2, 2, 9), np.linspace(-3, 3, 11))
        f = density_grid(m, axes)
        xx, yy = np.meshgrid(*axes, indexing="ij")
        direct = m.density(np.stack([xx.ravel(), yy.ravel()], axis=1)).reshape(9, 11)
        assert np.array_equal(f.values, direct)

    def test_grid_function_validation(self):
        with pytest.raises(ValueError, match="shape"):
            GridFunction((np.arange(3.0),), np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            GridFunction((np.arange(2.0),), np.array([0.0, np.nan]))


def test_trimodal_pipeline_retains_three():
    data = generate(GeneratorSpec(
        family="mixture", n=900, seed=14,
        params={"means": [[-6.0], [0.0], [6.0]], "cov_diags": [[1.0], [1.0], [1.0]]},
    ))
    diagram = run_persistence(data, 0.9, alpha=0.1, B=300, seed=0)
    kept = significant_pairs(diagram)
    assert kept.shape[0] == 3
