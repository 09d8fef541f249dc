"""Superlevel-set persistence against an independent connected-components oracle."""

import gc
import tracemalloc
import weakref

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
    persist,
    run_persistence,
    significant_pairs,
    superlevel_persistence,
)
from oracles import bootstrap_band_reference, grid_density


def sort_pairs(pairs):
    pairs = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    life = pairs[:, 1] - pairs[:, 0]
    return pairs[np.lexsort((pairs[:, 0], -pairs[:, 1], -life))]


def blobs_3d():
    """persist_3d's input: 600 points in three 3-d blobs."""
    return generate(GeneratorSpec(
        family="mixture", n=600, seed=0,
        params={"means": [[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 3.5, 0.0]],
                "cov_diags": [[0.25] * 3] * 3},
    ))


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
        for _ in range(6):  # integer values: ties, broken by flat index
            shape = tuple(rng.integers(2, 7, size=3))
            z = rng.integers(0, 4, size=shape).astype(np.float64)
            f = GridFunction(tuple(np.arange(float(s)) for s in shape), z)
            assert np.array_equal(superlevel_persistence(f), persistence_oracle(z))

    def test_length_one_axes(self):
        # a length-1 axis has no edges along it
        rng = np.random.default_rng(15)
        for shape in [(1, 9), (9, 1), (6, 1, 5), (1, 1, 7), (1,), (1, 1)]:
            for z in (rng.normal(size=shape), rng.integers(0, 3, size=shape).astype(np.float64)):
                f = GridFunction(tuple(np.arange(float(s)) for s in shape), z)
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


def test_memory_bounded_on_smooth_grid():
    # three Gaussian bumps on 64^3: per-axis boundary edges keep the peak at
    # a few copies of the grid (about 6x values.nbytes); building all d * G
    # grid edges at once would take over 20x
    ax = np.linspace(-4.0, 4.0, 64)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    values = sum(np.exp(-((x - a) ** 2 + (y - b) ** 2 + (z - c) ** 2))
                 for a, b, c in [(-2.0, -2.0, 0.0), (2.0, -2.0, 0.0), (0.0, 2.0, 1.0)])
    f = GridFunction((ax, ax, ax), values)
    nbytes = values.nbytes
    del x, y, z
    tracemalloc.start()
    try:
        pairs = superlevel_persistence(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape == (3, 2)
    assert peak < 10 * nbytes, f"peak {peak / nbytes:.1f}x values.nbytes"


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

    @staticmethod
    def spied_products(monkeypatch):
        """Record how many grid points each tile's bound covers, and the (replicates,
        grid points, sample columns) of each exact product of the band."""
        bounded, products = [], []

        def bound_spy(*args):
            u, e = bound(*args)
            bounded.append(u.size)
            return u, e

        def product_spy(dev_counts, w):
            products.append((dev_counts.shape[0], *w.shape))
            return exact(dev_counts, w)

        bound, exact = persist._deviation_bound, persist._exact_deviations
        monkeypatch.setattr(persist, "_deviation_bound", bound_spy)
        monkeypatch.setattr(persist, "_exact_deviations", product_spy)
        return bounded, products

    @pytest.mark.parametrize("d, n, B, res, budget", [
        (1, 200, 50, 128, 6 * 400),  # 3-point tiles
        (2, 512, 40, 128, None),
        (2, 513, 40, 128, None),  # 2n - 1 gains a bit: the rounding grid halves
        (3, 300, 400, 16, 1 << 19),  # more replicates than points; 2 x 16 x 16-point tiles
    ])
    def test_equals_whole_grid_oracle(self, monkeypatch, d, n, B, res, budget):
        # two clusters 60 h apart along the first axis, so the tiles between them
        # drop every sample point and the others drop one cluster
        if budget is not None:
            monkeypatch.setattr(kde, "_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(100 + d)
        h = 0.5
        data = rng.normal(scale=h, size=(n, d)) + 30.0 * h * rng.choice([-1.0, 1.0], size=(n, 1))
        axes = default_axes(data, h, resolution=res)
        tiles = sum(1 for _ in DensityModel(data, h)._grid_tiles(axes, B))
        bounded, products = self.spied_products(monkeypatch)
        band = bootstrap_band(data, h, axes, alpha=0.1, B=B, seed=d)
        assert band == bootstrap_band_reference(data, h, axes, alpha=0.1, B=B, seed=d)
        widths = [k for _, _, k in products]
        assert 0 < len(bounded) < tiles and max(widths) < n
        # the bound skips grid points of the tiles the product takes
        assert sum(g for _, g, _ in products) < sum(bounded)

    def test_ties_at_the_band_equal_the_oracle(self, monkeypatch):
        # three points and 200 replicates: the maxima of the replicates ranked 179
        # to 181 all equal the band, the rank-180 order statistic
        monkeypatch.setattr(kde, "_BLOCK_ENTRIES", 8 * (200 + 2 * 3))  # 7-point tiles
        data = np.random.default_rng(1).normal(size=(3, 2))
        axes = default_axes(data, 0.5, resolution=32)
        bounded, products = self.spied_products(monkeypatch)
        band = bootstrap_band(data, 0.5, axes, alpha=0.1, B=200, seed=1)
        ranked = [bootstrap_band_reference(data, 0.5, axes, alpha=a, B=200, seed=1)
                  for a in (0.1 + 0.005, 0.1, 0.1 - 0.005)]
        assert ranked == [band] * 3
        assert sum(g for _, g, _ in products) < sum(bounded)

    def test_deviation_bound_covers_exact_sums(self):
        # last holds odd halves from 3.5 to 2^41, which round up by 1/2, so where lead
        # is 1 the exact sums meet the bound's half-sum and only its relative margin
        # covers the float sum's rounding; other lead rows span 2^-10 to 2^10.  With
        # multipliers up to 2,000 the sums pass 2^53.  Lead has more rows than last,
        # and then fewer.
        rng = np.random.default_rng(5)
        k = 300
        m = rng.integers(1, 2000, size=k).astype(np.float64)
        lead = rng.uniform(1.0, 2.0, size=(7, k)) * 2.0 ** rng.integers(-10, 10, size=(7, k))
        lead[:3] = 1.0
        last = 2.0 * np.floor(2.0 ** rng.uniform(0.0, 40.0, size=(5, k))) + 1.5
        exact = [[sum(int(mi) * int(np.rint(w)) for mi, w in zip(m, a * b)) for b in last]
                 for a in lead]
        assert max(map(max, exact)) > 2**53
        # the error term E takes U's margins: with the factor as its own error matrix, E = U
        for u in (*persist._deviation_bound(lead, last, last, m, 2),
                  persist._deviation_bound(last, lead, lead, m, 2)[0].T):
            for row, sums in zip(u.tolist(), exact):
                # Python compares a float with an int exactly
                assert all(s <= x <= (s + m.sum()) * (1.0 + 1e-12) for x, s in zip(row, sums))

    def test_interpolated_bound_covers_exact_sums(self):
        # A span of 11 last-axis points, anchors every 4th and the last (0, 4, 8, 10),
        # so the points between take weights 1/4 to 3/4.  Over each sample point the
        # factor is concave along the span; its anchor entries are halves that round
        # down by 1/2 and the others halves that round up by 1/2, above the line
        # between their anchors.  So where lead is 1, the replicate with c - 1 = m
        # meets F's sum_i m_i and its error term exactly, and only the margins cover
        # the float sums.  Other lead rows span 2^-10 to 2^10.  The sums pass 2^53.
        rng = np.random.default_rng(6)
        k, t = 300, 11
        anchor, interp = persist._anchors(t, 4)
        inner = interp[0]
        assert anchor.tolist() == [0, 4, 8, 10]
        m = rng.integers(1, 2000, size=k).astype(np.float64)
        lead = rng.uniform(1.0, 2.0, size=(6, k)) * 2.0 ** rng.integers(-10, 10, size=(6, k))
        lead[:2] = 1.0
        c = np.arange(t)[:, None]
        raw = 2.0 ** rng.uniform(7.0, 40.0, size=k) * (1.0 + c * (t - 1 - c) / 25.0)
        last = 2.0 * np.floor(raw / 2.0) + 0.5
        last[inner] += 1.0
        dev = np.stack([m, -np.ones(k), *(rng.integers(-1, m + 1) for _ in range(3))])
        rounded = [[[int(np.rint(w)) for w in a * b] for b in last] for a in lead]
        exact = [[max(abs(sum(int(x) * r for x, r in zip(row, ints))) for row in dev)
                  for ints in by_last] for by_last in rounded]  # max_b |D_bg|
        assert max(map(max, exact)) > 2**53
        u, e = persist._deviation_bound(lead, last, persist._error_matrix(last, interp), m, 3)
        top = u.copy()
        for a in range(0, lead.shape[0], 2):  # these rows' anchors were taken: exact maxima,
            for b in anchor:  # as the nearest float not below them
                top[a, b] = float(exact[a][b])
                top[a, b] += (top[a, b] < exact[a][b]) * np.spacing(top[a, b])
        f = persist._interpolated_bound(u, e, top, interp, np.sum(m))
        assert f.shape == (lead.shape[0], inner.size)
        for a in range(lead.shape[0]):
            for j, g in enumerate(inner):
                # Python compares a float with an int exactly
                assert exact[a][g] <= f[a, j] <= (exact[a][g] + 4 * m.sum()) * (1.0 + 1e-12), (a, g)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_interpolated_band_equals_oracle(self, monkeypatch, d):
        # Two clusters 12 h apart along the first axis, and a last axis of 120 points
        # over at most 12 h, so anchors lie 4 or more points apart.  The last axis is
        # unevenly spaced, unsorted, or even and cut into spans of 3 points, shorter
        # than the stride.  The band equals the oracle's at several ranks, the largest
        # first.  With F's pruning replaced by U's, the products take more points
        # (on the unsorted axis, where F interpolates between far points, as many).
        rng = np.random.default_rng([0, d])
        n, h, B = 300 // d, 0.4, 60
        data = rng.normal(scale=h, size=(n, d)) + 6.0 * h * rng.choice([-1.0, 1.0], size=(n, 1))
        even = np.linspace(-6.0 * h, 6.0 * h, 120)
        full, taken = kde._BLOCK_ENTRIES, [0, 0]
        _, products = self.spied_products(monkeypatch)
        for last, budget in [(np.sort(rng.uniform(-6.0 * h, 6.0 * h, 120)), full),
                             (rng.permutation(even), full),
                             (even, 3 * (3 * n + B) + 2 * n)]:
            axes = (*[np.linspace(-12.0 * h, 12.0 * h, 12)] * (d - 1), last)
            stride = int(h * (last.size - 1) / (2.0 * np.ptp(last)))  # bootstrap_band's s
            monkeypatch.setattr(kde, "_BLOCK_ENTRIES", budget)
            spans = {box[-1].stop - box[-1].start for box, _, _ in DensityModel(data, h)._grid_tiles(axes, B)}
            assert stride >= 4 and (spans == {120} or max(spans) == 3)
            for i, bound in enumerate((persist._interpolated_bound,
                                       lambda u, e, top, interp, m_sum: u[:, interp[0]])):
                monkeypatch.setattr(persist, "_interpolated_bound", bound)
                before = len(products)
                for alpha in (1e-9, 0.1, 0.5):
                    band = bootstrap_band(data, h, axes, alpha=alpha, B=B, seed=d)
                    assert band == bootstrap_band_reference(data, h, axes, alpha=alpha, B=B, seed=d), alpha
                taken[i] += sum(g for _, g, _ in products[before:])
        assert taken[0] < taken[1], taken

    def test_product_skips_points_on_blobs(self, monkeypatch):
        # persist_3d's input with fewer replicates, in 128 tiles: the tile products,
        # at most two a tile (anchors, then the points between them), take 49,665
        # (product, sample point) pairs, 0.259 of 320 x 600, and, skipping grid
        # points, 0.0366 of the plain product's multiply-adds (0.0897 with U alone)
        data = blobs_3d()
        _, products = self.spied_products(monkeypatch)
        bootstrap_band(data, 0.8, default_axes(data, 0.8, resolution=64), alpha=0.1, B=20, seed=0)
        widths = [k for _, _, k in products]
        assert len(widths) <= 2 * 128
        assert sum(widths) < 0.39 * 600 * 320, sum(widths) / (600 * 320)
        madds = sum(b * g * k for b, g, k in products)
        assert madds < 0.04 * 20 * 64**3 * 600, madds / (20 * 64**3 * 600)

    def test_products_read_row_major_counts(self, monkeypatch):
        # persist_3d's input: every product reads its slice of the counts as rows of
        # contiguous entries; the permuted draw comes back column-major, and slices of
        # it once had strides (8, 1600) at B = 200
        data = blobs_3d()
        layouts = []

        def product_spy(dev_counts, w):
            layouts.append(dev_counts.strides[1] == dev_counts.itemsize)
            return exact(dev_counts, w)

        exact = persist._exact_deviations
        monkeypatch.setattr(persist, "_exact_deviations", product_spy)
        bootstrap_band(data, 0.8, default_axes(data, 0.8, resolution=64), alpha=0.1, B=200, seed=0)
        assert layouts and all(layouts), layouts

    def test_last_axis_factor_made_once_per_pass(self, monkeypatch):
        # persist_3d's input: its 128 tiles of 1 x 51 x 64 points (1 x 50 x 64 for
        # the band) share one span of the last axis, so each pass makes that 64-row
        # factor once, and the leading axes' factors 64 + 128 rows; per tile that
        # would be 128 x (64 + 51 + 1) = 14,848 rows
        data = blobs_3d()
        axes = default_axes(data, 0.8, resolution=64)
        made = []

        def factor_spy(model, j, a, half_sq):
            made.append((j, a.size))
            return factor(model, j, a, half_sq)

        factor = DensityModel._axis_factor
        monkeypatch.setattr(DensityModel, "_axis_factor", factor_spy)
        for evaluate in (lambda: density_grid(DensityModel(data, 0.8), axes),
                         lambda: bootstrap_band(data, 0.8, axes, alpha=0.1, B=20, seed=0)):
            made.clear()
            evaluate()
            assert [j for j, _ in made].count(2) == 1, made
            assert sum(t for _, t in made) < 5000, sum(t for _, t in made)

    def test_each_axis_factor_made_once_per_span(self, monkeypatch):
        # persist_3d's input: one span of axis 2, two spans of axis 1 (51 and 13
        # points for the grid, 50 and 14 for the band) and, within each, 64 one-point
        # spans of axis 0.  Each span's factor is made once: 64 + 64 + 128 = 256 rows
        # per pass, where remaking axis 1's factors for every axis-0 value made 4,480
        data = blobs_3d()
        axes = default_axes(data, 0.8, resolution=64)
        rows = {}

        def factor_spy(model, j, a, half_sq):
            rows[j] = rows.get(j, 0) + a.size
            return factor(model, j, a, half_sq)

        factor = DensityModel._axis_factor
        monkeypatch.setattr(DensityModel, "_axis_factor", factor_spy)
        for evaluate in (lambda: density_grid(DensityModel(data, 0.8), axes),
                         lambda: bootstrap_band(data, 0.8, axes, alpha=0.1, B=20, seed=0)):
            rows.clear()
            evaluate()
            assert rows == {0: 128, 1: 64, 2: 64}, rows

    def test_tiles_keep_no_model_alive(self):
        # with the cyclic collector off, a model is freed as soon as its last
        # reference goes; a tile generator that called itself through its own
        # closure would form a cycle holding the model until a collection
        data = blobs_3d()
        axes = default_axes(data, 0.8, resolution=16)
        gc.disable()
        try:
            model = DensityModel(data, 0.8)
            alive = weakref.ref(model)
            density_grid(model, axes)
            del model
            assert alive() is None
            models = sum(isinstance(o, DensityModel) for o in gc.get_objects())
            bootstrap_band(data, 0.8, axes, alpha=0.1, B=20, seed=0)
            assert sum(isinstance(o, DensityModel) for o in gc.get_objects()) == models
        finally:
            gc.enable()

    def test_alpha_domain(self):
        data = np.zeros((5, 1))
        with pytest.raises(ValueError):
            bootstrap_band(data, 1.0, self.grid_1d(), alpha=0.0, B=5, seed=0)

    @pytest.mark.parametrize("B", [0, -1, 2.0])
    def test_replicate_count_domain(self, B):
        data = np.zeros((5, 1))
        with pytest.raises(ValueError, match="B must be >= 1"):
            bootstrap_band(data, 1.0, self.grid_1d(), alpha=0.1, B=B, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_seed_domain(self, monkeypatch, seed):
        def no_draw(*args):
            raise AssertionError("counts drawn before the seed was checked")
        monkeypatch.setattr(persist, "_resample_counts", no_draw)
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            bootstrap_band(np.zeros((5, 1)), 1.0, self.grid_1d(), alpha=0.1, B=5, seed=seed)


@pytest.mark.parametrize("bad", [{"B": 0}, {"alpha": 1.0}])
def test_run_persistence_checks_band_arguments_before_grid_work(monkeypatch, bad):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was evaluated before B and alpha were checked")

    monkeypatch.setattr(persist, "density_grid", no_grid)
    data = np.random.default_rng(15).normal(size=(40, 2))
    with pytest.raises(ValueError):
        run_persistence(data, 0.8, **bad)


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

    @pytest.mark.parametrize("band", [np.nan, np.inf])
    def test_non_finite_band_rejected(self, band):
        # a NaN band once kept no pair without a word
        pairs = np.array([[0.0, 1.0]])
        with pytest.raises(ValueError, match="band must be nonnegative and finite"):
            significant_pairs(PersistenceDiagram(pairs=pairs, band=band))


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

    @pytest.mark.parametrize("h, resolution, message", [
        (-1.0, None, "h must be positive and finite"),
        (0.0, None, "h must be positive and finite"),
        (np.nan, None, "h must be positive and finite"),
        (np.inf, None, "h must be positive and finite"),
        (1.0, 2.7, "resolution must be >= 2 and an integer, got 2.7"),
        (1.0, 16.0, "resolution must be >= 2 and an integer"),
    ], ids=["negative_h", "zero_h", "nan_h", "inf_h", "fractional_resolution", "float_resolution"])
    def test_bad_bandwidth_or_resolution_rejected(self, h, resolution, message):
        # a negative h once gave axes narrower than the data, reversed on 50 points
        data = np.random.default_rng(3).normal(size=(50, 2))
        with pytest.raises(ValueError, match=message):
            default_axes(data, h, resolution=resolution)

    def test_numpy_integer_resolution_accepted(self):
        axes = default_axes(np.zeros((4, 2)), h=1.0, resolution=np.int64(5))
        assert [a.size for a in axes] == [5, 5]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is no wider than float64 here")
    def test_density_grid_matches_direct_evaluation(self):
        # three blobs about 20 h apart: an exponent expanded about the sample
        # mean cancels terms of size ||X - c||^2 / h^2 and lands near 1e-14
        rng = np.random.default_rng(12)
        for d, res in [(1, 200), (2, 40), (3, 14)]:
            centres = rng.uniform(-6.0, 6.0, size=(3, d))
            data = centres[rng.integers(0, 3, 150)] + 0.5 * rng.normal(size=(150, d))
            axes = default_axes(data, 0.4, resolution=res)
            f = density_grid(DensityModel(data, 0.4), axes)
            ref = grid_density(data, 0.4, axes)
            assert np.max(np.abs(f.values - ref)) <= 2e-15 * np.max(ref), d

    @pytest.mark.parametrize("bad, message", [
        ((np.linspace(-3.0, 3.0, 9),), "expected 2 grid axes"),
        ((np.linspace(-3.0, 3.0, 9), np.array([0.0, np.nan, 1.0])), "non-finite"),
        ((np.linspace(-3.0, 3.0, 9), np.array([])), "non-empty 1-d"),
        ((np.linspace(-3.0, 3.0, 9), np.zeros((3, 2))), "non-empty 1-d"),
    ], ids=["one_axis", "nan", "empty", "two_dim"])
    @pytest.mark.parametrize("evaluate", ["density_grid", "bootstrap_band"])
    def test_bad_axes_rejected(self, monkeypatch, evaluate, bad, message):
        def no_draw(*args):
            raise AssertionError("counts drawn before the axes were checked")
        monkeypatch.setattr(persist, "_resample_counts", no_draw)
        data = np.random.default_rng(17).normal(size=(30, 2))
        with pytest.raises(ValueError, match=message):
            if evaluate == "density_grid":
                density_grid(DensityModel(data, 0.7), bad)
            else:
                bootstrap_band(data, 0.7, bad, alpha=0.1, B=5, seed=0)

    def test_grid_function_validation(self):
        with pytest.raises(ValueError, match="shape"):
            GridFunction((np.arange(3.0),), np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            GridFunction((np.arange(2.0),), np.array([0.0, np.nan]))

    @pytest.mark.parametrize("axes, values", [((np.array([]),), np.array([])),
                                              ((np.arange(3.0), np.array([])), np.zeros((3, 0)))])
    def test_empty_axis_rejected(self, axes, values):
        # an empty axis once made a grid on which superlevel_persistence raised IndexError
        with pytest.raises(ValueError, match="grid axes must be non-empty"):
            GridFunction(axes, values)


def test_trimodal_pipeline_retains_three():
    data = generate(GeneratorSpec(
        family="mixture", n=900, seed=14,
        params={"means": [[-6.0], [0.0], [6.0]], "cov_diags": [[1.0], [1.0], [1.0]]},
    ))
    diagram = run_persistence(data, 0.9, alpha=0.1, B=300, seed=0)
    kept = significant_pairs(diagram)
    assert kept.shape[0] == 3
