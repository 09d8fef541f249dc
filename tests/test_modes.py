"""Mean-shift behavior: fixed points, ascent, dedup, basins, convergence flags."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import (DensityModel, GeneratorSpec, MeanShiftOptions, default_grid, find_modes,
                     generate, kde, modes, split)
from oracles import kde_reference, mean_shift_step, plain_mean_shift


def two_cluster_data(seed=0, sep=5.0, n=100):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-sep, 1.0, n), rng.normal(sep, 1.0, n)])


def scan_2d_input(seed=0):
    """The first half of the split and the 30-bandwidth grid of the benchmark's
    scan_2d workload (bench/workloads.py) at `seed`."""
    pts = generate(GeneratorSpec(family="mixture", n=1000, seed=seed,
                                 params={"means": [[-6.0, 0.0], [0.0, 0.0], [6.0, 3.0]]}))
    return split(pts, seed)[0], default_grid(pts, count=30)


class RowCounting(DensityModel):
    """A DensityModel that counts the query rows of its mean-shift evaluations."""

    def __init__(self, points, h):
        super().__init__(points, h)
        self.rows = 0

    def _mean_shift(self, q):
        self.rows += q.shape[0]
        return super()._mean_shift(q)


class TestMeanShiftStep:
    def test_single_point_collapses_in_one_step(self):
        m = DensityModel([[2.0, -1.0]], 1.0)
        assert_allclose(mean_shift_step(m, [5.0, 2.0]), [2.0, -1.0], rtol=1e-12)

    def test_fixed_point_stays_put(self):
        # by symmetry the midpoint of {0, 2} is an exact fixed point
        m = DensityModel([0.0, 2.0], 1.0)
        assert_allclose(mean_shift_step(m, [1.0]), [1.0], atol=1e-12)

    def test_two_point_weighted_mean(self):
        m = DensityModel([0.0, 2.0], 1.0)
        w0 = np.exp(-((0.5 - 0.0) ** 2) / 2.0)
        w2 = np.exp(-((0.5 - 2.0) ** 2) / 2.0)
        expected = (0.0 * w0 + 2.0 * w2) / (w0 + w2)
        assert_allclose(mean_shift_step(m, [0.5]), [expected], rtol=1e-14)

    def test_step_lands_in_data_hull(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 2))
        m = DensityModel(pts, 0.7)
        out = mean_shift_step(m, np.array([0.3, -0.2]))
        assert np.all(out >= pts.min(axis=0)) and np.all(out <= pts.max(axis=0))

    def test_empty_neighborhood_signaled(self):
        m = DensityModel([0.0], 1.0)
        with pytest.raises(ValueError, match="empty neighborhood"):
            mean_shift_step(m, [1e6])


class TestOptions:
    @pytest.mark.parametrize("max_iter", [2.7, 3.0, "3", True, 0])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # 2.7 once ran 2 sweeps without a word, and "3" was accepted
        with pytest.raises(ValueError, match=f"max_iter must be >= 1 and an integer, got {max_iter!r}"):
            MeanShiftOptions(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        m = DensityModel(two_cluster_data(), 1.0)
        cands, _ = find_modes(m, opts=MeanShiftOptions(max_iter=np.int64(500)))
        assert len(cands) == 2


class TestFindModes:
    def test_single_tight_cluster_gives_one_mode(self):
        rng = np.random.default_rng(1)
        m = DensityModel(rng.normal(0.0, 0.5, size=(80, 2)), 1.0)
        cands, asg = find_modes(m)
        assert len(cands) == 1
        assert cands[0].basin_size == 80
        assert np.all(asg.labels == 0)

    def test_two_clusters_locations_and_basins(self):
        data = two_cluster_data()
        m = DensityModel(data, 1.0)
        cands, asg = find_modes(m)
        assert len(cands) == 2
        # grid-ascent oracle: local maxima of the density on a dense grid
        grid = np.linspace(-9, 9, 20001)
        dens = m.density(grid[:, None])
        interior = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])) + 1
        oracle = np.sort(grid[interior])
        found = np.sort([c.location[0] for c in cands])
        assert oracle.shape[0] == 2
        assert_allclose(found, oracle, atol=1e-3)
        # basins split by sign of the start
        sign_label = asg.labels[data < 0]
        assert np.all(sign_label == sign_label[0])
        assert np.all(asg.labels[data > 0] != sign_label[0])

    def test_small_bandwidth_gives_many_candidates(self):
        rng = np.random.default_rng(3)
        m = DensityModel(rng.normal(0.0, 1.0, 200), 0.1)
        cands, _ = find_modes(m)
        assert len(cands) >= 5

    def test_candidates_sorted_by_density_and_separated(self):
        data = two_cluster_data(seed=5)
        m = DensityModel(data, 0.8)
        cands, _ = find_modes(m)
        dens = [c.density_value for c in cands]
        assert dens == sorted(dens, reverse=True)
        merge_tol = modes.MERGE_TOL * m.h
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                assert np.linalg.norm(cands[i].location - cands[j].location) >= merge_tol

    def test_gradient_small_at_every_candidate(self):
        data = two_cluster_data(seed=7)
        m = DensityModel(data, 1.0)
        cands, asg = find_modes(m)
        tol = asg.diagnostics["grad_tol"]
        for c, g in zip(cands, asg.diagnostics["grad_norms"]):
            assert g <= tol, f"gradient {g:.2e} above {tol:.2e} at {c.location}"

    def test_ascent_along_trajectories(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = DensityModel(rng.normal(size=(120, 2)), 0.45)
            _, asg = find_modes(m)
            assert asg.diagnostics["min_ascent_delta"] >= -1e-12

    def test_destination_stability(self):
        data = two_cluster_data(seed=11)
        m = DensityModel(data, 1.0)
        cands, _ = find_modes(m)
        locs = np.array([c.location for c in cands])
        again, _ = find_modes(m, mesh=locs)
        assert len(again) == len(cands)
        merge_tol = modes.MERGE_TOL * m.h
        for a, b in zip(again, cands):
            assert np.linalg.norm(a.location - b.location) < merge_tol

    def test_deterministic(self):
        data = two_cluster_data(seed=13)
        m = DensityModel(data, 0.9)
        c1, a1 = find_modes(m)
        c2, a2 = find_modes(m)
        assert np.array_equal(a1.labels, a2.labels)
        for x, y in zip(c1, c2):
            assert np.array_equal(x.location, y.location)
            assert (x.density_value, x.basin_size, x.iterations) == (y.density_value, y.basin_size, y.iterations)

    def test_unconverged_flagged_and_excluded_from_basins(self):
        data = two_cluster_data(seed=17)
        m = DensityModel(data, 1.0)
        # iteration cap chosen so only some trajectories finish: 33 of 200 at 3 sweeps
        cands, asg = find_modes(m, opts=MeanShiftOptions(max_iter=3))
        n_conv = int(np.sum(asg.converged))
        assert 0 < n_conv < data.shape[0]
        assert asg.diagnostics["n_unconverged"] == data.shape[0] - n_conv
        assert sum(c.basin_size for c in cands) == n_conv
        assert np.all(asg.labels >= 0)  # stray points still labeled

    def test_nothing_converges_yields_no_candidates(self):
        data = two_cluster_data(seed=17)
        # one step from each sample point: none is within step_tol of a mode
        cands, asg = find_modes(DensityModel(data, 1.0), opts=MeanShiftOptions(max_iter=1))
        assert len(cands) == 0
        assert not np.any(asg.converged)
        assert np.all(asg.labels == -1)
        diag = asg.diagnostics
        assert diag["n_unconverged"] == data.shape[0]
        assert diag["grad_norms"].shape == (0,)
        assert np.isnan(diag["grad_tol"])
        assert np.isfinite(diag["min_ascent_delta"])

    def test_far_starts_stay_unconverged_at_zero_density(self):
        # every kernel weight of a start 45 h or 1e6 h from every point is
        # exactly 0, so its mean-shift target is undefined: the trajectory
        # stops where it started, unconverged, and joins no basin
        rng = np.random.default_rng(29)
        data = rng.normal(size=(60, 2))
        m = DensityModel(data, 0.5)
        far = np.array([[data[:, 0].max() + 45.0 * m.h, 0.0], [data[:, 0].max() + 1e6 * m.h, 0.0]])
        density, target = m._mean_shift(far)
        assert np.array_equal(density, [0.0, 0.0]) and np.all(np.isnan(target))
        assert np.array_equal(m.density(far), [0.0, 0.0])
        cands, asg = find_modes(m, mesh=np.vstack([data, far]))
        assert not np.any(asg.converged[-2:])
        assert asg.diagnostics["n_unconverged"] == 2
        assert sum(c.basin_size for c in cands) == data.shape[0]

    def test_translation_does_not_move_modes(self):
        # the kernel exponent is expanded about the sample mean, so data far
        # from the origin lose no accuracy to cancellation
        rng = np.random.default_rng(23)
        data = np.concatenate([rng.normal(-2.0, 0.6, (300, 2)), rng.normal(2.0, 0.6, (300, 2))])
        shift = np.array([1e6, -1e6])  # h = 1
        near, far = DensityModel(data, 1.0), DensityModel(data + shift, 1.0)
        c0, _ = find_modes(near)
        c1, asg = find_modes(far)
        assert len(c1) == len(c0) == 2
        assert asg.diagnostics["n_unconverged"] == 0
        assert_allclose([c.density_value for c in c1], [c.density_value for c in c0], rtol=1e-9)
        assert_allclose(far.density(data + shift), near.density(data), rtol=1e-9)

    def test_every_label_references_a_candidate(self):
        rng = np.random.default_rng(19)
        m = DensityModel(rng.normal(size=(150, 2)), 0.3)
        cands, asg = find_modes(m)
        assert np.all((asg.labels >= 0) & (asg.labels < len(cands)))

    def test_chained_single_linkage_merge(self, monkeypatch):
        # every start is its own endpoint; 0-0.9-1.8-2.7 link only as a chain
        # (0 and 2.7 are 2.7 apart), so the merge must follow it transitively
        m = DensityModel(np.linspace(-1.0, 7.0, 50), 1.0)
        mesh = np.array([0.0, 0.9, 1.8, 2.7, 5.0])[:, None]
        monkeypatch.setattr(modes, "STEP_TOL", 1e9)  # h = 1: absolute step_tol 1e9
        monkeypatch.setattr(modes, "MERGE_TOL", 1.0)  # and merge_tol 1.0
        cands, asg = find_modes(m, mesh=mesh)
        assert len(cands) == 2
        assert [c.basin_size for c in cands] == [4, 1]
        assert asg.labels.tolist() == [0, 0, 0, 0, 1]

    def test_candidates_are_mean_shift_fixed_points(self):
        rng = np.random.default_rng(23)
        for h in (0.3, 0.7):
            m = DensityModel(rng.normal(size=(120, 2)), h)
            step_tol = modes.STEP_TOL * h
            cands, _ = find_modes(m)
            for c in cands:
                moved = np.linalg.norm(mean_shift_step(m, c.location) - c.location)
                assert moved <= step_tol + 1e-12 * (1.0 + np.linalg.norm(c.location))

    def test_singleton_merge_memory_bounded(self):
        # h far below the point spacing: every start is its own mode, so
        # deduplication compares 1500 endpoint groups in 10 dimensions
        X = np.random.default_rng(29).standard_normal((1500, 10))
        tracemalloc.start()
        try:
            cands, asg = find_modes(DensityModel(X, 0.05))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cands) == 1500 and asg.diagnostics["n_unconverged"] == 0
        assert peak < 64 * 2**20, f"find_modes peaked at {peak / 2**20:.0f} MB"

    def test_mesh_dimension_mismatch(self):
        m = DensityModel([[0.0, 0.0]], 1.0)
        with pytest.raises(ValueError):
            find_modes(m, mesh=[[0.0]])


class TestAcceleration:
    """find_modes' extrapolated climb against plain mean shift (oracles.plain_mean_shift)."""

    @staticmethod
    def two_clusters(d):
        # clusters far apart for their bandwidth: no start lies near a basin boundary,
        # where the two iterations can end at different modes
        if d == 1:
            rng = np.random.default_rng(31)
            return np.concatenate([rng.normal(-3.0, 1.0, 150), rng.normal(2.0, 0.7, 150)]), 0.6
        if d == 2:
            rng = np.random.default_rng(37)
            return np.concatenate([rng.normal([-2.0, 0.0], 0.8, (150, 2)),
                                   rng.normal([2.0, 1.0], 0.8, (150, 2))]), 0.6
        rng = np.random.default_rng(41)
        data = np.concatenate([rng.normal(-3.0, 1.0, (200, d)), rng.normal(3.0, 1.0, (200, d))])
        return data, 1.5

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_same_modes_as_plain_mean_shift(self, d):
        data, h = self.two_clusters(d)
        m = DensityModel(data, h)
        plain, plain_asg = plain_mean_shift(m)
        assert plain_asg.diagnostics["n_unconverged"] == 0
        cands, asg = find_modes(m)
        assert len(cands) == len(plain)
        assert [c.basin_size for c in cands] == [c.basin_size for c in plain]
        for c, p in zip(cands, plain):
            assert np.linalg.norm(c.location - p.location) <= 5 * modes.STEP_TOL * h
        assert asg.diagnostics["min_ascent_delta"] >= -1e-12
        assert asg.diagnostics["n_unconverged"] == 0

    def test_slow_basins_converge_to_maxima(self):
        # scan_2d's smallest bandwidth: plain mean shift leaves 8 trajectories
        # unconverged at 500 sweeps on this input
        X, grid = scan_2d_input(seed=0)
        m = DensityModel(X, grid[0])
        cands, asg = find_modes(m)
        assert asg.diagnostics["n_unconverged"] == 0
        assert asg.diagnostics["n_rejected"] > 0  # the safeguard acts on this input
        assert asg.diagnostics["min_ascent_delta"] >= -1e-12
        for c in cands:
            assert np.max(np.linalg.eigvalsh(m.hessian(c.location))) < 0.0, c.location

    def test_scan_takes_at_most_half_the_plain_work(self):
        # a count, not a time: the mean-shift rows evaluated over scan_2d's 30
        # bandwidths, against plain mean shift's on the same models
        X, grid = scan_2d_input(seed=0)
        fast = plain = 0
        for h in grid:
            m = RowCounting(X, h)
            find_modes(m)
            fast += m.rows
            m.rows = 0
            plain_mean_shift(m)
            plain += m.rows
        assert fast <= 0.5 * plain, (fast, plain)


class TestCapture:
    """A row that comes within CAPTURE_TOL * h of a converged endpoint stops there."""

    @staticmethod
    def cases():
        # inputs of the tests above, and three of scan_2d's bandwidths
        rng = np.random.default_rng(19)
        yield rng.normal(size=(150, 2)), 0.3
        for seed, h in [(0, 1.0), (5, 0.8), (13, 0.9), (17, 1.0)]:
            yield two_cluster_data(seed=seed), h
        for seed in range(3):
            yield np.random.default_rng(seed).normal(size=(120, 2)), 0.45
        for d in (1, 2, 10):
            yield TestAcceleration.two_clusters(d)
        X, grid = scan_2d_input(seed=0)
        for h in grid[::10]:
            yield X, h

    def test_no_row_evaluated_near_an_earlier_endpoint(self, monkeypatch):
        # the captured set keeps one endpoint per collapse key, and endpoints with one
        # key lie within sqrt(d) * pitch of each other: closer than CAPTURE_TOL * h less
        # that, no row is evaluated again once an endpoint has converged
        sweep, captured = modes._sweep, 0
        for data, h in self.cases():
            m = DensityModel(data, h)
            radius = (modes.CAPTURE_TOL - np.sqrt(m.d) * modes.COLLAPSE_PITCH) * h
            ends = [np.empty((0, m.d))]  # endpoints that converged in earlier sweeps

            def spy(model, rows, final, step_tol, current, *state):
                gap = np.linalg.norm(current[rows, None] - np.concatenate(ends), axis=2)
                assert np.all(gap >= radius), (h, np.min(gap) / model.h)
                finish, done, *rest = sweep(model, rows, final, step_tol, current, *state)
                ends.append(current[rows[done]].copy())  # a converged row does not move
                return finish, done, *rest

            monkeypatch.setattr(modes, "_sweep", spy)
            _, asg = find_modes(m)
            monkeypatch.setattr(modes, "_sweep", sweep)
            captured += asg.diagnostics["n_captured"]
        assert captured > 0

    def test_capture_keeps_modes_basins_and_labels(self, monkeypatch):
        for data, h in self.cases():
            m = DensityModel(data, h)
            cands, asg = find_modes(m)
            monkeypatch.setattr(modes, "CAPTURE_TOL", 0.0)
            plain, plain_asg = find_modes(m)
            monkeypatch.undo()
            assert plain_asg.diagnostics["n_captured"] == 0
            assert len(cands) == len(plain), h
            assert [c.basin_size for c in cands] == [c.basin_size for c in plain], h
            assert np.array_equal(asg.labels, plain_asg.labels), h
            assert np.array_equal(asg.converged, plain_asg.converged), h
            for c, p in zip(cands, plain):
                assert np.linalg.norm(c.location - p.location) <= 60 * modes.STEP_TOL * h


class TestPolish:
    """Each candidate is polished to the density's stationary point."""

    def test_location_does_not_depend_on_the_endpoint_kept(self, monkeypatch):
        # without capture and with 3-row kernel blocks, other rows are run and their
        # endpoints differ in the last bits, so clusters keep other endpoints; those
        # lie up to about STEP_TOL * h apart, and their polished candidates agree
        for data, h in TestCapture.cases():
            m = DensityModel(data, h)
            cands, asg = find_modes(m)
            monkeypatch.setattr(modes, "CAPTURE_TOL", 0.0)
            monkeypatch.setattr(kde, "_ROW_ENTRIES", 2 * 3 * m.n)
            other, other_asg = find_modes(m)
            monkeypatch.undo()
            assert asg.diagnostics["n_unpolished"] == other_asg.diagnostics["n_unpolished"] == 0
            assert len(cands) == len(other), h
            for c, o in zip(cands, other):
                assert np.linalg.norm(c.location - o.location) <= 1e-12 * h, h

    def test_candidates_are_stationary_points(self):
        # h ||grad p|| / p at each candidate, in np.longdouble from direct differences
        steps = 0
        for data, h in TestCapture.cases():
            m = DensityModel(data, h)
            cands, asg = find_modes(m)
            locations = np.array([c.location for c in cands])
            density, grad, _ = kde_reference(m.points, h, locations)
            rel = h * np.linalg.norm(grad.astype(np.float64), axis=1) / density.astype(np.float64)
            assert np.all(rel <= 1e-12), (h, np.max(rel))
            assert_allclose([c.density_value for c in cands], density.astype(np.float64),
                            rtol=1e-13)
            steps = max(steps, asg.diagnostics["polish_steps"])
        assert 0 < steps <= modes._POLISH_STEPS

    def test_degenerate_candidate_kept_at_its_endpoint(self):
        # two points 2 h apart: between them the density is flat to fourth order, and its
        # Hessian there is exactly 0, not negative definite; a start at the midpoint is a
        # mean-shift fixed point by symmetry
        m = DensityModel([-1.0, 1.0], 1.0)
        cands, asg = find_modes(m, mesh=[[0.0]])
        assert len(cands) == 1 and cands[0].location.tolist() == [0.0]
        assert asg.diagnostics["n_unpolished"] == 1
        assert asg.diagnostics["polish_steps"] == 0
        assert cands[0].density_value == m.density([0.0])

    def test_far_step_refused(self, monkeypatch):
        # a merge tolerance far below the first Newton step: every candidate stays at
        # its endpoint, where a run without any polish step leaves it too
        data, h = two_cluster_data(seed=5), 0.8
        monkeypatch.setattr(modes, "MERGE_TOL", 1e-9)
        cands, asg = find_modes(DensityModel(data, h))
        monkeypatch.setattr(modes, "_POLISH_STEPS", 0)
        ends, end_asg = find_modes(DensityModel(data, h))
        assert asg.diagnostics["n_unpolished"] == len(cands) > 0
        assert end_asg.diagnostics["n_unpolished"] == 0
        assert [c.location.tobytes() for c in cands] == [c.location.tobytes() for c in ends]
        assert [c.density_value for c in cands] == [c.density_value for c in ends]
