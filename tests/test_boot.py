"""Bootstrap draws, the ESP hypercube quantile, and eigenvalue rectangles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import (
    BootstrapDraws,
    boot,
    DensityModel,
    kde,
    EspConfidenceSet,
    bootstrap_hessian_batch,
    eigen_rectangles,
    esp_forward,
    esp_quantile,
    find_modes,
)
from modesig import test_significance as significance_verdict
from oracles import esp_inverse, sym_eigenvalues


def bootstrap_hessian(Y, h, point, B, seed):
    """The draws at a single point."""
    return bootstrap_hessian_batch(Y, h, [point], B, seed)[0]


def draws_with_distances(dist):
    """Craft draws whose ESP rows sit at given sup-distances from s_hat."""
    dist = np.asarray(dist, dtype=np.float64)
    B = dist.shape[0]
    s_star = np.zeros((B, 2))
    s_star[:, 0] = dist
    lam = np.stack([dist, -np.ones(B)], axis=1)
    return BootstrapDraws(
        lambda_star=lam,
        s_star=s_star,
        lambda_hat=np.array([0.0, -1.0]),
        s_hat=np.zeros(2),
    )


class TestDraws:
    def test_singleton_resample_equals_point_estimate(self):
        d = bootstrap_hessian(np.array([[0.4, -1.0]]), 1.0, np.array([0.0, 0.0]), B=1, seed=3)
        assert np.array_equal(d.lambda_star[0], d.lambda_hat)
        assert np.array_equal(d.s_star[0], d.s_hat)

    def test_same_seed_same_draws(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(60, 2))
        a = bootstrap_hessian(Y, 0.8, np.zeros(2), B=40, seed=9)
        b = bootstrap_hessian(Y, 0.8, np.zeros(2), B=40, seed=9)
        assert np.array_equal(a.lambda_star, b.lambda_star)
        assert np.array_equal(a.s_star, b.s_star)

    def test_batch_equals_individual_calls(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(50, 2))
        pts = [np.array([0.0, 0.0]), np.array([0.5, -0.5])]
        batch = bootstrap_hessian_batch(Y, 1.0, pts, B=25, seed=7)
        for p, got in zip(pts, batch):
            solo = bootstrap_hessian(Y, 1.0, p, B=25, seed=7)
            assert np.array_equal(got.lambda_star, solo.lambda_star)
            assert np.array_equal(got.s_star, solo.s_star)
            assert np.array_equal(got.lambda_hat, solo.lambda_hat)

    def test_rows_sorted_and_esp_consistent(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(80, 3))
        d = bootstrap_hessian(Y, 0.9, np.zeros(3), B=30, seed=5)
        assert np.all(np.diff(d.lambda_star, axis=1) <= 1e-12)
        for b in range(d.B):
            assert np.array_equal(d.s_star[b], esp_forward(d.lambda_star[b]))

    def test_point_estimate_matches_model_hessian(self):
        # one Hessian formula serves both, so the eigenvalues agree exactly
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3, 10):
            Y = rng.normal(size=(70, dim))
            at = rng.normal(scale=0.2, size=dim)
            d = bootstrap_hessian(Y, 1.1, at, B=2, seed=1)
            lam = sym_eigenvalues(DensityModel(Y, 1.1).hessian(at))
            assert np.array_equal(d.lambda_hat, lam), f"d={dim}"

    def test_bootstrap_sd_tracks_sampling_sd(self):
        # d=1: bootstrap spread of the Hessian at the sample mode vs. the
        # Monte Carlo spread of the estimate across fresh datasets
        rng = np.random.default_rng(31)
        Y = rng.normal(size=500)
        model = DensityModel(Y, 1.0)
        mode = find_modes(model)[0][0].location
        d = bootstrap_hessian(Y, 1.0, mode, B=1000, seed=2)
        boot_sd = np.std(d.lambda_star[:, 0], ddof=1)

        fresh = np.empty(200)
        for r in range(200):
            data = rng.normal(size=500)
            m = DensityModel(data, 1.0)
            own_mode = find_modes(m)[0][0].location
            fresh[r] = m.hessian(own_mode)[0, 0]
        mc_sd = np.std(fresh, ddof=1)
        assert 0.5 <= boot_sd / mc_sd <= 2.0, f"ratio {boot_sd / mc_sd:.2f}"

    def test_counts_compact_and_exact(self):
        counts = boot._resample_counts(300, 9, 3)
        assert counts.dtype == np.uint16 and np.all(counts.sum(axis=1) == 300)
        assert boot._resample_counts(65_535, 1, 0).dtype == np.uint16
        wide = boot._resample_counts(65_536, 1, 0)
        assert wide.dtype == np.uint32 and wide.sum() == 65_536

    def test_hessians_do_not_depend_on_count_blocks(self, monkeypatch):
        # the (B, n) counts are converted to float64 a block of rows at a time;
        # 2 rows per block here, against every row at once in float64
        Y = np.random.default_rng(4).normal(size=(300, 3))
        model, at = DensityModel(Y, 0.8), np.array([0.1, -0.2, 0.3])
        counts = boot._resample_counts(300, 9, 3)
        monkeypatch.setattr(kde, "_ROW_ENTRIES", 2 * 300 + 1)
        (draws,) = boot._boot([(model, at)], counts)
        whole = model._hessians(counts.astype(np.float64), model._hessian_terms(at))
        assert np.array_equal(draws.lambda_star, np.linalg.eigvalsh(whole)[:, ::-1])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_hessian(np.zeros((3, 1)), 1.0, np.zeros(1), B=0, seed=0)
        with pytest.raises(ValueError):
            bootstrap_hessian(np.zeros((3, 1)), -1.0, np.zeros(1), B=5, seed=0)
        with pytest.raises(ValueError):
            bootstrap_hessian(np.zeros((3, 1)), 1.0, np.zeros(2), B=5, seed=0)

    @pytest.mark.parametrize("B, points, message", [
        (0, [np.zeros(2)], "B must be"),
        (2.5, [np.zeros(2)], "B must be >= 1 and an integer, got 2.5"),
        (5, [np.zeros(2), np.zeros(3)], r"point 1 must be 2 finite coordinates, got \[0\. 0\. 0\.\]"),
        (5, [np.zeros(2), np.zeros(2), [0, np.nan]], r"point 2 must be .*, got \[ 0\. nan\]"),
    ], ids=["B", "B_float", "shape", "nan"])
    def test_inputs_checked_before_resampling(self, monkeypatch, B, points, message):
        def no_draw(*args):
            raise AssertionError("counts drawn before the inputs were checked")
        monkeypatch.setattr(boot, "_resample_counts", no_draw)
        Y = np.random.default_rng(2).normal(size=(20, 2))
        with pytest.raises(ValueError, match=message):
            bootstrap_hessian_batch(Y, 1.0, points, B=B, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_bad_seed_refused_before_resampling(self, monkeypatch, seed):
        def no_draw(*args):
            raise AssertionError("counts drawn before the seed was checked")
        monkeypatch.setattr(boot, "_resample_counts", no_draw)
        Y = np.random.default_rng(2).normal(size=(20, 2))
        with pytest.raises(ValueError, match=f"seed must be >= 0 and an integer, got {seed!r}"):
            bootstrap_hessian_batch(Y, 1.0, [np.zeros(2)], B=5, seed=seed)


class TestLiveColumns:
    """_boot contracts each group's split over the sample points where it is nonzero."""

    H = 0.5

    @classmethod
    def two_clusters(cls):
        # two 3-d clusters 60 h apart: a candidate's weights round to 0 over the other
        Y = cls.H * np.random.default_rng(21).normal(size=(400, 3))
        Y[200:, 0] += 60.0 * cls.H
        return Y

    @staticmethod
    def boot_against_whole(model, points, counts, inner=None):
        """_boot's draws at each point, against _hessians over every column."""
        for at, draws in zip(points, boot._boot([(model, at) for at in points], counts)):
            split = model._hessian_terms(at)
            if inner is not None:
                inner.append(np.count_nonzero(np.any(split[0], axis=0)))
            whole = model._hessians(counts.astype(np.float64), split)
            hat = model._hessians(np.ones((1, model.n)), split)
            assert draws.lambda_star.tobytes() == np.linalg.eigvalsh(whole)[:, ::-1].tobytes(), at
            assert draws.lambda_hat.tobytes() == np.linalg.eigvalsh(hat)[0, ::-1].tobytes(), at

    def test_two_clusters_contract_only_their_live_columns(self, monkeypatch):
        model = DensityModel(self.two_clusters(), self.H)
        counts = boot._resample_counts(model.n, 30, 6)
        points = [np.array([0.1, 0.0, -0.1]), np.array([60.0 * self.H, 0.1, 0.0])]
        # together, the two candidates' columns are all live, and the counts go whole
        self.boot_against_whole(model, points, counts)
        # one candidate per group: each product's inner dimension is its live count
        monkeypatch.setattr(boot, "_GROUP_BYTES", 1)
        inner, live = [], []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                inner.append(a.shape[1])
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(boot, "np", Spy())
        self.boot_against_whole(model, points, counts, live)
        assert 0 < max(live) <= 0.6 * model.n, live
        assert inner == live, (inner, live)  # one count block each

    def test_no_live_column_gives_zero_hessians(self):
        model = DensityModel(self.two_clusters(), self.H)
        far = np.array([30.0 * self.H, 40.0 * self.H, 0.0])  # at least 40 h from every point
        assert np.min(np.linalg.norm(model.points - far, axis=1)) >= 40.0 * self.H
        assert not np.any(model._hessian_terms(far)[0])
        counts = boot._resample_counts(model.n, 12, 2)
        self.boot_against_whole(model, [far], counts)
        (draws,) = boot._boot([(model, far)], counts)
        assert not np.any(draws.lambda_star) and not np.any(draws.lambda_hat)

    def test_gathered_count_blocks_of_two_rows(self, monkeypatch):
        monkeypatch.setattr(boot, "_GROUP_BYTES", 1)
        monkeypatch.setattr(kde, "_ROW_ENTRIES", 2 * 400 + 1)
        model = DensityModel(self.two_clusters(), self.H)
        points = [np.array([0.2, -0.1, 0.0]), np.array([60.0 * self.H - 0.2, 0.0, 0.1])]
        self.boot_against_whole(model, points, boot._resample_counts(model.n, 9, 4))


class TestQuantile:
    def test_all_draws_at_center_give_zero(self):
        q = esp_quantile(draws_with_distances(np.zeros(50)), 0.1)
        assert q.q == 0.0

    def test_95th_order_statistic(self):
        dist = np.arange(1.0, 101.0)
        np.random.default_rng(0).shuffle(dist)
        cs = esp_quantile(draws_with_distances(dist), 0.05)
        assert cs.q == 95.0
        assert cs.level == 0.95

    def test_endpoints(self):
        dist = np.arange(1.0, 101.0)
        assert esp_quantile(draws_with_distances(dist), 1.0 - 1e-9).q == 1.0
        assert esp_quantile(draws_with_distances(dist), 1e-9).q == 100.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(8)
        dist = rng.exponential(size=37)
        qs = [esp_quantile(draws_with_distances(dist), a).q for a in [0.01, 0.05, 0.1, 0.3, 0.8]]
        assert all(x >= y for x, y in zip(qs, qs[1:]))

    def test_defining_fraction_bound(self):
        # q is smallest with fraction strictly above q at most alpha
        rng = np.random.default_rng(9)
        dist = rng.normal(size=83) ** 2
        for a in [0.02, 0.1, 0.25]:
            q = esp_quantile(draws_with_distances(dist), a).q
            assert np.mean(dist > q) <= a
            smaller = dist[dist < q]
            if smaller.size:
                assert np.mean(dist > smaller.max()) > a

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            esp_quantile(draws_with_distances(np.ones(5)), 0.0)
        with pytest.raises(ValueError):
            esp_quantile(draws_with_distances(np.ones(5)), 1.0)


class TestRectangles:
    def test_interval_is_minmax_of_negated_top_eigenvalue(self):
        rng = np.random.default_rng(10)
        lam1 = rng.uniform(-0.5, -0.2, size=40)
        draws = BootstrapDraws(
            lambda_star=np.stack([lam1, lam1 - 1.0], axis=1),
            s_star=np.zeros((40, 2)),  # all rows inside any hypercube
            lambda_hat=np.array([-0.3, -1.3]),
            s_hat=np.zeros(2),
        )
        cs = EspConfidenceSet(center=np.zeros(2), q=0.0, level=0.9)
        p = eigen_rectangles(draws, cs)
        assert_allclose(p.c_interval, [-lam1.max(), -lam1.min()], rtol=1e-15)
        assert_allclose(p.c_interval, [0.2, 0.5], atol=0.05)
        assert p.significant

    def test_single_draw_degenerate_interval(self):
        rng = np.random.default_rng(11)
        Y = rng.normal(size=(30, 2))
        d = bootstrap_hessian(Y, 1.0, np.zeros(2), B=1, seed=0)
        p = eigen_rectangles(d, esp_quantile(d, 0.5))
        assert p.c_interval[0] == p.c_interval[1] == -d.lambda_star[0, 0]

    def test_c_equals_first_rectangle_and_shared_retained_set(self):
        rng = np.random.default_rng(12)
        Y = rng.normal(size=(90, 3))
        d = bootstrap_hessian(Y, 0.9, np.zeros(3), B=200, seed=4)
        cs = esp_quantile(d, 0.08)
        p = eigen_rectangles(d, cs)
        assert np.array_equal(p.c_interval, p.rectangles[0])
        J = np.max(np.abs(d.s_star - d.s_hat[None, :]), axis=1) <= cs.q
        gamma = -d.lambda_star[J]
        assert_allclose(p.rectangles[:, 0], gamma.min(axis=0), rtol=0, atol=0)
        assert_allclose(p.rectangles[:, 1], gamma.max(axis=0), rtol=0, atol=0)

    def test_retained_rows_roundtrip_and_lie_in_interval(self):
        rng = np.random.default_rng(13)
        Y = rng.normal(size=(70, 2))
        d = bootstrap_hessian(Y, 1.0, np.array([0.2, -0.1]), B=100, seed=6)
        cs = esp_quantile(d, 0.1)
        p = eigen_rectangles(d, cs)
        J = np.flatnonzero(np.max(np.abs(d.s_star - d.s_hat[None, :]), axis=1) <= cs.q)
        assert J.size >= 1
        for b in J:
            back = esp_inverse(d.s_star[b])
            assert_allclose(back, d.lambda_star[b], atol=1e-8 * (1 + np.max(np.abs(back))))
            assert p.c_interval[0] - 1e-12 <= -d.lambda_star[b, 0] <= p.c_interval[1] + 1e-12


class TestSignificance:
    def test_strictly_positive_interval(self):
        assert significance_verdict([0.2, 0.5]) is True

    def test_interval_straddling_zero(self):
        assert significance_verdict([-0.1, 0.4]) is False

    def test_zero_boundary_is_not_significant(self):
        assert significance_verdict([0.0, 0.3]) is False


def test_rectangle_coverage_at_true_smoothed_mode():
    # data ~ N(0, diag(1, 4)) smoothed with h=1 is N(0, diag(2, 5)); at its
    # mode (the origin) the Hessian is -p(0) diag(1/2, 1/5), so the true
    # curvatures are p(0)/5 < p(0)/2 with p(0) = 1/(2 pi sqrt(10)).  The
    # rectangles should cover both in at least 85 of 100 repetitions at the
    # 90% level.  (Equal eigenvalues converge much more slowly and are
    # exercised qualitatively elsewhere.)
    p0 = 1.0 / (2.0 * np.pi * np.sqrt(10.0))
    gamma_true = np.array([p0 / 5.0, p0 / 2.0])  # ascending, matching rows
    n, B = 400, 500
    hits = 0
    for seed in range(100):
        data = np.random.default_rng(seed).normal(size=(n, 2)) * np.array([1.0, 2.0])
        d = bootstrap_hessian(data, 1.0, np.zeros(2), B=B, seed=seed + 10_000)
        p = eigen_rectangles(d, esp_quantile(d, 0.10))
        inside = all(
            p.rectangles[s, 0] <= gamma_true[s] <= p.rectangles[s, 1] for s in range(2)
        )
        hits += inside
    assert hits >= 85, f"covered in only {hits}/100 repetitions"
