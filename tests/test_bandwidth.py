"""Bandwidth scans: grid construction, the argmax rule, scan invariants."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import (
    DensityModel,
    GeneratorSpec,
    ModeTestConfig,
    boot,
    default_grid,
    find_modes,
    generate,
    mode_test_on_split,
    modetest,
    run_mode_test,
    scan,
    select_bandwidth,
    split,
)


def three_blobs(n, seed):
    """A 2-d mixture whose scan below gives 32, 7, 3 and 3 candidates."""
    return generate(GeneratorSpec(family="mixture", n=n, seed=seed,
                                  params={"means": [[-6.0, 0.0], [0.0, 0.0], [6.0, 3.0]]}))


def bimodal(n, seed):
    return generate(GeneratorSpec(
        family="mixture", n=n, seed=seed,
        params={"means": [[-4.0], [4.0]], "cov_diags": [[1.0], [1.0]]},
    ))


class TestDefaultGrid:
    def test_count_and_span(self):
        data = np.random.default_rng(0).normal(size=(50, 2)) * np.array([1.0, 3.0])
        g = default_grid(data, count=30)
        sd = data.std(axis=0, ddof=1).max()
        assert g.shape == (30,)
        assert_allclose(g[0], 0.05 * sd, rtol=1e-12)
        assert_allclose(g[-1], 2.0 * sd, rtol=1e-12)

    def test_geometric_spacing(self):
        g = default_grid(np.random.default_rng(1).normal(size=(30, 1)), count=12)
        ratios = g[1:] / g[:-1]
        assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_bad_parameters(self):
        data = np.zeros((5, 1)) + np.arange(5)[:, None]
        with pytest.raises(ValueError):
            default_grid(data, count=1)


class TestSelectBandwidth:
    def test_smallest_argmax_wins(self):
        grid = np.array([0.1, 0.2, 0.3, 0.4])
        h, m = select_bandwidth(grid, np.array([1, 3, 2, 3]))
        assert (h, m) == (0.2, 3)

    def test_unique_max(self):
        h, m = select_bandwidth(np.array([0.5, 1.0]), np.array([0, 4]))
        assert (h, m) == (1.0, 4)

    def test_all_zero_counts(self):
        h, m = select_bandwidth(np.array([0.5, 1.0]), np.array([0, 0]))
        assert (h, m) == (0.5, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_bandwidth(np.array([0.5]), np.array([1, 2]))


class TestScan:
    def test_invariants_on_bimodal_data(self):
        data = bimodal(400, seed=2)
        res = scan(data, cfg=ModeTestConfig(h=1.0, B=150))
        g = res.grid
        assert np.all(np.diff(g) > 0)
        assert res.h_hat in g
        i = int(np.flatnonzero(g == res.h_hat)[0])
        assert res.m == res.significant_counts[i] == res.significant_counts.max()
        assert np.all(res.significant_counts <= res.candidate_counts)
        assert len(res.reports) == g.shape[0]
        for h, rep, k, nsig in zip(g, res.reports, res.candidate_counts, res.significant_counts):
            assert rep.k == k
            assert rep.significant_count == nsig

    def test_single_point_grid(self):
        data = bimodal(300, seed=3)
        res = scan(data, grid=np.array([1.0]), cfg=ModeTestConfig(h=1.0, B=100))
        direct = run_mode_test(data, ModeTestConfig(h=1.0, B=100))
        assert res.h_hat == 1.0
        assert res.m == direct.significant_count
        assert res.reports[0].k == direct.k

    def test_unsorted_grid_is_sorted(self):
        data = bimodal(300, seed=4)
        res = scan(data, grid=np.array([1.5, 0.7, 1.0]), cfg=ModeTestConfig(h=1.0, B=60))
        assert np.array_equal(res.grid, [0.7, 1.0, 1.5])

    def test_deterministic(self):
        data = bimodal(300, seed=5)
        cfg = ModeTestConfig(h=1.0, B=100)
        a = scan(data, grid=np.array([0.6, 1.0, 1.6]), cfg=cfg)
        b = scan(data, grid=np.array([0.6, 1.0, 1.6]), cfg=cfg)
        assert a.h_hat == b.h_hat
        assert np.array_equal(a.significant_counts, b.significant_counts)
        for ra, rb in zip(a.reports, b.reports):
            for pa, pb in zip(ra.portraits, rb.portraits):
                assert np.array_equal(pa.rectangles, pb.rectangles)

    def test_counts_drawn_once_and_shared_by_every_h(self, monkeypatch):
        draws, resample = [], boot._resample_counts
        monkeypatch.setattr(boot, "_resample_counts", lambda *a: draws.append(a) or resample(*a))
        data = bimodal(200, seed=7)
        cfg = ModeTestConfig(h=1.0, B=80, split_seed=3, boot_seed=4)
        grid = np.array([0.3, 0.6, 1.0, 1.6])
        res = scan(data, grid=grid, cfg=cfg)
        assert len(draws) == 1
        # each report is the single-bandwidth test on the same split, bit for bit
        X, Y = split(data, cfg.split_seed)
        for h, rep in zip(grid, res.reports):
            ref = mode_test_on_split(X, Y, replace(cfg, h=h))
            assert rep.k == ref.k
            for a, b in zip(rep.candidates, ref.candidates):
                assert a.location.tobytes() == b.location.tobytes()
                assert (a.density_value, a.basin_size, a.iterations) == \
                    (b.density_value, b.basin_size, b.iterations)
            for a, b in zip(rep.portraits, ref.portraits):
                assert a.rectangles.tobytes() == b.rectangles.tobytes()
                assert a.c_interval.tobytes() == b.c_interval.tobytes()
                assert a.significant == b.significant
            assert rep.stage2_gradient_norms.tobytes() == ref.stage2_gradient_norms.tobytes()

    def test_invalid_grid(self):
        data = bimodal(100, seed=6)
        with pytest.raises(ValueError):
            scan(data, grid=np.array([0.5, -1.0]), cfg=ModeTestConfig(h=1.0))
        with pytest.raises(ValueError):
            scan(data, grid=np.zeros(0), cfg=ModeTestConfig(h=1.0))
        # a 2-d grid once failed inside stage 1 with a TypeError
        with pytest.raises(ValueError, match="1-d"):
            scan(data, grid=np.array([[0.5, 1.0], [1.5, 2.0]]), cfg=ModeTestConfig(h=1.0))

    def test_non_integer_B_rejected_before_stage_1(self, monkeypatch):
        # a float B once passed the config check and failed only in the count draw,
        # after stage 1 had run at every bandwidth
        def no_stage_1(*args, **kwargs):
            raise AssertionError("find_modes ran before B was checked")
        monkeypatch.setattr(modetest, "find_modes", no_stage_1)
        with pytest.raises(ValueError, match="B must be >= 1 and an integer, got 2.5"):
            scan(bimodal(100, seed=6), grid=np.array([0.5, 1.0]), cfg=ModeTestConfig(h=1.0, B=2.5))


class TestStackedStage2:
    """Stage 2 stacks consecutive candidates, across bandwidths, into one exact product."""

    @staticmethod
    def run(monkeypatch, per_group, data, grid, cfg):
        """scan's result and the bytes of every draw's lambda_star and lambda_hat, with
        per_group candidates per product."""
        _, Y = split(data, cfg.split_seed)
        width = Y.shape[1] * (Y.shape[1] + 1)  # 2K slice rows per candidate
        monkeypatch.setattr(boot, "_GROUP_BYTES", per_group * 8 * width * Y.shape[0])
        seen, stacked = [], boot._boot

        def spy(pairs, counts):
            for draw in stacked(pairs, counts):
                seen.append((draw.lambda_star.tobytes(), draw.lambda_hat.tobytes()))
                yield draw

        monkeypatch.setattr(boot, "_boot", spy)
        res = scan(data, grid=grid, cfg=cfg)
        monkeypatch.undo()
        return res, seen

    def test_groups_give_the_same_bytes(self, monkeypatch):
        data, grid = three_blobs(300, seed=1), np.array([0.3, 0.5, 0.8, 1.3])
        cfg = ModeTestConfig(h=1.0, B=60)
        ref, ref_draws = self.run(monkeypatch, 1, data, grid, cfg)
        assert ref.candidate_counts.tolist() == [32, 7, 3, 3]  # groups of 2, 3 and 5 cross h
        assert len(ref_draws) == 45
        for per_group in (2, 3, 5, 45):
            res, draws = self.run(monkeypatch, per_group, data, grid, cfg)
            assert draws == ref_draws, per_group
            assert np.array_equal(res.candidate_counts, ref.candidate_counts)
            for rep, want in zip(res.reports, ref.reports):
                for a, b in zip(rep.portraits, want.portraits, strict=True):
                    assert a.rectangles.tobytes() == b.rectangles.tobytes(), per_group

    def test_stage_2_memory_bounded(self, monkeypatch):
        # 163 candidates over 8 bandwidths, whose draws alone take 5.2 MB; stage 2 holds
        # the uint16 counts, one float64 block of them and one group of candidates at a
        # time: its slices, and per replicate and candidate its 6 sums, 4 Hessian
        # entries, 2 eigenvalues and 2 ESPs, fewer than 16 floats
        data, grid = three_blobs(600, seed=1), np.geomspace(0.2, 1.5, 8)
        cfg = ModeTestConfig(h=1.0, B=1000)
        X, Y = split(data, cfg.split_seed)
        found = [find_modes(DensityModel(X, h)) for h in grid]
        assert sum(len(c) for c, _ in found) == 163
        stage_1 = iter(found)
        monkeypatch.setattr(modetest, "find_modes", lambda *args, **kwargs: next(stage_1))
        tracemalloc.start()
        try:
            modetest._mode_tests(X, Y, cfg, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, B = Y.shape[0], cfg.B
        per_group = boot._GROUP_BYTES // (8 * 6 * n)
        bound = 10 * B * n + boot._GROUP_BYTES + 8 * 16 * (B + 1) * per_group + 2**20
        assert peak < bound, f"stage 2 peaked at {peak / 2**20:.2f} MB, over {bound / 2**20:.2f} MB"


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_default_grid_count_must_be_an_integer(count):
    # 2.5 and 3.0 once failed inside numpy with a TypeError
    with pytest.raises(ValueError, match=f"count must be >= 2 and an integer, got {count!r}"):
        default_grid(bimodal(20, seed=0), count=count)
    assert default_grid(bimodal(20, seed=0), count=np.int64(3)).size == 3


def test_two_mode_data_selects_a_two_mode_bandwidth():
    # across seeds the curve should peak at N = 2, with the undersmoothed
    # left end full of uncertifiable candidates and the oversmoothed right
    # end melted down to a single candidate
    good = 0
    for seed in range(10):
        data = bimodal(400, seed=100 + seed)
        res = scan(
            data,
            grid=np.geomspace(0.15, 5.0, 12),
            cfg=ModeTestConfig(h=1.0, B=150, split_seed=seed, boot_seed=seed),
        )
        ok = (
            res.m == 2
            and res.candidate_counts[-1] == 1
            and res.significant_counts[0] == 0
            and res.candidate_counts[0] > 2
        )
        good += ok
    assert good >= 8, f"sensible curve in only {good}/10 seeds"
