"""End-to-end mode significance testing on a data split."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modesig import (
    GeneratorSpec,
    MeanShiftOptions,
    ModeTestConfig,
    generate,
    mode_test_on_split,
    modes,
    run_mode_test,
    split,
)
from oracles import mode_test_reference


def trimodal(n, seed):
    return generate(GeneratorSpec(
        family="mixture",
        n=n,
        seed=seed,
        params={"means": [[-6.0], [0.0], [6.0]], "cov_diags": [[1.0], [1.0], [1.0]]},
    ))


class TestSplit:
    def test_sizes(self):
        X, Y = split(np.arange(10.0)[:, None], seed=0)
        assert X.shape == (5, 1) and Y.shape == (5, 1)
        X, Y = split(np.arange(1001.0)[:, None], seed=0)
        assert X.shape == (500, 1) and Y.shape == (501, 1)

    def test_two_points(self):
        X, Y = split(np.array([[1.0], [2.0]]), seed=3)
        assert X.shape == (1, 1) and Y.shape == (1, 1)
        assert {X[0, 0], Y[0, 0]} == {1.0, 2.0}

    def test_disjoint_cover(self):
        data = np.random.default_rng(5).normal(size=(101, 2))
        X, Y = split(data, seed=11)
        both = np.vstack([X, Y])
        # every original row appears exactly once across the halves
        order = np.lexsort(both.T)
        ref = np.lexsort(data.T)
        assert np.array_equal(both[order], data[ref])

    def test_deterministic_and_seed_sensitive(self):
        data = np.random.default_rng(6).normal(size=(40, 1))
        X1, _ = split(data, seed=7)
        X2, _ = split(data, seed=7)
        X3, _ = split(data, seed=8)
        assert np.array_equal(X1, X2)
        assert not np.array_equal(X1, X3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeTestConfig(h=0.0)
        with pytest.raises(ValueError):
            ModeTestConfig(h=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            ModeTestConfig(h=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            ModeTestConfig(h=1.0, B=0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            run_mode_test(np.zeros((3, 1)), ModeTestConfig(h=1.0))

    def test_subnormal_bandwidth_squared_rejected(self):
        # h^2 = 1e-320 is subnormal: the test once ran and returned k = 0
        data = np.random.default_rng(0).normal(size=(600, 2))
        with pytest.raises(ValueError, match="out of range"):
            run_mode_test(data, ModeTestConfig(h=1e-160, B=20))


class TestReportShape:
    def test_unimodal_single_significant(self):
        data = np.random.default_rng(0).normal(size=(200, 1))
        rep = run_mode_test(data, ModeTestConfig(h=1.0))
        assert rep.k == len(rep.candidates) == len(rep.portraits) == 1
        assert rep.significant_count == 1
        assert abs(rep.candidates[0].location[0]) < 0.3
        assert rep.portraits[0].c_interval[0] > 0

    def test_trimodal_three_significant(self):
        rep = run_mode_test(trimodal(900, 1), ModeTestConfig(h=1.5))
        assert rep.k == 3
        assert rep.significant_count == 3
        locs = np.sort(np.concatenate([c.location for c in rep.candidates]))
        assert_allclose(locs, [-6.0, 0.0, 6.0], atol=0.6)

    def test_portraits_carry_their_candidates(self):
        rep = run_mode_test(trimodal(600, 2), ModeTestConfig(h=1.5))
        for cand, port in zip(rep.candidates, rep.portraits):
            assert port.mode is cand
        assert rep.portraits[0].rectangles.shape == (1, 2)

    def test_bonferroni_level(self):
        rep = run_mode_test(trimodal(600, 3), ModeTestConfig(h=1.5, alpha=0.12))
        assert rep.k == 3
        for port in rep.portraits:
            assert port.level == pytest.approx(1.0 - 0.12 / 3)

    def test_stage2_gradient_diagnostics(self):
        rep = run_mode_test(trimodal(600, 4), ModeTestConfig(h=1.5))
        g = rep.stage2_gradient_norms
        assert g.shape == (rep.k,)
        assert np.all(np.isfinite(g)) and np.all(g >= 0)

    def test_overmoothed_no_candidate_survives(self, monkeypatch):
        # force stage 1 to stop before converging on anything
        data = np.random.default_rng(9).normal(size=(80, 1))
        monkeypatch.setattr(modes, "STEP_TOL", 1e-300)  # h = 1: absolute step_tol 1e-300
        opts = MeanShiftOptions(max_iter=3)
        rep = run_mode_test(data, ModeTestConfig(h=1.0, mean_shift=opts))
        assert rep.k == 0
        assert rep.significant_count == 0
        assert rep.portraits == ()
        assert rep.stage2_gradient_norms.shape == (0,)

    def test_no_candidate_on_multi_cell_halves(self):
        # halves of 550 points split into cells (kde._CELL_POINTS = 512), so the
        # stage-2 gradient at no location takes the cell path with an empty query
        data = np.random.default_rng(9).normal(size=(1100, 2))
        rep = run_mode_test(data, ModeTestConfig(h=0.5, B=20, mean_shift=MeanShiftOptions(max_iter=1)))
        assert rep.k == 0 and rep.portraits == ()
        assert rep.stage2_gradient_norms.shape == (0,)


def mixture_halves(d, seed):
    """Halves of a three-Gaussian mixture in d dimensions, 8 sd between neighbours."""
    centers = np.array([-8.0, 0.0, 8.0])[:, None] * np.ones(d) / np.sqrt(d)
    return split(generate(GeneratorSpec(
        family="mixture", n=400, seed=seed,
        params={"means": centers.tolist()},
    )), seed)


@pytest.mark.parametrize("max_iter", [500, 1], ids=["converged", "no_candidate"])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_matches_per_candidate_reference(d, max_iter):
    # max_iter=1 stops every trajectory before it can converge: k = 0
    X, Y = mixture_halves(d, seed=d)
    cfg = ModeTestConfig(h=1.0, B=100, boot_seed=3, mean_shift=MeanShiftOptions(max_iter=max_iter))
    rep, ref = mode_test_on_split(X, Y, cfg), mode_test_reference(X, Y, cfg)
    assert (rep.k, rep.significant_count) == (ref.k, ref.significant_count)
    assert (rep.k > 0) == (max_iter > 1)
    for ca, cb in zip(rep.candidates, ref.candidates, strict=True):
        assert ca.location.tobytes() == cb.location.tobytes()
        assert (ca.density_value, ca.basin_size, ca.iterations) == (
            cb.density_value, cb.basin_size, cb.iterations)
    for pa, pb, cand in zip(rep.portraits, ref.portraits, rep.candidates, strict=True):
        assert pa.mode is cand
        assert np.array_equal(pa.rectangles, pb.rectangles)
        assert np.array_equal(pa.c_interval, pb.c_interval)
        assert (pa.significant, pa.level) == (pb.significant, pb.level)
    assert rep.stage2_gradient_norms.shape == (rep.k,)
    assert_allclose(rep.stage2_gradient_norms, ref.stage2_gradient_norms, rtol=1e-12, atol=0)


class TestDeterminismAndInvariance:
    def test_same_config_same_report(self):
        data = trimodal(500, 5)
        cfg = ModeTestConfig(h=1.4, B=200)
        a = run_mode_test(data, cfg)
        b = run_mode_test(data, cfg)
        assert a.k == b.k
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca.location, cb.location)
        for pa, pb in zip(a.portraits, b.portraits):
            assert np.array_equal(pa.rectangles, pb.rectangles)

    def test_stage1_permutation_invariance(self):
        # shuffling the stage-1 half must not change the verdicts: candidates
        # are deduplicated and sorted by density, and stage 2 sees fixed points
        data = trimodal(500, 6)
        X, Y = split(data, seed=0)
        cfg = ModeTestConfig(h=1.4, B=150)
        base = mode_test_on_split(X, Y, cfg)
        perm = np.random.default_rng(1).permutation(X.shape[0])
        shuf = mode_test_on_split(X[perm], Y, cfg)
        assert base.k == shuf.k
        # endpoints agree only to the step tolerance: a reordered sum can
        # push a trajectory across the stopping threshold one step early
        for ca, cb in zip(base.candidates, shuf.candidates):
            assert_allclose(ca.location, cb.location, atol=1e-6)
        for pa, pb in zip(base.portraits, shuf.portraits):
            assert_allclose(pa.rectangles, pb.rectangles, rtol=0, atol=1e-5)
            assert pa.significant == pb.significant

    def test_split_seed_changes_halves(self):
        data = trimodal(400, 7)
        a = run_mode_test(data, ModeTestConfig(h=1.4, split_seed=0, B=100))
        b = run_mode_test(data, ModeTestConfig(h=1.4, split_seed=99, B=100))
        # same science, different randomization: k should agree here, numbers differ
        assert a.k == b.k == 3
        assert not np.array_equal(a.portraits[0].rectangles, b.portraits[0].rectangles)


def test_size_control_on_unimodal_data():
    # a unimodal sample should rarely yield a second significant mode
    spurious = 0
    cfg = ModeTestConfig(h=1.0, B=200)
    for seed in range(100):
        data = np.random.default_rng(seed).normal(size=(200, 1))
        rep = run_mode_test(data, dataclasses.replace(cfg, split_seed=seed, boot_seed=seed))
        extra = sum(
            1 for i, p in enumerate(rep.portraits) if i > 0 and p.significant
        )
        spurious += extra > 0
    assert spurious <= 15, f"spurious extra modes in {spurious}/100 runs"
