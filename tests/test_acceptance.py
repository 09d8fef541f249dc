"""End-to-end acceptance runs: one test per shipped guarantee.

Each test prints a one-line summary of the measured statistic next to its
threshold, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from modesig import (
    DensityModel,
    GeneratorSpec,
    ModeTestConfig,
    PersistenceDiagram,
    bootstrap_band,
    default_axes,
    density_grid,
    find_modes,
    generate,
    run_mode_test,
    scan,
    significant_pairs,
    superlevel_persistence,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def standard_normal(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 1))


def three_gaussians(n, seed):
    return generate(GeneratorSpec(
        family="mixture", n=n, seed=seed,
        params={"means": [[-6.0], [0.0], [6.0]]},
    ))


def test_criterion_1_unimodal_one_significant_mode():
    t0 = time.time()
    hits = 0
    for seed in range(100):
        rep = run_mode_test(
            standard_normal(200, seed),
            ModeTestConfig(h=1.0, alpha=0.10, B=500, split_seed=seed, boot_seed=seed),
        )
        hits += (rep.k == 1 and rep.significant_count == 1)
    elapsed = time.time() - t0
    print(f"[1] unimodal: 1 candidate + 1 significant in {hits}/100 seeds "
          f"(need >= 90), {elapsed:.1f}s (budget 10s)")
    assert hits >= 90
    assert elapsed < 10.0


def test_criterion_2_undersmoothed_modes_all_insignificant():
    ks = []
    zero_sig = 0
    for seed in range(100):
        rep = run_mode_test(
            standard_normal(200, seed),
            ModeTestConfig(h=0.1, alpha=0.10, B=500, split_seed=seed, boot_seed=seed),
        )
        ks.append(rep.k)
        zero_sig += (rep.significant_count == 0)
    mean_k = float(np.mean(ks))
    print(f"[2] h=0.1: mean candidates {mean_k:.1f} (need >= 5), "
          f"zero significant in {zero_sig}/100 seeds (need >= 90)")
    assert mean_k >= 5.0
    assert zero_sig >= 90


def test_criterion_3_three_gaussian_mixture():
    hits = 0
    for seed in range(100):
        rep = run_mode_test(
            three_gaussians(200, seed),
            ModeTestConfig(h=1.5, alpha=0.10, B=500, split_seed=seed, boot_seed=seed),
        )
        hits += (rep.significant_count == 3)
    print(f"[3] three-Gaussian mixture: exactly 3 significant in {hits}/100 seeds "
          f"(need >= 80)")
    assert hits >= 80


def test_criterion_4_ten_dimensional_two_modes():
    t0 = time.time()
    data = generate(GeneratorSpec(
        family="mixture", n=10_000, seed=0,
        params={
            "means": [[-5.0] * 10, [5.0] * 10],
            "cov_diags": [[1.0] * 10, [1.0] * 5 + [0.01] * 5],
        },
    ))
    rep = run_mode_test(data, ModeTestConfig(h=1.0, alpha=0.05, B=500,
                                             split_seed=0, boot_seed=0))
    elapsed = time.time() - t0

    mu = np.full(10, 5.0)
    n_true_sig = 0
    n_extra_sig = 0
    separation = None
    for cand, port in zip(rep.candidates, rep.portraits):
        at_plus = np.linalg.norm(cand.location - mu) < 1.0
        at_minus = np.linalg.norm(cand.location + mu) < 1.0
        if at_plus or at_minus:
            n_true_sig += port.significant
        else:
            n_extra_sig += port.significant
        if at_plus:  # the anisotropic mode
            r = port.rectangles
            separation = float(r[5:, 0].min() - r[:5, 1].max())
    print(f"[4] 10-d: {rep.k} candidates, both true modes significant "
          f"({n_true_sig}/2), {n_extra_sig} extra significant (need 0), "
          f"gamma-group gap {separation:.2e} (need > 0), {elapsed:.0f}s (budget 300s)")
    assert n_true_sig == 2
    assert n_extra_sig == 0
    assert separation is not None and separation > 0.0
    assert elapsed < 300.0


def test_criterion_5_bandwidth_selection():
    three_mix = 0
    for seed in range(10):
        res = scan(
            three_gaussians(200, seed),
            cfg=ModeTestConfig(h=1.0, alpha=0.10, B=500, split_seed=seed, boot_seed=seed),
        )
        three_mix += (res.m == 3)

    singular = 0
    for seed in range(10):
        data = generate(GeneratorSpec(
            family="singular-mixture", n=180, seed=seed,
            params={"mu": 10.0, "sigma": 1.0},
        ))
        res = scan(data, cfg=ModeTestConfig(h=1.0, alpha=0.10, B=500,
                                            split_seed=seed, boot_seed=seed))
        cands, _ = find_modes(DensityModel(data, res.h_hat))
        singular += (len(cands) == 3)

    print(f"[5] bandwidth: N(h_hat)=3 on the mixture in {three_mix}/10 seeds, "
          f"3 modes at h_hat on the singular mixture in {singular}/10 seeds "
          f"(need >= 8 each)")
    assert three_mix >= 8
    assert singular >= 8


def test_criterion_6_ring_with_three_blobs():
    centers = np.array([[-3.0, -3.0], [3.0, -3.0], [0.0, 3.5]])
    h = 0.8

    def near_distinct_blobs(locs):
        if len(locs) != 3:
            return False
        used = set()
        for loc in locs:
            d = np.linalg.norm(centers - loc, axis=1)
            j = int(np.argmin(d))
            if d[j] > 1.0 or j in used:
                return False
            used.add(j)
        return True

    both_ok = 0
    for seed in range(10):
        blobs = generate(GeneratorSpec(
            family="mixture", n=210, seed=seed,
            params={"means": centers.tolist(), "cov_diags": [[0.25, 0.25]] * 3},
        ))
        ring = generate(GeneratorSpec(
            family="ring", n=150, seed=seed + 1000,
            params={"radius": 6.0, "noise": 0.25},
        ))
        data = np.vstack([blobs, ring])

        rep = run_mode_test(data, ModeTestConfig(h=h, alpha=0.10, B=500,
                                                 split_seed=seed, boot_seed=seed))
        sig_locs = [p.mode.location for p in rep.portraits if p.significant]
        local_ok = rep.significant_count == 3 and near_distinct_blobs(sig_locs)

        axes = default_axes(data, h, resolution=80)
        pairs = superlevel_persistence(density_grid(DensityModel(data, h), axes))
        band = bootstrap_band(data, h, axes, alpha=0.10, B=500, seed=seed)
        kept = significant_pairs(PersistenceDiagram(pairs=pairs, band=band))
        persist_ok = kept.shape[0] == 3

        both_ok += (local_ok and persist_ok)
    print(f"[6] ring + blobs: both tests keep exactly the 3 blobs in "
          f"{both_ok}/10 seeds (need >= 8)")
    assert both_ok >= 8


def test_criterion_7_property_suite_and_thread_determinism(tmp_path):
    property_files = [
        "tests/test_esp.py",      # ESP roundtrip, 1000 matrices
        "tests/test_kde.py",      # derivatives vs finite differences
        "tests/test_persist.py",  # 200-grid exact persistence oracle
        "tests/test_modes.py",    # ascent monotonicity per trajectory
        "tests/test_boot.py",     # quantile order-statistic examples
    ]
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *property_files],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2000, "seed": 0,
        "means": [[-6.0, 0.0], [0.0, 0.0], [6.0, 3.0]],
    }))
    digests = []
    for threads in ["1", "2", "4"]:
        out = tmp_path / f"t{threads}"
        env = dict(
            os.environ,
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "modesig.cli", "test",
             "--family", "mixture", "--spec", str(spec),
             "--h", "1.0", "--B", "300", "--out", str(out), "--no-plots"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append((out / "report.json").read_bytes())
    identical = digests[0] == digests[1] == digests[2]
    print(f"[7] property suite green in {elapsed:.0f}s (budget 60s); "
          f"report bytes identical across 1/2/4 threads: {identical}")
    assert elapsed < 60.0
    assert identical


def test_criterion_8_scaling_with_sample_size():
    # Monte Carlo sd of the Hessian estimate at a fixed point: n vs 16n
    reps = 200
    sds = []
    for n in (400, 6400):
        vals = np.empty(reps)
        for r in range(reps):
            data = np.random.default_rng(1000 + r + 7 * n).normal(size=(n, 1))
            vals[r] = DensityModel(data, 1.0).hessian([0.0])[0, 0]
        sds.append(np.std(vals, ddof=1))
    ratio = sds[0] / sds[1]

    # median confidence-interval width for the top curvature: n=400 vs n=3200
    def widths(n):
        out = []
        for seed in range(50):
            rep = run_mode_test(
                standard_normal(n, seed),
                ModeTestConfig(h=1.0, alpha=0.10, B=500, split_seed=seed, boot_seed=seed),
            )
            assert rep.k >= 1
            c = rep.portraits[0].c_interval
            out.append(float(c[1] - c[0]))
        return float(np.median(out))

    w400 = widths(400)
    w3200 = widths(3200)
    shrink = w3200 / w400
    print(f"[8] scaling: Hessian sd ratio (n vs 16n) {ratio:.2f} (need 3..5); "
          f"median interval width {w400:.4f} -> {w3200:.4f}, "
          f"ratio {shrink:.2f} (need < 0.6)")
    assert 3.0 <= ratio <= 5.0
    assert shrink < 0.6
