"""Thread invariance: reductions over the sample, the persistence grid built
from them and the cells each query keeps give the same bits at 1 and 2 BLAS
threads, and whole mode-test reports the same bytes at 1, 2 and 4.

Each product runs in a fresh interpreter with its thread variables pinned,
since BLAS reads them once at load.  The shapes are ones at which a BLAS
GEMM over the sample axis was seen to change with the thread count
(OpenBLAS 0.3.31 on 2 cores), including resample shapes that the
criterion-7 report never reaches, the blocks of kernel weights over a whole
5,000- or 500-point sample that the row budget `kde._ROW_ENTRIES` makes,
those that the 16x larger former weight budget made, which grid tiles keep
as `kde._BLOCK_ENTRIES`, and sums over 24,000 columns, past the width from
which OpenBLAS threads a dot product.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KERNELS = r"""
import hashlib, json
import numpy as np
from modesig.boot import _resample_counts
from modesig import bootstrap_band, default_axes
from modesig.kde import _BLOCK_ENTRIES, _ROW_ENTRIES, DensityModel, sample_sum
from modesig.persist import _exact_deviations

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

rng = np.random.default_rng(0)
out = {}
# w @ [X - c, 1]: mean-shift step and stage-2 gradient
for m, n, d in [(700, 1000, 2), (2048, 5000, 10), (_BLOCK_ENTRIES // 5000, 5000, 10), (64, 24000, 10)]:
    model = DensityModel(rng.standard_normal((n, d)), 1.0)
    w = model._exp_weights(rng.standard_normal((m, d)))
    out[f"weights_x_points_{m}x{n}x{d}"] = digest(sample_sum(w, model._aug[:d + 1]))
# counts @ terms: bootstrap Hessians at a fixed point, one exact product
for B, n, d in [(500, 500, 2), (500, 5000, 10), (500, 2000, 1), (100, 24000, 2)]:
    model = DensityModel(rng.standard_normal((n, d)), 1.0)
    counts = _resample_counts(n, B, 0)
    out[f"counts_x_terms_{B}x{n}x{d}"] = digest(model._hessians(counts, model._hessian_terms(np.zeros(d))))
# (counts - 1) @ rint(w * 2^F).T: one block of grid points of the persistence band
centers = np.array([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 3.5, 0.0]])
pts = centers[rng.integers(0, 3, 2000)] + 0.5 * rng.standard_normal((2000, 3))
for g in [4096, _BLOCK_ENTRIES // 2000]:
    model = DensityModel(pts, 0.8)
    real = model._aug[3] == 1.0  # the sample's columns; padding has 0 in the unit row
    w = model._exp_weights(rng.uniform(-4.0, 4.0, size=(g, 3)))[:, real]
    w *= 2.0 ** (53 - (2 * 2000 - 1).bit_length())
    dev = _exact_deviations(_resample_counts(2000, 200, 0) - 1.0, w)
    out[f"band_200x2000x{g}"] = digest(dev)
# the whole band over 32^3 points, whose tiles take sorted column ranges of the sample
band = bootstrap_band(pts[:600], 0.8, default_axes(pts[:600], 0.8, resolution=32), 0.1, 200, 0)
out["bootstrap_band_600x200x32768"] = band.hex()
# the cells each mean-shift row keeps, on two 10-d clusters 31.6 h apart in 16 cells
pts = rng.standard_normal((5000, 10))
pts[2500:] += 10.0
model = DensityModel(pts, 1.0)
out["kept_cells_5000x5000x10"] = digest(model._kept_cells(pts + 0.5 * rng.standard_normal(pts.shape)))
# one block of weights, half the row budget, over every padded column of _aug (5,056 for
# 5,000 10-d points in 16 cells, 504 for 500 2-d points in one), drawn after the keys above
# so that they keep their inputs
rng = np.random.default_rng(1)
for n, d in [(5000, 10), (500, 2)]:
    model = DensityModel(rng.standard_normal((n, d)), 1.0)
    m = _ROW_ENTRIES // (2 * model._aug.shape[1])
    w = model._exp_weights(rng.standard_normal((m, d)))
    out[f"weights_x_points_{m}x{model._aug.shape[1]}x{d}"] = digest(sample_sum(w, model._aug[:d + 1]))
print(json.dumps(out))
"""


# density_grid on 2-d samples at h = 0.5 over default_axes' 128^2 grid; each
# (seed, n) here once gave different bytes at 1 and 2 threads, when grid
# values came from a BLAS product over the coordinates
GRIDS = r"""
import hashlib, json
import numpy as np
from modesig import DensityModel, default_axes, density_grid

out = {}
for seed, n in [(0, 700), (1, 300), (2, 300), (3, 500), (3, 700)]:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2)) * [3.0, 1.0] + 4.0 * rng.integers(0, 3, (n, 1))
    values = density_grid(DensityModel(x, 0.5), default_axes(x, 0.5)).values
    out[f"density_grid_{seed}_{n}"] = hashlib.sha256(values.tobytes()).hexdigest()
print(json.dumps(out))
"""


# run_mode_test's report on two inputs whose bytes differed between 1 and 2
# threads while the kernel exponent's BLAS product took widths that are not
# multiples of 8: three unit-noise clusters about means drawn at scale 3
REPORTS = r"""
import dataclasses, hashlib, json
import numpy as np
from modesig import ModeTestConfig, build_document, dumps_json, run_mode_test

out = {}
for d, n, seed in [(10, 600, 1), (3, 1000, 0)]:
    rng = np.random.default_rng([d, n, seed])
    means = rng.normal(scale=3.0, size=(3, d))
    x = means[rng.integers(0, 3, n)] + rng.standard_normal((n, d))
    cfg = ModeTestConfig(h=1.0 if d == 10 else 0.8, B=100)
    text = dumps_json(build_document(dataclasses.asdict(cfg), run_mode_test(x, cfg)))
    out[f"report_{d}_{n}_{seed}"] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(out))
"""


def digests(script: str, threads: str) -> dict:
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def assert_thread_invariant(script: str, threads=("1", "2")):
    one, *others = [digests(script, t) for t in threads]
    for t, other in zip(threads[1:], others):
        assert one.keys() == other.keys()
        differ = sorted(k for k in one if one[k] != other[k])
        assert not differ, f"results that change from 1 to {t} threads: {differ}"


def test_sample_reductions_identical_at_1_and_2_threads():
    assert_thread_invariant(KERNELS)


def test_density_grid_identical_at_1_and_2_threads():
    assert_thread_invariant(GRIDS)


def test_mode_test_reports_identical_at_1_2_and_4_threads():
    assert_thread_invariant(REPORTS, ("1", "2", "4"))
