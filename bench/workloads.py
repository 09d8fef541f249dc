"""The benchmark's three workloads.

Each workload draws its inputs with `modesig.generate` from seeds offset by
the benchmark seed (the library receives only the arrays), runs its
operations through the public API, checks every result for well-formed
output and against the known truth of the generated input, and can replay
the same operations stage by stage under a `Tracer`, calling the public
function of each module in turn.

`size="smoke"` shrinks every workload so that the benchmark's own check
runs in seconds; the timed figures come from `size="full"`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

import modesig as ms
from tracing import CountingModel, Tracer


@dataclass
class Outcome:
    """One attempted operation."""

    failed: bool  # raised, or returned malformed output
    correct: bool  # well formed and matching the truth of the input
    signature: tuple | None  # exact fingerprint the traced replay must reproduce
    error: str = ""


def attempt(op, check) -> Outcome:
    """Run op(), then check its result; an exception is recorded, not raised."""
    try:
        result = op()
    except Exception as exc:  # any failure of the library counts toward failed
        return Outcome(True, False, None, f"{type(exc).__name__}: {exc}")
    try:
        well_formed, correct, signature = check(result)
    except Exception as exc:  # a result the checks cannot even read is malformed
        return Outcome(True, False, None, f"malformed output: {exc}")
    return Outcome(not well_formed, well_formed and correct, signature,
                   "" if well_formed else "malformed output")


# --- run_mode_test results -------------------------------------------------

def mode_signature(candidates, portraits) -> tuple:
    return (
        len(candidates),
        sum(bool(p.significant) for p in portraits),
        b"".join(c.location.tobytes() for c in candidates),
        b"".join(p.rectangles.tobytes() for p in portraits),
    )


def mode_report_ok(rep, d: int) -> bool:
    """k matches the candidates and portraits, and every number is finite."""
    if not (rep.k == len(rep.candidates) == len(rep.portraits)):
        return False
    if rep.significant_count != sum(bool(p.significant) for p in rep.portraits):
        return False
    for cand, port in zip(rep.candidates, rep.portraits):
        r = np.asarray(port.rectangles)
        if (np.shape(cand.location) != (d,) or not np.all(np.isfinite(cand.location))
                or r.shape != (d, 2) or not np.all(np.isfinite(r))
                or not np.all(r[:, 0] <= r[:, 1])
                or not np.array_equal(port.c_interval, r[0])):
            return False
    return True


def replay_mode_test(X, Y, cfg: ms.ModeTestConfig, tr: Tracer) -> tuple:
    """`mode_test_on_split`, one public call per stage, under spans and counts."""
    with tr.span("modes.find_modes"):
        model = CountingModel(X, cfg.h)
        candidates, assignment = ms.find_modes(model, mesh=None, opts=cfg.mean_shift)
    unconverged = assignment.diagnostics["n_unconverged"]
    tr.count("modes.kernel_pairs", model.kernel_pairs)
    tr.count("modes.candidates", len(candidates))
    tr.count("modes.n_unconverged", unconverged)
    tr.maximum("modes.iterations_max", max([c.iterations for c in candidates]
                                           + [cfg.mean_shift.max_iter if unconverged else 0]))
    if not candidates:
        return mode_signature((), ())

    locations = [c.location for c in candidates]
    with tr.span("kde.gradient"):
        model_y = ms.DensityModel(Y, cfg.h)
        for loc in locations:
            model_y.gradient(loc)
    with tr.span("boot.resample"):
        ms.bootstrap_hessian_batch(Y, cfg.h, [], cfg.B, cfg.boot_seed)
    with tr.span("boot.batch"):
        draws = ms.bootstrap_hessian_batch(Y, cfg.h, locations, cfg.B, cfg.boot_seed)
    with tr.span("boot.quantile_rect"):
        sets = [ms.esp_quantile(dr, cfg.alpha / len(candidates)) for dr in draws]
        portraits = [ms.eigen_rectangles(dr, cs) for dr, cs in zip(draws, sets)]

    for dr, cs in zip(draws, sets):  # |J|: replicates inside the ESP hypercube
        dist = np.max(np.abs(dr.s_star - cs.center[None, :]), axis=1)
        tr.count("boot.retained", int(np.sum(dist <= cs.q)))
        tr.count("boot.replicates", dr.B)
    tr.count("modetest.significant", sum(bool(p.significant) for p in portraits))
    return mode_signature(candidates, portraits)


class TenDim:
    """Acceptance criterion 4: two 10-d Gaussians, one of them anisotropic.

    A pass is one `run_mode_test` call.
    """

    name = "ten_dim"

    def __init__(self, seed: int, size: str):
        n, B = (10_000, 500) if size == "full" else (3_000, 200)
        self.pts = ms.generate(ms.GeneratorSpec(
            family="mixture", n=n, seed=seed,
            params={"means": [[-5.0] * 10, [5.0] * 10],
                    "cov_diags": [[1.0] * 10, [1.0] * 5 + [0.01] * 5]},
        ))
        self.cfg = ms.ModeTestConfig(h=1.0, alpha=0.05, B=B, split_seed=seed, boot_seed=seed)

    @staticmethod
    def truth(rep) -> bool:
        """Both true modes significant, none extra, and a positive gamma-group gap."""
        mu = np.full(10, 5.0)
        true_sig = extra_sig = 0
        gap = None
        for cand, port in zip(rep.candidates, rep.portraits):
            at_plus = np.linalg.norm(cand.location - mu) < 1.0
            if at_plus or np.linalg.norm(cand.location + mu) < 1.0:
                true_sig += bool(port.significant)
            else:
                extra_sig += bool(port.significant)
            if at_plus:
                r = port.rectangles
                gap = float(r[5:, 0].min() - r[:5, 1].max())
        return true_sig == 2 and extra_sig == 0 and gap is not None and gap > 0.0

    def check(self, rep):
        ok = mode_report_ok(rep, self.pts.shape[1])
        return ok, ok and self.truth(rep), mode_signature(rep.candidates, rep.portraits)

    def operations(self):
        return [(partial(ms.run_mode_test, self.pts, self.cfg), self.check)]

    def replay(self, tr: Tracer) -> list:
        with tr.span("modetest.split"):
            X, Y = ms.split(self.pts, self.cfg.split_seed)
        return [replay_mode_test(X, Y, self.cfg, tr)]


class Scan2d:
    """`scan` over `default_grid` on a 2-d three-Gaussian mixture."""

    name = "scan_2d"

    def __init__(self, seed: int, size: str):
        n, self.grid_count, B = (1_000, 30, 500) if size == "full" else (300, 8, 100)
        self.pts = ms.generate(ms.GeneratorSpec(
            family="mixture", n=n, seed=seed,
            params={"means": [[-6.0, 0.0], [0.0, 0.0], [6.0, 3.0]]},
        ))
        self.cfg = ms.ModeTestConfig(h=1.0, alpha=0.10, B=B, split_seed=seed, boot_seed=seed)

    def _scan(self):
        return ms.scan(self.pts, ms.default_grid(self.pts, count=self.grid_count), self.cfg)

    def check(self, res):
        counts = np.asarray(res.significant_counts)
        ok = (len(res.grid) == self.grid_count == len(res.reports)
              and np.array_equal(res.candidate_counts, [r.k for r in res.reports])
              and np.array_equal(counts, [r.significant_count for r in res.reports])
              and res.m == int(counts.max()) and res.h_hat in res.grid
              and all(mode_report_ok(r, self.pts.shape[1]) for r in res.reports))
        signature = (res.h_hat, res.m,
                     tuple(mode_signature(r.candidates, r.portraits) for r in res.reports))
        return ok, ok and res.m == 3, signature

    def operations(self):
        return [(self._scan, self.check)]

    def replay(self, tr: Tracer) -> list:
        grid = ms.default_grid(self.pts, count=self.grid_count)
        with tr.span("modetest.split"):
            X, Y = ms.split(self.pts, self.cfg.split_seed)
        per_h = tuple(replay_mode_test(X, Y, replace(self.cfg, h=float(h)), tr) for h in grid)
        h_hat, m = ms.select_bandwidth(grid, [sig[1] for sig in per_h])
        tr.count("bandwidth.bandwidths", len(grid))
        return [(h_hat, m, per_h)]


class Persist3d:
    """Grid, union-find persistence and bootstrap band on three 3-d blobs."""

    name = "persist_3d"
    h = 0.8
    alpha = 0.10

    def __init__(self, seed: int, size: str):
        n, self.resolution, self.B = (600, 64, 200) if size == "full" else (300, 20, 50)
        self.pts = ms.generate(ms.GeneratorSpec(
            family="mixture", n=n, seed=seed,
            params={"means": [[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 3.5, 0.0]],
                    "cov_diags": [[0.25] * 3] * 3},
        ))
        self.seed = seed

    def _persistence(self):
        axes = ms.default_axes(self.pts, self.h, resolution=self.resolution)
        pairs = ms.superlevel_persistence(ms.density_grid(ms.DensityModel(self.pts, self.h), axes))
        band = ms.bootstrap_band(self.pts, self.h, axes, self.alpha, self.B, self.seed)
        return pairs, band

    def check(self, result):
        pairs, band = result
        ok = (pairs.ndim == 2 and pairs.shape[0] >= 1 and pairs.shape[1] == 2
              and np.all(np.isfinite(pairs)) and np.all(pairs[:, 0] <= pairs[:, 1])
              and np.isfinite(band) and band >= 0.0)
        kept = ms.significant_pairs(ms.PersistenceDiagram(pairs=pairs, band=band)) if ok else ()
        return ok, ok and len(kept) == 3, (pairs.tobytes(), float(band))

    def operations(self):
        return [(self._persistence, self.check)]

    def replay(self, tr: Tracer) -> list:
        axes = ms.default_axes(self.pts, self.h, resolution=self.resolution)
        with tr.span("persist.grid"):
            model = CountingModel(self.pts, self.h)
            f = ms.density_grid(model, axes)
        with tr.span("persist.union_find"):
            pairs = ms.superlevel_persistence(f)
        with tr.span("persist.band"):
            band = ms.bootstrap_band(self.pts, self.h, axes, self.alpha, self.B, self.seed)
        tr.count("persist.grid_points", f.values.size)
        tr.count("persist.kernel_pairs", model.kernel_pairs)
        tr.count("persist.pairs", pairs.shape[0])
        # counts @ w.T per grid chunk: B x (grid points) x n multiply-adds, from the sizes
        tr.count("persist.band_madds_computed", self.B * f.values.size * self.pts.shape[0])
        return [(pairs.tobytes(), float(band))]


WORKLOADS = {w.name: w for w in (TenDim, Scan2d, Persist3d)}
