"""Two-stage mode significance testing with sample splitting.

Stage 1 finds candidate modes by mean shift on one half of the data (X).
Stage 2, on the other half (Y), bootstraps the KDE Hessian at each fixed
candidate location and certifies a mode when the confidence interval for
the top curvature gamma_1 = -lambda_1 lies strictly above zero.  Testing
k candidates at level 1 - alpha/k each gives family-wise level alpha
(Bonferroni), with k the realized stage-1 count; k = 0 takes the same path.

Splitting matters: the candidate locations are fixed, not data-dependent,
from the viewpoint of the Y half, so the bootstrap distribution is the
honest sampling distribution of the Hessian at a point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import boot
from .boot import EigenPortrait, esp_quantile, eigen_rectangles
from .kde import DensityModel, _check_integer, as_points
from .modes import ClusterAssignment, MeanShiftOptions, ModeCandidate, find_modes

__all__ = ["ModeTestConfig", "ModeTestReport", "split", "mode_test_on_split", "run_mode_test"]


@dataclass(frozen=True)
class ModeTestConfig:
    """Parameters of the full test pipeline."""

    h: float
    alpha: float = 0.10
    B: int = 500
    split_seed: int = 0
    boot_seed: int = 0
    mean_shift: MeanShiftOptions = field(default_factory=MeanShiftOptions)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        _check_integer(self.B, "B", 1)
        _check_integer(self.split_seed, "split_seed", 0)
        _check_integer(self.boot_seed, "boot_seed", 0)
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ValueError("h must be positive and finite")


@dataclass
class ModeTestReport:
    """Candidates, their portraits, and verdict counts for one run."""

    candidates: tuple[ModeCandidate, ...]
    portraits: tuple[EigenPortrait, ...]
    k: int
    significant_count: int
    stage2_gradient_norms: np.ndarray
    assignment: ClusterAssignment | None = None


def split(data, seed: int):
    """Random half split: X gets floor(n/2) points, Y the rest.

    The partition is a seeded uniform permutation; as index sets X and Y
    are disjoint and cover the sample.  The seed must be an integer >= 0.
    """
    _check_integer(seed, "seed", 0)
    pts = as_points(data)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to split")
    perm = np.random.default_rng(seed).permutation(n)
    nx = n // 2
    return pts[np.sort(perm[:nx])], pts[np.sort(perm[nx:])]


def mode_test_on_split(X, Y, cfg: ModeTestConfig) -> ModeTestReport:
    """Run stage 1 on X and stage 2 on Y (the halves are taken as given).

    Stage 2 takes all k candidates at once, as a (k, d) matrix, each at
    level 1 - alpha/k; k = 0 takes the same path and reports no portrait.
    """
    X = as_points(X)
    Y = as_points(Y)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("halves disagree on dimension")
    return _mode_tests(X, Y, cfg, [cfg.h])[0]


def _mode_tests(X: np.ndarray, Y: np.ndarray, cfg: ModeTestConfig, hs) -> list[ModeTestReport]:
    """Both stages at each bandwidth in hs (cfg.h aside) on the point matrices X and Y.

    Stage 1 runs at every h before the bootstrap counts are drawn, so no
    (B, len(Y)) count matrix is alive during it; that one draw, a function
    of (len(Y), B, boot_seed) alone, then serves stage 2 at every h.  There
    one model of Y at a time gives an h's gradient norms and its candidates'
    (model, location) pairs; the pairs of every h go to one boot._boot, which
    stacks consecutive candidates, across bandwidths, into one exact product
    per count block, and each h's draws are turned into portraits as they
    come, so the draws of the whole scan are never alive at once.
    """
    found = [find_modes(DensityModel(X, h), mesh=None, opts=cfg.mean_shift) for h in hs]
    counts = boot._resample_counts(Y.shape[0], cfg.B, cfg.boot_seed)
    grad_norms = deque()  # of each h with candidates, appended before its pairs are read

    def pairs():
        for h, (candidates, _) in zip(hs, found):
            if candidates:
                model = DensityModel(Y, h)
                locations = np.array([c.location for c in candidates])
                grad_norms.append(np.linalg.norm(model.gradient(locations), axis=1))
                for at in locations:
                    yield model, at
                del model  # freed before the next h's model is built

    draws = boot._boot(pairs(), counts)
    reports = []
    for candidates, assignment in found:
        k = len(candidates)
        portraits = tuple(  # zip reads no draw past the last candidate
            replace(eigen_rectangles(draw, esp_quantile(draw, cfg.alpha / k)), mode=cand)
            for cand, draw in zip(candidates, draws)
        )
        reports.append(ModeTestReport(
            candidates=tuple(candidates),
            portraits=portraits,
            k=k,
            significant_count=sum(p.significant for p in portraits),
            stage2_gradient_norms=grad_norms.popleft() if k else np.zeros(0),
            assignment=assignment,
        ))
    return reports


def run_mode_test(data, cfg: ModeTestConfig) -> ModeTestReport:
    """Split the data and run both stages."""
    pts = as_points(data)
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points for a meaningful split")
    X, Y = split(pts, cfg.split_seed)
    return mode_test_on_split(X, Y, cfg)
