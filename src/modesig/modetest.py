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

from dataclasses import dataclass, field, replace

import numpy as np

from .boot import EigenPortrait, bootstrap_hessian_batch, esp_quantile, eigen_rectangles
from .kde import DensityModel, as_points
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
        if self.B < 1:
            raise ValueError("B must be >= 1")
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
    are disjoint and cover the sample.
    """
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

    candidates, assignment = find_modes(DensityModel(X, cfg.h), mesh=None, opts=cfg.mean_shift)
    k = len(candidates)
    locations = np.array([c.location for c in candidates]).reshape(k, X.shape[1])
    grad_norms = np.linalg.norm(DensityModel(Y, cfg.h).gradient(locations), axis=1)
    draws = bootstrap_hessian_batch(Y, cfg.h, locations, cfg.B, cfg.boot_seed)
    portraits = tuple(
        replace(eigen_rectangles(draw, esp_quantile(draw, cfg.alpha / k)), mode=cand)
        for cand, draw in zip(candidates, draws)
    )
    return ModeTestReport(
        candidates=tuple(candidates),
        portraits=portraits,
        k=k,
        significant_count=sum(p.significant for p in portraits),
        stage2_gradient_norms=grad_norms,
        assignment=assignment,
    )


def run_mode_test(data, cfg: ModeTestConfig) -> ModeTestReport:
    """Split the data and run both stages."""
    pts = as_points(data)
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points for a meaningful split")
    X, Y = split(pts, cfg.split_seed)
    return mode_test_on_split(X, Y, cfg)
