"""Bandwidth selection by maximizing the number of significant modes.

For each h in a grid, run the full two-stage test and count significant
modes N(h).  The selected bandwidth is the smallest grid value attaining
the maximum count.  Oversmoothing melts true modes together and
undersmoothing produces candidates too noisy to certify, so N(h) is small
at both extremes; its peak marks bandwidths that are both rich and
defensible.

The data split and the bootstrap counts are drawn once and shared by every
h, so the N(h) curve varies only through the bandwidth.  The counts depend
only on (len(Y), B, boot_seed); they are drawn after stage 1 has run at
every h, and each h then runs stage 2 with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kde import _check_integer, as_points
from .modetest import ModeTestConfig, _mode_tests, split

__all__ = ["BandwidthScan", "default_grid", "select_bandwidth", "scan"]

GRID_LO, GRID_HI = 0.05, 2.0  # default grid ends, as multiples of the largest marginal sd


@dataclass(frozen=True)
class BandwidthScan:
    """Per-bandwidth candidate and significant counts, and the pick."""

    grid: np.ndarray
    candidate_counts: np.ndarray  # k(h)
    significant_counts: np.ndarray  # N(h)
    h_hat: float
    m: int  # max of N(h)
    reports: tuple  # full per-h ModeTestReport objects


def default_grid(points, count: int = 30) -> np.ndarray:
    """Geometric h grid of `count` values, an integer >= 2, spanning [GRID_LO, GRID_HI]
    times the largest marginal sd."""
    _check_integer(count, "count", 2)
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points to set a default grid")
    sigma = float(np.max(np.std(pts, axis=0, ddof=1)))
    if sigma <= 0.0:
        raise ValueError("data has zero spread; supply an explicit grid")
    return np.geomspace(GRID_LO * sigma, GRID_HI * sigma, count)


def select_bandwidth(grid: np.ndarray, significant_counts: np.ndarray) -> tuple[float, int]:
    """Smallest grid value attaining the maximum significant count."""
    grid = np.asarray(grid, dtype=np.float64)
    significant_counts = np.asarray(significant_counts)
    if grid.shape != significant_counts.shape:
        raise ValueError("grid and counts must have matching length")
    m = int(np.max(significant_counts))
    idx = int(np.flatnonzero(significant_counts == m)[0])
    return float(grid[idx]), m


def scan(data, grid=None, cfg: ModeTestConfig | None = None) -> BandwidthScan:
    """Run the mode test across a bandwidth grid on one shared split.

    The split and the (B, len(Y)) bootstrap counts are drawn once and
    shared by every h, so each report equals
    ``mode_test_on_split(X, Y, replace(cfg, h=h))`` on the same split.

    Parameters
    ----------
    data : array-like, shape (n, d)
    grid : array-like of positive h values, optional
        Defaults to `default_grid(data)`.  Scanned in ascending order.
    cfg : ModeTestConfig, optional
        Test parameters; cfg.h is ignored (replaced per grid value).
    """
    pts = as_points(data)
    grid = default_grid(pts) if grid is None else np.sort(np.asarray(grid, dtype=np.float64))
    if grid.ndim != 1 or grid.size == 0 or not np.all(grid > 0.0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be a nonempty 1-d array with positive finite entries")
    cfg = cfg or ModeTestConfig(h=float(grid[0]))

    X, Y = split(pts, cfg.split_seed)
    reports = _mode_tests(X, Y, cfg, grid)

    k_counts = np.array([r.k for r in reports], dtype=np.int64)
    n_counts = np.array([r.significant_count for r in reports], dtype=np.int64)
    h_hat, m = select_bandwidth(grid, n_counts)
    return BandwidthScan(
        grid=grid,
        candidate_counts=k_counts,
        significant_counts=n_counts,
        h_hat=h_hat,
        m=m,
        reports=tuple(reports),
    )
