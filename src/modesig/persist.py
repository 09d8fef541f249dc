"""Superlevel-set persistence of a gridded density, with a bootstrap band.

Sweeping the threshold t downward through the grid values, connected
components of {p >= t} are born at local maxima and die when they merge
into an older component (elder rule).  Each component yields a
(death, birth) pair; long lifetimes indicate prominent modes.  A
bootstrap sup-norm band epsilon_alpha turns the diagram into a test:
pairs with lifetime <= 2 * epsilon_alpha are noise.

Grid adjacency is the 2d axis-neighbor stencil.  Ties in grid values are
broken by flat index, the same convention the test oracle uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boot import ceil_order_statistic, _resample_counts
from .kde import DensityModel, as_points

__all__ = [
    "GridFunction",
    "PersistenceDiagram",
    "default_axes",
    "density_grid",
    "superlevel_persistence",
    "bootstrap_band",
    "run_persistence",
    "significant_pairs",
]

_DEFAULT_RES = {1: 128, 2: 128, 3: 64}


@dataclass(frozen=True)
class GridFunction:
    """Function values on an axis-aligned product grid."""

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not match axes {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")


@dataclass(frozen=True)
class PersistenceDiagram:
    """(death, birth) pairs, most persistent first, plus the band width."""

    pairs: np.ndarray  # (m, 2) columns (death, birth)
    band: float


def default_axes(points, h: float, resolution: int | None = None) -> tuple:
    """Evenly spaced axes covering the data plus a 3h margin per side."""
    pts = as_points(points)
    d = pts.shape[1]
    if d > 3:
        raise ValueError("persistence grids support d <= 3")
    res = _DEFAULT_RES[d] if resolution is None else int(resolution)
    if res < 2:
        raise ValueError("resolution must be >= 2")
    return tuple(
        np.linspace(pts[:, j].min() - 3.0 * h, pts[:, j].max() + 3.0 * h, res)
        for j in range(d)
    )


def _grid_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def density_grid(model: DensityModel, axes) -> GridFunction:
    """Evaluate the model exactly on the product grid, in bounded kernel blocks."""
    vals = model.density(_grid_points(axes))
    shape = tuple(len(a) for a in axes)
    return GridFunction(axes=tuple(np.asarray(a, dtype=np.float64) for a in axes),
                        values=vals.reshape(shape))


def superlevel_persistence(f: GridFunction) -> np.ndarray:
    """All (death, birth) pairs of the superlevel filtration, lifetime-sorted.

    Vertices enter in decreasing value order (ties by flat index).  A
    vertex with no processed neighbor starts a component; a vertex joining
    several components records a death at its own value for each younger
    component absorbed (elder rule).  The last survivor is the essential
    pair: born at the global max, assigned death at the global min so
    every mode appears in the diagram.
    """
    values = f.values
    shape = values.shape
    flat = values.ravel()
    G = flat.shape[0]

    order = np.lexsort((np.arange(G), -flat))
    rank = np.empty(G, dtype=np.int64)
    rank[order] = np.arange(G)

    # Axis-neighbor flat offsets and per-vertex coordinate bounds.
    strides = np.empty(len(shape), dtype=np.int64)
    s = 1
    for a in range(len(shape) - 1, -1, -1):
        strides[a] = s
        s *= shape[a]
    coords = [(np.arange(G) // strides[a]) % shape[a] for a in range(len(shape))]

    parent = np.arange(G)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    birth_rank = np.full(G, -1, dtype=np.int64)
    deaths = []
    births = []
    for pos in range(G):
        v = int(order[pos])
        birth_rank[v] = pos
        for a in range(len(shape)):
            c = coords[a][v]
            for u in ((v - strides[a]) if c > 0 else -1, (v + strides[a]) if c < shape[a] - 1 else -1):
                if u < 0 or rank[u] > pos:
                    continue
                ru = find(int(u))
                rv = find(v)
                if ru == rv:
                    continue
                if birth_rank[ru] < birth_rank[rv]:
                    elder, younger = ru, rv
                else:
                    elder, younger = rv, ru
                # a component born at v itself just joins its neighbor;
                # only a strictly older component dying yields a pair
                if birth_rank[younger] < pos:
                    deaths.append(flat[v])
                    births.append(flat[order[birth_rank[younger]]])
                parent[younger] = elder

    # essential component: born at the max, death pinned to the grid min
    deaths.append(flat[order[-1]])
    births.append(flat[order[0]])

    pairs = np.stack([np.asarray(deaths), np.asarray(births)], axis=1)
    life = pairs[:, 1] - pairs[:, 0]
    sort = np.lexsort((pairs[:, 0], -pairs[:, 1], -life))
    return pairs[sort]


def _exact_deviations(dev_counts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dev_counts @ w.T for bootstrap_band, exact whatever the summation order.

    dev_counts (B, n) holds resample counts minus one; w (g, n) holds kernel
    weights in [0, 1] and is rounded in place onto the grid 2^-F, moving
    each weight by at most 2^-(F+1).  Why this makes the BLAS product exact:
    the multipliers are integers with sum_i |c_i - 1| <= sum_i c_i + n = 2n
    <= 2^E, E = ceil(log2(2n)), and F = 53 - E.  Every product and every
    partial sum, in any grouping, is then a multiple of 2^-F of magnitude at
    most 2^E, i.e. an integer no larger than 2^53 times 2^-F, which float64
    holds exactly.  So any summation order, thread split or fused
    multiply-add gives the same bits.
    """
    grid = 2.0 ** (53 - (2 * w.shape[1] - 1).bit_length())
    w *= grid
    np.rint(w, out=w)
    w /= grid
    return dev_counts @ w.T


def bootstrap_band(data, h: float, axes, alpha: float, B: int, seed: int) -> float:
    """Bootstrap quantile of the grid sup-norm deviation of the KDE.

    Each replicate resamples the data with replacement and measures
    max over the grid of |p_hat_star - p_hat|; the band is the same
    ceiling order statistic used for the ESP quantile, at level 1 - alpha.
    Grid evaluation understates the continuum sup-norm slightly.
    """
    pts = as_points(data)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    model = DensityModel(pts, h)
    counts = _resample_counts(pts.shape[0], B, seed)
    counts -= 1.0  # deviation weights: p_star - p_hat = norm * (counts - 1) @ K
    dev = np.zeros(B)
    for _, w in model._blocks(_grid_points(axes), B):  # width B: each block also makes (B, g)
        block = _exact_deviations(counts, w)  # (B, g)
        np.maximum(dev, model._norm * np.max(np.abs(block), axis=1), out=dev)
        del w, block  # free this block before the generator builds the next
    return ceil_order_statistic(dev, 1.0 - alpha)


def run_persistence(data, h: float, alpha: float = 0.10, B: int = 500, seed: int = 0,
                    resolution: int | None = None) -> PersistenceDiagram:
    """The persistence diagram of the KDE on its default grid, with its bootstrap band.

    The grid covers the data plus 3h per side with `resolution` points per
    axis (default_axes); the band resamples B times from `seed` at level alpha.
    """
    axes = default_axes(data, h, resolution=resolution)
    pairs = superlevel_persistence(density_grid(DensityModel(data, h), axes))
    return PersistenceDiagram(pairs=pairs, band=bootstrap_band(data, h, axes, alpha, B, seed))


def significant_pairs(diag: PersistenceDiagram) -> np.ndarray:
    """Pairs whose lifetime clears the 2 * band noise strip."""
    if diag.band < 0:
        raise ValueError("band must be nonnegative")
    pairs = np.asarray(diag.pairs, dtype=np.float64).reshape(-1, 2)
    keep = (pairs[:, 1] - pairs[:, 0]) > 2.0 * diag.band
    return pairs[keep]
