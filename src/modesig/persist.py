"""Superlevel-set persistence of a gridded density, with a bootstrap band.

Sweeping the threshold t downward through the grid values, connected
components of {p >= t} are born at local maxima and die when they merge
into an older component (elder rule).  Each component yields a
(death, birth) pair; long lifetimes indicate prominent modes.  A
bootstrap sup-norm band epsilon_alpha turns the diagram into a test:
pairs with lifetime <= 2 * epsilon_alpha are noise.

Grid adjacency is the 2d axis-neighbor stencil.  Vertices enter the sweep
in decreasing value order, ties broken by flat index (the test oracle's
convention); a vertex's entry rank is its place in that order.  The sweep
is a merge tree over ascent basins (the basin-then-merge scheme of ToMATo,
Chazal et al. 2013): steepest-ascent pointers label every vertex with its
basin's peak, and an elder-rule union-find runs over the peaks along the
basin-boundary edges only.

bootstrap_band states which sample points the band's product skips, and
_exact_deviations why that product is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boot import ceil_order_statistic, _resample_counts
from .kde import DensityModel, _tile_weights, as_points

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


def density_grid(model: DensityModel, axes) -> GridFunction:
    """Evaluate the model exactly on the product grid of `axes`, in bounded tiles.

    Raises ValueError unless `axes` holds one non-empty, finite 1-d axis per
    coordinate of the model.
    """
    axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
    return GridFunction(axes=axes, values=model._grid_density(axes))


def superlevel_persistence(f: GridFunction) -> np.ndarray:
    """All (death, birth) pairs of the superlevel filtration, lifetime-sorted.

    A vertex enters after its ascent pointer's target, so it joins its
    basin's component: components are born at basin peaks and merge across
    basin boundaries, whose edges the union-find takes in entry order.  The
    last survivor is the essential pair: born at the global max, assigned
    death at the global min so every mode appears in the diagram.
    """
    values = f.values
    flat = values.ravel()
    G = flat.size

    order = np.lexsort((np.arange(G), -flat))
    rank = np.empty(G, dtype=np.int64)
    rank[order] = np.arange(G)
    rank = rank.reshape(values.shape)

    # Ascent forest over entry ranks: a vertex points at the smallest entry
    # rank among itself and its axis neighbours; indexed by rank, the peaks
    # are the roots.
    parent = rank.copy()
    for axis in range(values.ndim):
        r, p = np.moveaxis(rank, axis, 0), np.moveaxis(parent, axis, 0)
        np.minimum(p[:-1], r[1:], out=p[:-1])
        np.minimum(p[1:], r[:-1], out=p[1:])
    parent = parent.ravel()[order]
    while not np.array_equal(parent[parent], parent):  # pointer jumping
        parent = parent[parent]
    basin = parent[rank]  # each vertex's peak

    # Boundary edges, axis by axis: (entry rank of the later end, basin, basin).
    edges = [np.empty((3, 0), dtype=np.int64)]  # none at all on a 0-d grid
    for axis in range(values.ndim):
        b, r = np.moveaxis(basin, axis, 0), np.moveaxis(rank, axis, 0)
        cross = b[:-1] != b[1:]
        edges.append(np.stack([np.maximum(r[:-1][cross], r[1:][cross]),
                               b[:-1][cross], b[1:][cross]]))
    entry, lo, hi = np.concatenate(edges, axis=1)
    by_entry = np.argsort(entry)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    deaths, births = [G - 1], [0]  # entry ranks; the essential pair first
    for t, a, b in zip(entry[by_entry].tolist(), lo[by_entry].tolist(), hi[by_entry].tolist()):
        a, b = find(a), find(b)
        if a != b:  # elder rule: the later-born peak's component dies here
            parent[max(a, b)] = min(a, b)
            deaths.append(t)
            births.append(max(a, b))

    pairs = np.stack([flat[order[deaths]], flat[order[births]]], axis=1)
    life = pairs[:, 1] - pairs[:, 0]
    sort = np.lexsort((pairs[:, 0], -pairs[:, 1], -life))
    return pairs[sort]


def _exact_deviations(dev_counts: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dev_counts @ rint(w).T for bootstrap_band, exact whatever the summation order.

    dev_counts (B, k) holds resample counts minus one over k of the n sample
    points; w (g, k) holds their kernel weights in [0, 1] times 2^F,
    F = 53 - E, E = ceil(log2(2n)) for the full sample size n, and is rounded
    in place to integers, which moves each weight by at most 2^-(F+1).  The
    product goes into the head of the flat buffer `out`.  Why it is exact:
    the multipliers are integers with sum_i |c_i - 1| <= sum_i c_i + n = 2n
    <= 2^E over all n points, a fortiori over k of them, and each rounded
    weight is at most 2^F.  Every product and every partial sum, in any
    grouping, is then an integer of magnitude at most 2^53, which float64
    holds exactly.  So any summation order, thread split or fused
    multiply-add gives the same bits.  F must come from n, not from k: the
    bound holds for k columns only because it holds for all n.
    """
    np.rint(w, out=w)
    B, g = dev_counts.shape[0], w.shape[0]
    return np.matmul(dev_counts, w.T, out=out[:B * g].reshape(B, g))


def bootstrap_band(data, h: float, axes, alpha: float, B: int, seed: int) -> float:
    """Bootstrap quantile of the grid sup-norm deviation of the KDE.

    Each replicate resamples the data with replacement and measures
    max over the grid of |p_hat_star - p_hat|; the band is the same
    ceiling order statistic used for the ESP quantile, at level 1 - alpha.
    Grid evaluation understates the continuum sup-norm slightly.  The
    deviations come tile by tile, each tile within the kernel budget for
    width max(n, B), from an exact product (_exact_deviations), so the band
    does not depend on the tile layout or the BLAS thread count.

    The product skips sample points whose weights on a tile all round to 0.
    The sample is sorted by its first coordinate, which tiles cut finest,
    and the counts' columns with it.  Each tile's first factor is scaled by
    2^F: a power of two scales exactly, and the products of any weight that
    can round to nonzero stay normal, so they are the scaled weights' bits.
    The product of a point's per-axis factor maxima, in
    _tile_weights' order, bounds its scaled weights on the tile, since
    rounded products are monotone; where it is at most 1/2 they all round
    to 0 (ties go to even).  So each tile's product runs over the sorted
    range between the first and last point with a larger bound, a tile
    without any is skipped, and the exact sums do not change.  Each
    replicate's maximum is divided by 2^F once at the end, which by
    monotone rounding equals dividing each tile's.  So the band has the bits
    of the plain product over every point.  Before any resampling, raises
    ValueError for bad alpha or B, and unless `axes` holds one non-empty,
    finite 1-d axis per coordinate.
    """
    pts = as_points(data)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if B < 1:
        raise ValueError("B must be >= 1")
    n = pts.shape[0]
    order = np.argsort(pts[:, 0], kind="stable")
    model = DensityModel(pts[order], h)
    tiles = model._grid_tiles(axes, B)  # checks the axes; width B: each tile also makes (B, g)
    # deviation weights in sorted order: p_star - p_hat = norm * (counts - 1) @ K
    counts = _resample_counts(n, B, seed)[:, order] - 1.0
    grid = 2.0 ** (53 - (2 * n - 1).bit_length())  # 2^F (_exact_deviations)
    dev = np.zeros(B)  # per replicate, max |deviation| * grid / norm over the tiles so far
    product = None
    for _, factors in tiles:
        if product is None:  # buffers for every tile, sized by the first, which is the largest
            g = math.prod(f.shape[0] for f in factors)
            weights, product = np.empty(g * n) if model.d > 1 else None, np.empty(B * g)
        factors[0] *= grid  # exact; weights that can round to nonzero keep their scaled bits
        # per point, its factor maxima multiplied in _tile_weights' order bound its weights
        top = functools.reduce(np.multiply, [f.max(axis=0) for f in factors])
        kept = np.flatnonzero(top > 0.5)
        if kept.size:
            cols = slice(kept[0], kept[-1] + 1)
            block = _exact_deviations(counts[:, cols],
                                      _tile_weights([f[:, cols] for f in factors], weights), product)
            np.maximum(dev, np.maximum(block.max(axis=1), -block.min(axis=1)), out=dev)
        del factors  # free this tile before the generator builds the next
    np.abs(dev, out=dev)  # np.maximum can keep -0.0 from a tie with +0.0
    return model._norm * (ceil_order_statistic(dev, 1.0 - alpha) / grid)


def run_persistence(data, h: float, alpha: float = 0.10, B: int = 500, seed: int = 0,
                    resolution: int | None = None) -> PersistenceDiagram:
    """The persistence diagram of the KDE on its default grid, with its bootstrap band.

    The grid covers the data plus 3h per side with `resolution` points per
    axis (default_axes); the band resamples B times from `seed` at level alpha.
    The band comes first, so a bad alpha or B fails before any grid work.
    """
    axes = default_axes(data, h, resolution=resolution)
    band = bootstrap_band(data, h, axes, alpha, B, seed)
    pairs = superlevel_persistence(density_grid(DensityModel(data, h), axes))
    return PersistenceDiagram(pairs=pairs, band=band)


def significant_pairs(diag: PersistenceDiagram) -> np.ndarray:
    """Pairs whose lifetime clears the 2 * band noise strip."""
    if diag.band < 0:
        raise ValueError("band must be nonnegative")
    pairs = np.asarray(diag.pairs, dtype=np.float64).reshape(-1, 2)
    keep = (pairs[:, 1] - pairs[:, 0]) > 2.0 * diag.band
    return pairs[keep]
