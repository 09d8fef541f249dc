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

bootstrap_band states which sample points and grid points the band's product
skips, and _exact_deviations why that product is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boot import ceil_order_statistic, _resample_counts
from .kde import DensityModel, _check_integer, as_points

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
        if 0 in shape:
            raise ValueError(f"grid axes must be non-empty, got lengths {shape}")
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
    """Evenly spaced axes covering the data plus a 3h margin per side.

    Raises ValueError unless h is positive and finite and the resolution,
    points per axis, is an integer >= 2.
    """
    pts = as_points(points)
    d = pts.shape[1]
    if d > 3:
        raise ValueError("persistence grids support d <= 3")
    if not (h > 0.0 and np.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    res = _DEFAULT_RES[d] if resolution is None else resolution
    _check_integer(res, "resolution", 2)
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


def _exact_deviations(dev_counts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dev_counts @ rint(w).T for bootstrap_band, exact whatever the summation order.

    dev_counts (B, k) holds resample counts minus one over k of the n sample
    points; w (g, k) holds their kernel weights in [0, 1] times 2^F,
    F = 53 - E, E = ceil(log2(2n)) for the full sample size n, and is rounded
    in place to integers, which moves each weight by at most 2^-(F+1).  Why
    the product is exact: the multipliers are integers with
    sum_i |c_i - 1| <= sum_i c_i + n = 2n <= 2^E over all n points, a
    fortiori over k of them, and each rounded weight is at most 2^F.  Every
    product and every partial sum, in any grouping, is then an integer of
    magnitude at most 2^53, which float64 holds exactly.  So any summation
    order, thread split or fused multiply-add gives the same bits.  F must
    come from n, not from k: the bound holds for k columns only because it
    holds for all n.
    """
    np.rint(w, out=w)
    return dev_counts @ w.T


def _deviation_bound(lead: np.ndarray, last: np.ndarray, err: np.ndarray, m: np.ndarray,
                     d: int) -> tuple[np.ndarray, np.ndarray]:
    """The bound U >= sum_i m_i rint(lead[a, i] * last[b, i]) of bootstrap_band, as
    (lead rows, last rows), for a tile of a d-axis grid over k sample points, and
    its error term E, as (lead rows, err rows).

    lead (r, k) holds the tile's scaled weights over its leading axes, last
    (t, k) the last axis' factor, err its error matrix (_error_matrix) and
    m (k,) the points' multipliers, folded into lead once for both
    products; the tile's points take (a, b) in C order.  E has U's margins.
    bootstrap_band states them.
    """
    lead = lead * m
    scale, half = 1.0 + (m.size + d + 1) * 2.0**-52, 0.5 * np.sum(m)
    return tuple((lead @ x.T + half) * scale for x in (last, err))


def _anchors(t: int, stride: int):
    """The anchors of a last-axis span of t points, every stride-th and the last, and
    the points between them, as (anchor, (inner, lo, hi, b_lo, b_hi)): inner[r] lies
    between the anchors lo[r] < inner[r] < hi[r], with index weights
    b_lo[r] = (hi - inner) / (hi - lo) and b_hi[r] = (inner - lo) / (hi - lo)."""
    c = np.arange(t)
    between = (c % stride != 0) & (c != t - 1)
    inner = c[between]
    lo = inner - inner % stride
    hi = np.minimum(lo + stride, t - 1)
    return c[~between], (inner, lo, hi, (hi - inner) / (hi - lo), (inner - lo) / (hi - lo))


def _error_matrix(last: np.ndarray, interp) -> np.ndarray:
    """The last axis' factor's interpolation error |b_lo last[lo] + b_hi last[hi] - last[inner]|
    at the inner points of interp (_anchors), as (len(inner), n), made by one product
    into the matrix itself."""
    inner, lo, hi, b_lo, b_hi = interp
    weights = np.zeros((inner.size, last.shape[0]))
    at = np.arange(inner.size)
    weights[at, lo], weights[at, hi], weights[at, inner] = b_lo, b_hi, -1.0
    err = weights @ last
    return np.abs(err, out=err)


def _interpolated_bound(u: np.ndarray, e: np.ndarray, top: np.ndarray, interp,
                        m_sum: float) -> np.ndarray:
    """The bound F >= max_b |D_bg| of bootstrap_band at a tile's inner points (_anchors),
    as (lead rows, inner points), from the tile's U and E (_deviation_bound), top,
    each anchor's exact max_b |D_bg| where it was taken and its U elsewhere, as U's
    shape, and m_sum = sum_i m_i; bootstrap_band states the margin."""
    inner, lo, hi, b_lo, b_hi = interp
    top = top + 2.0**-50 * u
    f = b_lo * top[:, lo]
    f += b_hi * top[:, hi]
    f += e
    f += 2.0**-50 * u[:, inner]
    f += 0.5 * m_sum
    f *= 1.0 + 2.0**-49
    return f


def _exact_maxima(counts: np.ndarray, lead: np.ndarray, last: np.ndarray,
                  lead_row: np.ndarray, last_row: np.ndarray):
    """max_b |D_bg| at the tile points (lead_row, last_row), lead rows in increasing
    order, and max_g |D_bg| over them per replicate, from the exact product."""
    w = last[last_row]
    runs = np.flatnonzero(np.diff(lead_row, prepend=-1))  # rows sharing a lead row
    for lo, hi in zip(runs, [*runs[1:], lead_row.size]):
        w[lo:hi] *= lead[lead_row[lo]]  # in place: no second (rows, k) temporary
    block = _exact_deviations(counts, w)
    del w
    np.abs(block, out=block)
    return block.max(axis=0), block.max(axis=1)


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
    and the counts' columns with it.  A tile's weight at its point (a, b) is
    lead[a] * last[b], leading-axes weights times the last axis' factor
    (_grid_tiles).  lead is scaled by 2^F in place: a power of two scales
    exactly, and the products of any weight that can round to nonzero stay
    normal, so they are the scaled weights' bits.  A point's largest lead
    entry times its largest last factor bounds its scaled weights on the
    tile, since rounded products are monotone; where it is at most 1/2 they
    all round to 0 (ties go to even).  So each tile's product runs over the
    sorted range between the first and last point with a larger bound, a
    tile without any is skipped, and the exact sums do not change.  Each
    replicate's maximum is divided by 2^F once at the end, which by
    monotone rounding equals dividing each tile's.  So the band has the bits
    of the plain product over every point.

    The product also skips the grid points that cannot move the band.  With
    m_i = max(max_b c_bi, 2) - 1 >= max_b |c_bi - 1| from the counts c, no
    replicate's deviation D_bg at grid point g exceeds T_g = sum_i m_i R_gi,
    R_gi = rint(w_gi), over the tile's range of k points.  Let q be the order
    statistic of the replicates' maxima over the points taken so far.  A
    point with max_b |D_bg| <= q leaves every maximum at or above q as it is
    and lifts none below q past q, so q does not change; q only rises, so
    that holds in any order.  So a tile's product takes only the points
    whose float bound exceeds the running q, and their weight rows are last
    rows times their lead row, the weights' bits.

    The first bound is U_g >= T_g, from one contraction of lead and last
    (_deviation_bound): U_g = (sum_i m_i w_gi + sum_i m_i / 2)(1 + (k + d + 1) 2^-52).
    The half-sum covers rint(x) <= x + 1/2, and any product that underflows,
    whose weight rounds to 0; so too a lead entry subnormal before scaling,
    where scaling lead and scaling one factor differ: its weights are below
    2^F tiny and round to 0 either way.  The relative margin covers the
    rounding: the float sum is within k + d - 1 roundings of
    sum_i m_i prod_j f_gij (d per term, k - 1 adding), each w_gi within
    d - 1 of prod_j f_gij, and two more apply the margin; k + 2d roundings
    of relative 2^-53 at most, which (k + d + 1) 2^-52 covers with room for
    their second-order terms.  The sum of the integers m_i is exact below
    2^53.

    The second bound interpolates along the last axis.  In each span of it,
    the anchors are every s-th point from the first and the last point, with
    s = max(1, floor(h / (2 spacing))) and spacing the last axis' extent over
    its count minus 1: anchors lie at most h/2 apart, where the kernel
    factor is close to linear, and at s = 1 every point is one.  A point
    g = (a, c) between anchors c0 < c < c1 takes the index weights, floats,
    b0 = (c1 - c) / (c1 - c0) and b1 = (c - c0) / (c1 - c0).  For any
    b0, b1 >= 0 the exact sums split as
    D_bg = b0 D_b(a,c0) + b1 D_b(a,c1) + sum_i (c_bi - 1)(R_gi - b0 R_(a,c0)i - b1 R_(a,c1)i).
    Write l_ai for the lead entry, L_ci for the factor, x_i for
    b0 L_c0i + b1 L_c1i and S for sum_i m_i l_ai (L_ci + x_i), at most
    U_g + b0 U_c0 + b1 U_c1.  Since w_gi = l_ai L_ci (1 + delta) with
    |delta| <= 2^-53 and |R - w| <= 1/2, the last sum is at most
    sum_i m_i l_ai |L_ci - x_i| + 2^-53 S + sum_i m_i (1 + b0 + b1) / 2.
    The error matrix err_ci = |fl(x_i - L_ci)|, made once per span by one
    product (_error_matrix), is within 3 roundings of L_ci + x_i of
    |L_ci - x_i|.  E_g = (sum_i m_i l_ai err_ci + sum_i m_i / 2)(1 + (k + d + 1) 2^-52)
    comes from the same scaled lead as U (_deviation_bound), and its margin
    covers its float sum as U's does.  So, with M_c the anchor's exact
    max_b |D_b(a,c)| where the tile's first product took it and U_(a,c)
    where it did not, max_b |D_bg| is at most (_interpolated_bound)
    F_g = (b0 (M_c0 + 2^-50 U_c0) + b1 (M_c1 + 2^-50 U_c1) + E_g + 2^-50 U_g + sum_i m_i / 2)(1 + 2^-49).
    The 2^-50 U terms cover the weights' and the error matrix's rounding,
    4.01 2^-53 S.  The relative margin covers F's own 7 roundings at most,
    b0 + b1 exceeding 1 by up to 2^-52, and any product that underflows,
    which errs by at most 2^-1074, since F >= sum_i m_i.  So each tile
    first takes the anchors whose U exceeds the running q into the exact
    product, which gives their M, and then the other points whose
    min(U, F) exceeds the updated q.

    Before any resampling, raises ValueError for bad alpha, B or seed, and
    unless `axes` holds one non-empty, finite 1-d axis per coordinate.
    """
    pts = as_points(data)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    _check_integer(B, "B", 1)
    _check_integer(seed, "seed", 0)
    n = pts.shape[0]
    order = np.argsort(pts[:, 0], kind="stable")
    model = DensityModel(pts[order], h)
    tiles = model._grid_tiles(axes, B)  # checks the axes; width B: each tile also makes (B, g)
    last_axis = np.asarray(axes[-1], dtype=np.float64)
    extent = float(np.ptp(last_axis))  # anchors' stride s = floor(h / (2 spacing)), at least 1
    stride = last_axis.size if extent == 0.0 else max(1, int(min(
        last_axis.size, model.h * (last_axis.size - 1) / (2.0 * extent))))
    # deviation weights in sorted order: p_star - p_hat = norm * (counts - 1) @ K
    draw = _resample_counts(n, B, seed)[:, order]
    m = (np.maximum(draw.max(axis=0), 2) - 1).astype(np.float64)  # from the integers: no (B, n) copy
    counts = draw - 1.0
    del draw
    grid = 2.0 ** (53 - (2 * n - 1).bit_length())  # 2^F (_exact_deviations)
    dev = np.zeros(B)  # per replicate, max |deviation| * grid / norm over the points so far
    span = None
    for box, lead, last in tiles:
        if box[-1] != span:  # a new span of the last axis: its anchors, error matrix and maxima
            span, err = box[-1], None  # free the last span's matrix before making this one's
            anchor, interp = _anchors(last.shape[0], stride)
            inner = interp[0]
            err, last_max = _error_matrix(last, interp), last.max(axis=0)
        lead *= grid  # exact; weights that can round to nonzero keep their scaled bits
        kept = np.flatnonzero(lead.max(axis=0) * last_max > 0.5)
        if kept.size:
            cols = slice(kept[0], kept[-1] + 1)
            lead, last = lead[:, cols], last[:, cols]
            u, e = _deviation_bound(lead, last, err[:, cols], m[cols], model.d)
            top = u.copy()  # each anchor's max_b |D|, or its U where not taken
            lead_row, at = np.nonzero(u[:, anchor] > ceil_order_statistic(dev, 1.0 - alpha))
            if lead_row.size:
                point_max, dev_max = _exact_maxima(counts[:, cols], lead, last, lead_row, anchor[at])
                np.maximum(dev, dev_max, out=dev)
                top[lead_row, anchor[at]] = point_max
            f = _interpolated_bound(u, e, top, interp, np.sum(m[cols]))
            np.minimum(f, u[:, inner], out=f)
            lead_row, at = np.nonzero(f > ceil_order_statistic(dev, 1.0 - alpha))
            if lead_row.size:
                np.maximum(dev, _exact_maxima(counts[:, cols], lead, last, lead_row, inner[at])[1],
                           out=dev)
            del u, e, top, f
        del lead, last  # free this tile, with its products above, before the generator builds the next
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
    """Pairs whose lifetime clears the 2 * band noise strip; the band must be finite and >= 0."""
    if not 0.0 <= diag.band < np.inf:
        raise ValueError(f"band must be nonnegative and finite, got {diag.band!r}")
    pairs = np.asarray(diag.pairs, dtype=np.float64).reshape(-1, 2)
    keep = (pairs[:, 1] - pairs[:, 0]) > 2.0 * diag.band
    return pairs[keep]
