"""Gaussian kernel density estimation with exact first and second derivatives.

The estimator is the standard multivariate KDE with a single scalar
bandwidth ``h`` (isotropic Gaussian kernel, covariance ``h**2 * I``):

    p(x) = (1/n) * sum_i (2*pi)**(-d/2) * h**(-d) * exp(-||x - X_i||**2 / (2 h**2))

Because the kernel is Gaussian, gradient and Hessian are available in
closed form from the exponential weights.  The sample is kept as given for
direct differences (grid factors, Hessian terms) and as one (d + 2, N) operand,
rows (X - c)^T, 1 and ||X - c||^2 / 2h^2 about its mean c, with each cell
(below) padded to a multiple of 8 columns by dummy points of weight exactly 0:
density, gradient and mean shift take a block's exponent as one product with
it and its sums as one contraction, all about c, so they stay accurate far
from the origin.
Kernel weights below the smallest normal float, exponents under
log(tiny) ~ -708.4 (queries about 37.6 h from a sample point), are flushed
to exact 0 rather than computed on np.exp's slow subnormal path, in query
blocks and in the Hessian terms at a point alike.  A block or point takes
that flush only when the triangle inequality,
||q - X_i|| <= ||q - c|| + max_i ||X_i - c||, leaves room for such an
exponent, with a margin that covers its rounding; all other weights keep
their bits.
On an axis-aligned product grid the kernel factors over the axes,
exp(-||g - X_i||^2 / 2h^2) = prod_j exp(-(g_j - X_ij)^2 / 2h^2), so grids
are evaluated in bounded tiles from per-axis factors: a tile of
t_1 x ... x t_d points costs (t_1 + ... + t_d) * n exponentials, not
(t_1 * ... * t_d) * n.
For density, gradient and mean shift the sample is split once into cells of
at most _CELL_POINTS points, by median splits along the widest axis, each
held as a ball (center, radius) and a count.  A query row skips the cells
whose summed weight is certified, by bounds from the row's distance to the
cell's ball, to lie below 2^-53 of the row's sum_i w_i: it takes one run of
consecutive cells, from the first to the last it cannot skip, in the order
in which the cells were split.  The decision depends on the row alone.
With R = max_i ||X_i - c|| + ||q - c||, the skipped
weights move the density by at most 2^-53 of itself, the gradient by at
most 2^-53 p(q) R / h^2 and the mean-shift target by about 2^-53 R.  A model
of one cell (n <= _CELL_POINTS) evaluates every point.  Grids and Hessian
terms always take every point.
Results have the same bits at any BLAS thread count on OpenBLAS 0.3.31, by
two behaviours of that library checked by experiment (tests/test_threads.py),
not guaranteed by the arithmetic: its ddot, which every sum over the sample
takes in chunks of at most 8,192 columns (sample_sum), runs on one thread,
and its GEMM splits the exponent's product the same way at any thread count
when the product is a multiple of 8 columns wide, as every run of cells is.
Should either fail, np.einsum("md,dn->mn") for the exponent and
np.einsum("mn,kn->mk") for the sums, numpy's own fixed-order loops, are the
slower fallback.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["DensityModel", "as_points"]

_BLOCK_ENTRIES = 1 << 21  # (query, sample) entries per kernel-weight block: 16 MB of float64
_CELL_POINTS = 512  # sample points per cell at most (_split_cells); one cell takes no bound work
# columns of _aug per cell are a multiple of _PAD: OpenBLAS 0.3.31 gives a (m, K) @ (K, w)
# product the same bits at any thread count when w is a multiple of 8 (found by experiment)
_PAD = 8
_DUMMY_HALF_SQ = 1e6  # a padding column's last row of _aug: its exponent is -1e6, its weight 0
_SUM_CHUNK = 8192  # sample columns per ddot in sample_sum; OpenBLAS threads ddot from ~10,000
_PRUNE_LOG = 53.0 * float(np.log(2.0))  # a row drops at most 2^-53 of its weight mass
# relative margin on the cell bounds' distances and exponents that covers their rounding,
# about (d + 4) eps relative, for any d below 1e9 (_kept_cells)
_BOUND_SLACK = 1e-6
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))  # about -708.40; exp below it is subnormal
# sqrt(-_LOG_TINY), about 26.6, less a 1e-6 margin that covers the exponent's rounding
# error, about (d + 6) eps relative, for any d below 1e9 (_exp_flushed)
_FLUSH_REACH = float(np.sqrt(-_LOG_TINY)) * (1.0 - 1e-6)


# --- input validation -------------------------------------------------------

def as_points(data) -> np.ndarray:
    """Coerce array-like data to a float (n, d) matrix.

    1-d input is treated as n scalar observations, i.e. shape (n, 1).
    Raises ValueError for empty input or non-finite coordinates.
    """
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"expected a 2-d point matrix, got ndim={pts.ndim}")
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"need at least one point and one coordinate, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("data contains non-finite coordinates")
    return pts


def _as_query(x, d: int) -> tuple[np.ndarray, bool]:
    """Coerce a query to (m, d); second value says whether input was a single point."""
    q = np.asarray(x, dtype=np.float64)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"query dimension mismatch: expected d={d}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains non-finite coordinates")
    return q, single


def _as_axes(axes, d: int) -> tuple:
    """Check that grid axes are d non-empty, finite 1-d float arrays, and return them."""
    axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
    if len(axes) != d:
        raise ValueError(f"expected {d} grid axes for {d}-d data, got {len(axes)}")
    for j, a in enumerate(axes):
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"grid axis {j} must be a non-empty 1-d array, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"grid axis {j} contains non-finite values")
    return axes


def _row_blocks(m: int, width: int):
    """Consecutive row slices of an (m, width) array, each within _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, m, step))


def _split_cells(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells of pts by median splits along each cell's widest axis, until
    every cell holds at most _CELL_POINTS points.

    Returns the point indices cell after cell, depth first with the lower
    half first, and the (cells + 1,) offsets where each cell starts in them,
    n last.  One cell keeps the sample order.
    """
    order, starts, stack = np.arange(pts.shape[0]), [], [(0, pts.shape[0])]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= _CELL_POINTS:
            starts.append(lo)
            continue
        sub = pts[order[lo:hi]]
        widest = np.argmax(np.ptp(sub, axis=0))
        order[lo:hi] = order[lo:hi][np.argsort(sub[:, widest], kind="stable")]
        stack += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return order, np.array(starts + [pts.shape[0]])


def _tile_weights(factors: list, out: np.ndarray | None = None) -> np.ndarray:
    """A tile's kernel weights, (t_1 * ... * t_d, k) with rows in C order over the tile.

    They are the broadcast product of the tile's per-axis factors (t_j, k),
    taken in axis order.  Given `out`, a flat buffer of at least
    t_1 * ... * t_d * k entries, the last product is written into its head;
    a single factor is returned as it is.
    """
    w = factors[0]
    for i, f in enumerate(factors[1:], start=2):
        shape = (w.shape[0], *f.shape)
        dst = None if out is None or i < len(factors) else out[:w.shape[0] * f.size].reshape(shape)
        w = np.multiply(w[:, None, :], f, out=dst).reshape(-1, f.shape[1])
    return w


# --- fixed-order reduction over the sample ----------------------------------

def sample_sum(w: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """sum_i w[j, i] * xt[k, i] as an (m, k) matrix, for w (m, n) and xt (k, n).

    Every reduction over the n sample points but the mean c and the band's
    exact product (persist._exact_deviations) goes through here.  Each
    (j, k) entry is one np.vecdot, a BLAS ddot, per chunk of at most
    _SUM_CHUNK columns, and the chunks' results are added in column order,
    so its summation order depends only on n.  OpenBLAS 0.3.31 runs ddot on
    one thread below about 10,000 columns, so the result has the same bits
    at any BLAS thread count; that rests on the library's behaviour, checked
    by experiment (tests/test_threads.py), not on the arithmetic.  Should it
    ever fail, np.einsum("mn,kn->mk", w, xt), numpy's own fixed-order loop,
    is the slower fallback.  Both operands should be C-contiguous along n.
    """
    out = np.vecdot(w[:, None, :_SUM_CHUNK], xt[None, :, :_SUM_CHUNK])
    for lo in range(_SUM_CHUNK, w.shape[1], _SUM_CHUNK):
        out += np.vecdot(w[:, None, lo:lo + _SUM_CHUNK], xt[None, :, lo:lo + _SUM_CHUNK])
    return out


# --- model ------------------------------------------------------------------

class DensityModel:
    """Kernel density estimate over a fixed sample, with derivatives.

    Parameters
    ----------
    points : array-like, shape (n, d)
        The sample.  A 1-d array is read as n univariate observations.
    h : float
        Bandwidth, in the same units as the coordinates.  Must be positive
        and finite.

    Notes
    -----
    The model keeps a private read-only copy of the sample and never changes
    after construction, so evaluations are safe to call concurrently.
    ``points``, as given, serves the direct differences (grid factors, Hessian
    terms); the C-ordered (d + 2, N) operand _aug, rows (X - c)^T, 1 and
    ||X - c||^2 / 2h^2 about the sample mean c with the points cell after cell
    (_split_cells), serves the exponent and every sum over the sample, so
    sums and gradients are taken about c.  Each cell takes a multiple of
    _PAD = 8 columns of _aug, its points and then dummy points (coordinates
    0, unit row 0, last row _DUMMY_HALF_SQ) whose weight is exactly 0, so
    _aug has N >= n columns and adds nothing to any sum.
    For density, gradient and mean shift the kernel exponent's contraction
    over the d + 2 rows of _aug is a BLAS GEMM over a run of cells, so over a
    multiple of 8 columns: a query row's last bits can depend on the rows
    evaluated with it, but on OpenBLAS 0.3.31 not on the thread count; sums
    over the sample are BLAS ddots in chunks (sample_sum).  The module
    docstring says what that thread invariance rests on.  Grid evaluations
    take no exponent product: their weights come from per-axis factors of
    direct differences (_grid_tiles).
    Those three evaluations also skip the cells whose weight a row's bounds
    certify below 2^-53 of its sum_i w_i (_kept_cells), taking rows that keep
    the same run of cells together over that run's columns of _aug, a view;
    rows that keep every cell take the whole sample through _exp_weights.  A
    model of one cell (n <= _CELL_POINTS) does no bound work.  Which cells a
    row keeps depends on the row alone, not on its batch or the thread count.
    """

    def __init__(self, points, h: float):
        pts = as_points(points)
        h = float(h)
        if not (h > 0.0 and np.isfinite(h)):
            raise ValueError(f"bandwidth must be positive and finite, got {h}")
        # _aug takes the sample cell after cell, cell C in columns _cell_start[C] on, so the
        # cells a query row keeps are one run of columns; points keeps the sample order.
        # Split first, so that its temporaries are freed before any array the model keeps.
        order, starts = _split_cells(pts)
        # A private C-ordered copy: the caller's array stays writable, and
        # summation orders (hence bits) do not depend on its memory layout.
        self.points = pts = pts.copy()
        self.points.setflags(write=False)
        self.n, self.d = pts.shape
        self.h = h
        # (2*pi)**(-d/2) / (n * h**d): the shared normalizing constant.
        self._norm = (2.0 * np.pi) ** (-0.5 * self.d) / (self.n * h**self.d)
        # Exponent and sums are taken about the sample mean c, so cancellation error does not grow
        # with the data's distance from the origin.
        self._center = np.mean(pts, axis=0)
        centered = pts[order]
        centered -= self._center
        half_sq = np.sum(centered**2, axis=1) / (2.0 * h**2)
        # Each cell takes a multiple of _PAD columns of _aug: its points, then dummies.
        counts = np.diff(starts)
        self._cell_start = np.concatenate([[0], np.cumsum(-(-counts // _PAD) * _PAD)])
        columns = np.arange(self.n) + np.repeat(self._cell_start[:-1] - starts[:-1], counts)
        self._aug = np.zeros((self.d + 2, self._cell_start[-1]))
        self._aug[-1] = _DUMMY_HALF_SQ
        self._aug[:self.d, columns] = centered.T
        self._aug[self.d, columns] = 1.0
        self._aug[-1, columns] = half_sq
        self._reach = float(np.sqrt(np.max(half_sq)))  # max ||X - c|| / (sqrt(2) h)
        # Per cell, about c: a ball center (its mean), a radius inflated by _BOUND_SLACK
        # and the log of its count, all from its points alone.
        cells = [centered[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
        self._cell_center = np.array([np.mean(x, axis=0) for x in cells])
        self._cell_radius = (1.0 + _BOUND_SLACK) * np.array(
            [np.sqrt(np.max(np.sum((x - c) ** 2, axis=1)))
             for x, c in zip(cells, self._cell_center)])
        self._cell_log_n = np.log(counts)

    # -- kernel weights shared by every evaluation --

    def _exp_weights(self, q: np.ndarray) -> np.ndarray:
        """exp(-||q_j - X_i||^2 / (2 h^2)) as an (m, N) matrix, X_i in the column order of
        _aug; its padding columns weigh exactly 0."""
        return self._kernel_weights(q, self._aug)

    def _kernel_weights(self, q: np.ndarray, aug: np.ndarray) -> np.ndarray:
        """exp(-||q_j - X_i||^2 / (2 h^2)) over the sample points of aug, (d + 2, k)
        columns of _aug, as an (m, k) matrix."""
        # Exponent via the expansion (q.x - ||q||^2/2 - ||x||^2/2) / h^2 of the
        # centered q = q_j - c and x = X_i - c, as one product with aug whose last two
        # terms, -||q||^2/2h^2 times 1 and -1 times ||x||^2/2h^2, are exact, like subtractions.
        # A padding column's exponent is exactly -_DUMMY_HALF_SQ, so its weight exactly 0.
        # The matmul contracts over the d + 2 rows only; sums go through sample_sum.
        q = q - self._center
        half_sq = np.sum(q**2, axis=1) / (2.0 * self.h**2)
        w = np.column_stack([q / self.h**2, -half_sq, -np.ones(q.shape[0])]) @ aug
        np.minimum(w, 0.0, out=w)  # clip tiny positives from cancellation
        return self._exp_flushed(w, np.max(half_sq, initial=0.0))

    def _exp_flushed(self, x: np.ndarray, half_sq: float) -> np.ndarray:
        """exp(x) in place, for kernel exponents x of queries at most sqrt(2 half_sq) h from c.

        By the triangle inequality -x <= (sqrt(half_sq) + _reach)^2, so only
        past _FLUSH_REACH can an exponent fall below _LOG_TINY.  There the
        sub-tiny weights are flushed to exact 0 (exp(-inf)) instead of taking
        np.exp's subnormal path; every other weight keeps its bits.
        """
        if np.sqrt(half_sq) + self._reach > _FLUSH_REACH:
            np.copyto(x, -np.inf, where=x < _LOG_TINY)
        return np.exp(x, out=x)

    def _axis_factor(self, j: int, a: np.ndarray) -> np.ndarray:
        """exp(-((a_r - X_ij) / h)^2 / 2) as a (len(a), n) matrix, from direct differences."""
        f = a[:, None] - self.points[:, j]
        f /= self.h
        f *= f
        f *= -0.5
        return np.exp(f, out=f)

    def _grid_tiles(self, axes, width: int = 0):
        """(box, factors) over the tiles of the product grid of `axes`.

        box is a tuple of slices into the grid and factors[j] the (t_j, n)
        kernel factor of axis j over box[j] (_axis_factor); _tile_weights
        turns them into the tile's kernel weights.  A tile of
        t_1 x ... x t_d points holds at most
        _BLOCK_ENTRIES // (max(n, width) + d * n) of them, so its weights (or
        a (width, tile) product of them) and its factors (sum_j t_j <=
        d * prod_j t_j rows of n) stay within the budget together.  Tiles
        take whole runs of the last axes first; the layout depends only on
        the grid shape, n and width.  The axes are checked here, before any
        tile is built (_as_axes).
        """
        axes = _as_axes(axes, self.d)
        tile, left = [], max(1, _BLOCK_ENTRIES // (max(self.n, width) + self.d * self.n))
        for a in reversed(axes):
            tile.insert(0, min(a.size, left))
            left //= tile[0]
        spans = [[slice(lo, lo + t) for lo in range(0, a.size, t)] for a, t in zip(axes, tile)]
        return ((box, [self._axis_factor(j, a[s]) for j, (a, s) in enumerate(zip(axes, box))])
                for box in itertools.product(*spans))

    def _kept_cells(self, q: np.ndarray) -> np.ndarray:
        """The cells each query row keeps: an (m, 2) matrix of the first and one
        past the last cell, in the order of _aug, that the row's bounds cannot drop.

        With D the distance from q_j to a cell's center, r its radius and n_C
        its count, the cell's summed weight lies between
        n_C exp(-(D + r)^2 / 2h^2) and n_C exp(-max(0, D - r)^2 / 2h^2).  A
        cell can be dropped when its upper bound is below 2^-53 / cells of
        the largest lower bound, so a row drops at most 2^-53 of its
        sum_i w_i; the row keeps the run of cells from the first to the last
        it cannot drop.  Distances and exponents carry a _BOUND_SLACK margin
        for their rounding.  D comes from direct differences, one coordinate
        at a time over every cell, in numpy's own elementwise loops: a row's
        cells depend on the row alone, not on its batch or the BLAS thread
        count.
        """
        cells = self._cell_log_n.size
        kept = np.empty((q.shape[0], 2), dtype=np.intp)
        for rows in _row_blocks(q.shape[0], self.n):
            block = q[rows] - self._center
            dist = np.zeros((block.shape[0], cells))
            for j in range(self.d):
                diff = block[:, j, None] - self._cell_center[:, j]
                dist += np.square(diff, out=diff)
            np.sqrt(dist, out=dist)
            far = dist * (1.0 + _BOUND_SLACK) + self._cell_radius
            near = np.maximum(dist * (1.0 - _BOUND_SLACK) - self._cell_radius, 0.0)
            upper = self._cell_log_n - near**2 / (2.0 * self.h**2)
            lower = np.max(self._cell_log_n - far**2 / (2.0 * self.h**2), axis=1)
            floor = lower - _PRUNE_LOG - np.log(cells) - _BOUND_SLACK * (1.0 + np.abs(lower))
            keep = upper >= floor[:, None]  # true at least where the lower bound is largest
            kept[rows, 0] = np.argmax(keep, axis=1)
            kept[rows, 1] = cells - np.argmax(keep[:, ::-1], axis=1)
        return kept

    def _row_groups(self, q: np.ndarray):
        """Query rows grouped by the cells they keep, as (order, groups).

        order permutes q so that each group's rows are consecutive, or is None
        when q needs no permutation.  groups holds (rows, cols) per group:
        rows is its slice of q[order], cols the slice of _aug's columns that
        its rows keep, or None for rows that keep every cell.  A model of one
        cell takes no bound work: all of q is one group.
        """
        cells = self._cell_log_n.size
        if cells == 1:
            return None, [(slice(None), None)]
        lo, hi = self._kept_cells(q).T
        key = lo * (cells + 1) + hi
        order = np.argsort(key, kind="stable")
        keys, first = np.unique(key[order], return_index=True)
        groups = []
        for k, start, stop in zip(keys, first, [*first[1:], q.shape[0]]):
            lo, hi = divmod(int(k), cells + 1)
            cols = None if hi - lo == cells else slice(*self._cell_start[[lo, hi]])
            groups.append((slice(start, stop), cols))
        return order, groups

    def _weighted_sums(self, q: np.ndarray, xt: np.ndarray) -> np.ndarray:
        """sum_i w_ji xt[k, i] per query row q_j, as (m, k), over the cells the row
        keeps (_row_groups), in blocks; xt is rows of _aug."""
        order, groups = self._row_groups(q)
        grouped = q if order is None else q[order]
        sums = np.empty((q.shape[0], xt.shape[0]))
        grouped_sums = sums if order is None else np.empty_like(sums)
        for rows, cols in groups:
            aug, part = (self._aug, xt) if cols is None else (self._aug[:, cols], xt[:, cols])
            rows_q, rows_sums = grouped[rows], grouped_sums[rows]
            for block in _row_blocks(rows_q.shape[0], aug.shape[1]):
                at = rows_q[block]
                w = self._exp_weights(at) if cols is None else self._kernel_weights(at, aug)
                rows_sums[block] = sample_sum(w, part)
                del w  # free this block before the next is built
        if order is not None:  # back to the rows' order in q
            sums[order] = grouped_sums
        return sums

    def _mean_shift(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Density and mean-shift target c + sum_i w_i (X_i - c) / sum_i w_i at each
        query row, as (m,) and (m, d); the target is NaN where sum_i w_i = 0."""
        s = self._weighted_sums(q, self._aug[:self.d + 1])
        with np.errstate(invalid="ignore"):  # 0 / 0 in rows with no weight at all
            return self._norm * s[:, self.d], self._center + s[:, :self.d] / s[:, self.d:]

    # -- evaluations --

    def density(self, x):
        """Density at x: scalar for a (d,) query, (m,) array for (m, d)."""
        q, single = _as_query(x, self.d)
        vals = self._norm * self._weighted_sums(q, self._aug[self.d:self.d + 1])[:, 0]
        return float(vals[0]) if single else vals

    def gradient(self, x):
        """Gradient of the density at x: (d,) for a single query, else (m, d)."""
        q, single = _as_query(x, self.d)
        s = self._weighted_sums(q, self._aug[:self.d + 1])
        # grad p(x) = -norm/h^2 * sum_i w_i (x - X_i), with x - X_i = (x - c) - (X_i - c)
        g = -(self._norm / self.h**2) * ((q - self._center) * s[:, self.d:] - s[:, :self.d])
        return g[0] if single else g

    def _grid_density(self, axes) -> np.ndarray:
        """Density on the product grid of `axes`, as an array of the grid's shape.

        Each tile's leading-axes weights are contracted with its last-axis
        factor over the sample (sample_sum), so the values have the same
        bits at any BLAS thread count.
        """
        tiles = self._grid_tiles(axes)  # checks the axes
        values = np.empty([len(a) for a in axes])
        for box, factors in tiles:
            lead = _tile_weights([np.ones((1, self.n)), *factors[:-1]])
            tile = self._norm * sample_sum(lead, factors[-1])
            values[box] = tile.reshape([f.shape[0] for f in factors])
            del factors, lead  # free this tile before the next is built
        return values

    def hessian(self, x) -> np.ndarray:
        """Hessian of the density at a single point x, an exactly symmetric (d, d) matrix."""
        q, single = _as_query(x, self.d)
        if not single:
            raise ValueError("hessian evaluates one point at a time")
        hess = self._hessians(np.ones((1, self.n)), self._hessian_terms(q[0]))[0]
        if not np.all(np.isfinite(hess)):
            raise ValueError("non-finite Hessian")
        return hess

    # -- Hessians of reweighted samples, shared with the bootstrap --

    def _hessian_terms(self, at: np.ndarray) -> np.ndarray:
        """Per-point Hessian contributions at a fixed point, as (d(d+1)/2, n).

        Row r holds e_i * (u_i u_i^T - I) at lower-triangle entry
        np.tril_indices(d)[r], with u_i = (at - X_i) / h and
        e_i = exp(-||u_i||^2 / 2), flushed to 0 below the smallest normal
        float (_exp_flushed).
        """
        # The exponent comes from the differences u_i directly, not from
        # _exp_weights' expansion, for accuracy: the expansion cancels terms
        # of size ||X - c||^2 / h^2 about the sample mean c.  With 200 points
        # in two clusters 60 h apart, against an np.longdouble reference,
        # Hessians from its weights were off by up to 4.8e-14 (d = 2) and
        # 1.5e-13 (d = 10) of the largest entry, and this form's by 3.6e-16
        # and 1e-15.
        # u from points as given (a strided transpose, not a contiguous copy)
        # fixes the summation order of ||u_i||^2, on which reported bits depend.
        u = (at[:, None] - self.points.T) / self.h  # (d, n)
        e = self._exp_flushed(-0.5 * np.sum(u**2, axis=0),
                              np.sum((at - self._center) ** 2) / (2.0 * self.h**2))
        rows, cols = np.tril_indices(self.d)
        terms = u[rows] * u[cols] * e
        terms[rows == cols] -= e
        return terms

    def _hessians(self, counts: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """(B, d, d) Hessians of the density with point i weighted by counts[b, i].

        Unit counts give the model's own Hessian; bootstrap counts give the
        Hessian of each resample.
        """
        scale = (2.0 * np.pi) ** (-0.5 * self.d) / (self.n * self.h ** (self.d + 2))
        vech = scale * sample_sum(counts, terms)  # (B, d(d+1)/2)
        rows, cols = np.tril_indices(self.d)
        mats = np.zeros((vech.shape[0], self.d, self.d))
        mats[:, rows, cols] = vech
        mats[:, cols, rows] = vech
        return mats
