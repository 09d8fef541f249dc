"""Gaussian kernel density estimation with exact first and second derivatives.

The estimator is the standard multivariate KDE with a single scalar
bandwidth ``h`` (isotropic Gaussian kernel, covariance ``h**2 * I``):

    p(x) = (1/n) * sum_i (2*pi)**(-d/2) * h**(-d) * exp(-||x - X_i||**2 / (2 h**2))

Because the kernel is Gaussian, gradient and Hessian are available in
closed form from the exponential weights.  Each kernel mechanism is stated
once, by the code that enforces it:

- the sample as one padded operand about its mean: DensityModel.__init__
- the query exponent as one product with that operand: _kernel_weights
- every kernel exponential, with sub-tiny weights flushed to exact 0: _exp_flushed
  (query weights, Hessian terms, and the grid and band factors of _axis_factor)
- cell pruning: _kept_cells, with rows grouped by their run in _weighted_sums
- memory: every (rows, sample) temporary in row blocks of at most _ROW_ENTRIES entries
  (_row_blocks), grid tiles within _BLOCK_ENTRIES (_grid_tiles)
- BLAS thread invariance: sample_sum (ddot) and the _PAD comment (GEMM), both checked by
  experiment; the bootstrap Hessians' product is exact, so invariant by arithmetic: _hessians;
  the sums that polish each mode take no BLAS product at all: _stationary_sums
- grids from per-axis factors, made once per span of each axis, in bounded tiles: _grid_tiles
- the persistence band's exact product: persist._exact_deviations, and the sample
  points and grid points it skips, by a bound from the weights and one interpolated
  along the last axis between exact anchor points: persist.bootstrap_band
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DensityModel", "as_points"]

_ROW_ENTRIES = 1 << 18  # entries per block of a (rows, sample) array (_row_blocks): 2 MB of float64
_BLOCK_ENTRIES = 1 << 21  # entries per grid tile and its factors (_grid_tiles): 16 MB of float64
_DIRECT_ENTRIES = 1 << 17  # (query, coordinate, sample) entries per block of _stationary_sums: 1 MB
_CELL_POINTS = 512  # sample points per cell at most (_split_cells); one cell takes no bound work
# Columns of _aug per cell are a multiple of _PAD, so every exponent product is a multiple of
# 8 columns wide; OpenBLAS 0.3.31 splits such a GEMM the same way at any thread count (at other
# widths it did not; checked by experiment, tests/test_threads.py).  Should that fail, numpy's
# fixed-order np.einsum("md,dn->mn") is the slower fallback.  A row's bits can depend on its batch.
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


def _check_integer(value, key: str, low: int) -> None:
    """Raise ValueError naming `key` unless value is an integer >= low; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{key} must be >= {low} and an integer, got {value!r}")


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
    """Consecutive row slices of an (m, width) array, each within _ROW_ENTRIES entries.

    Kernel weights, squared distances and bootstrap count blocks take these row
    blocks.  Their products are thin, bound by memory traffic, so larger blocks
    buy no speed: ten_dim's mean shift took 0.35-0.40 s with 16 MB weight blocks
    and 0.31-0.33 s with these (2-vCPU Xeon, one BLAS thread).  Grid tiles keep
    their own, larger budget, _BLOCK_ENTRIES (_grid_tiles): within _ROW_ENTRIES,
    they made persist_3d's grid and band twice as slow.
    """
    step = max(1, _ROW_ENTRIES // max(1, width))
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
        with np.errstate(over="ignore"):  # an infinite spread is widest; DensityModel refuses it
            widest = np.argmax(np.ptp(sub, axis=0))
        order[lo:hi] = order[lo:hi][np.argsort(sub[:, widest], kind="stable")]
        stack += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return order, np.array(starts + [pts.shape[0]])


# --- fixed-order reduction over the sample ----------------------------------

def sample_sum(w: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """sum_i w[j, i] * xt[k, i] as an (m, k) matrix, for w (m, n) and xt (k, n).

    Each (j, k) entry is one np.vecdot, a BLAS ddot, per chunk of at most
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
    after construction: evaluations are safe to call concurrently and do not
    depend on the caller's memory layout.  The module docstring maps each
    kernel mechanism to the code that states it.
    """

    def __init__(self, points, h: float):
        pts = as_points(points)
        h = float(h)
        if not (h > 0.0 and np.isfinite(h)):
            raise ValueError(f"bandwidth must be positive and finite, got {h}")
        n, d = pts.shape
        try:  # h^2, (2*pi)**(-d/2) / (n * h**d) and the Hessians' / (n * h**(d+2))
            scales = (h**2, (2.0 * np.pi) ** (-0.5 * d) / (n * h**d),
                      (2.0 * np.pi) ** (-0.5 * d) / (n * h ** (d + 2)))
        except (OverflowError, ZeroDivisionError):  # a power of h out of range
            scales = (0.0,)
        if not all(np.finfo(np.float64).tiny <= s < np.inf for s in scales):
            raise ValueError(f"bandwidth {h} is out of range for {n} points in {d} dimensions: "
                             "h^2, 1 / (n h^d) or 1 / (n h^(d+2)) is not a finite normal float")
        # _aug takes the sample cell after cell, cell C in columns _cell_start[C] on, so the
        # cells a query row keeps are one run of columns; points keeps the sample order.
        # Split first, so that its temporaries are freed before any array the model keeps.
        order, starts = _split_cells(pts)
        # A private C-ordered copy: the caller's array stays writable, and
        # summation orders (hence bits) do not depend on its memory layout.
        self.points = pts = pts.copy()
        self.points.setflags(write=False)
        self.n, self.d, self.h = n, d, h
        self._norm, self._hessian_scale = scales[1:]
        # _aug's rows are (X - c)^T, 1 and ||X - c||^2 / 2h^2 about the sample mean c, so that
        # cancellation error does not grow with the data's distance from the origin.
        with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
            self._center = np.mean(pts, axis=0)
            centered = pts[order]
            centered -= self._center
            half_sq = np.sum(centered**2, axis=1) / (2.0 * h**2)
        self._reach = float(np.sqrt(np.max(half_sq)))  # max ||X - c|| / (sqrt(2) h)
        if not np.isfinite(self._reach):
            raise ValueError(f"bandwidth {h} is out of range for this sample: "
                             "max ||X - c||^2 / 2h^2 overflows about its mean c")
        # Each cell takes a multiple of _PAD columns of _aug: its points, then dummies
        # (coordinates 0, unit row 0, last row _DUMMY_HALF_SQ) whose weights are exactly 0.
        counts = np.diff(starts)
        self._cell_start = np.concatenate([[0], np.cumsum(-(-counts // _PAD) * _PAD)])
        columns = np.arange(self.n) + np.repeat(self._cell_start[:-1] - starts[:-1], counts)
        # _aug starts on a 64-byte boundary, and so then does every cell's run of columns; a
        # misaligned _aug made ten_dim's find_modes 17% slower (2-vCPU Xeon, one BLAS thread).
        shape = (self.d + 2, self._cell_start[-1])
        buf = np.zeros(shape[0] * shape[1] + _PAD)
        start = -buf.ctypes.data % 64 // buf.itemsize
        self._aug = buf[start:start + shape[0] * shape[1]].reshape(shape)
        self._aug[-1] = _DUMMY_HALF_SQ
        self._aug[:self.d, columns] = centered.T
        self._aug[self.d, columns] = 1.0
        self._aug[-1, columns] = half_sq
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
        """exp(-||q_j - X_i||^2 / (2 h^2)) over every column of _aug, as an (m, N) matrix."""
        return self._kernel_weights(q, self._aug)

    def _kernel_weights(self, q: np.ndarray, aug: np.ndarray) -> np.ndarray:
        """exp(-||q_j - X_i||^2 / (2 h^2)) over the sample points of aug, (d + 2, k)
        columns of _aug, as an (m, k) matrix."""
        # Exponent via the expansion (q.x - ||q||^2/2 - ||x||^2/2) / h^2 of the
        # centered q = q_j - c and x = X_i - c, as one product with aug whose last two
        # terms, -||q||^2/2h^2 times 1 and -1 times ||x||^2/2h^2, are exact, like subtractions.
        # A padding column's exponent is exactly -_DUMMY_HALF_SQ, so its weight exactly 0.
        # There is no clip at 0: cancellation can leave an exponent a few eps * (||q||^2 +
        # ||x||^2)/2h^2 above 0, and its weight that much above 1.  That is the expansion's own
        # rounding, which moves every weight near it as much, and no bound needs a weight <= 1.
        # A row whose ||q||^2 / 2h^2 overflows lies farther from c than every sample point, whose
        # ||x||^2 / 2h^2 is finite: it becomes q = 0, its exponents -_DUMMY_HALF_SQ or less.
        with np.errstate(over="ignore"):
            q = q - self._center
            half_sq = np.sum(q**2, axis=1) / (2.0 * self.h**2)
        far = half_sq == np.inf
        q[far], half_sq[far] = 0.0, _DUMMY_HALF_SQ
        w = np.column_stack([q / self.h**2, -half_sq, -np.ones(q.shape[0])]) @ aug
        return self._exp_flushed(w, np.max(half_sq, initial=0.0))

    def _exp_flushed(self, x: np.ndarray, half_sq: float) -> np.ndarray:
        """exp(x) in place, for kernel exponents x of queries q at most sqrt(2 half_sq) h
        from c, or of grid coordinates a on axis j at most that far from c_j.

        By the triangle inequality, ||q - X_i|| <= ||q - c|| + ||X_i - c|| and
        |a - X_ij| <= |a - c_j| + ||X_i - c||, so -x <= (sqrt(half_sq) + _reach)^2
        and only past _FLUSH_REACH can an exponent fall below _LOG_TINY.  There the
        sub-tiny weights are flushed to exact 0 (exp(-inf)) instead of taking
        np.exp's subnormal path; every other weight keeps its bits.
        """
        if np.sqrt(half_sq) + self._reach > _FLUSH_REACH:
            np.copyto(x, -np.inf, where=x < _LOG_TINY)
        return np.exp(x, out=x)

    def _axis_factor(self, j: int, a: np.ndarray, half_sq: float) -> np.ndarray:
        """exp(-((a_r - X_ij) / h)^2 / 2) as a (len(a), n) matrix, from direct differences,
        for coordinates a_r with (a_r - c_j)^2 / 2h^2 at most half_sq (_exp_flushed)."""
        f = a[:, None] - self.points[:, j]
        f /= self.h
        f *= f
        f *= -0.5
        return self._exp_flushed(f, half_sq)

    def _grid_tiles(self, axes, width: int = 0):
        """(box, lead, last) over the tiles of the product grid of `axes`.

        box is a tuple of slices into the grid, and the tile's weight at its
        point (a, b), in C order, is lead[a] * last[b]: lead (t_1 ... t_{d-1}, n)
        is a row of ones times the leading axes' factors in axis order, last
        (t_d, n) the last axis' factor (_axis_factor).  On a product grid the
        kernel factors over the axes, exp(-||g - X_i||^2 / 2h^2) =
        prod_j exp(-(g_j - X_ij)^2 / 2h^2), so the weights take
        (t_1 + ... + t_d) n exponentials, not t_1 ... t_d n.  lead is fresh
        for each tile, and the caller may scale it in place.  One recursion
        over the axes, the last outermost and axis 0 innermost (_tiles), makes
        each span's factor once, read-only, keeps it while the tiles within
        the span are yielded and frees it before the next span's is made: at
        most one factor per axis is alive.  A tile and the factors it is built
        from stay within _BLOCK_ENTRIES entries together: n + width per point
        of the tile, for its weight rows and a (width, tile) product of them
        alive at once, n per row of each leading axis' factor, and 2n per row
        of the last axis' factor, for the factor and an error matrix the
        caller may make from it (persist.bootstrap_band).  Tiles take whole
        runs of the last axes first; the layout depends only on the grid
        shape, n and width.  The axes are checked in this call, before any
        tile is built (_as_axes).
        """
        axes = _as_axes(axes, self.d)
        half_sq = [np.max((a - c) ** 2) / (2.0 * self.h**2) for a, c in zip(axes, self._center)]
        return self._tiles(axes, half_sq, self.d - 1, _BLOCK_ENTRIES, self.n + width, (), ())

    def _tiles(self, axes, half_sq, j, left, per_point, box, factors):
        """The tiles of _grid_tiles within `box`, spans of axes j + 1 on with these
        `factors`, within `left` entries for the factors of axes j and below and the
        tile's points, of which each point of axis j brings `per_point` entries' worth;
        j = -1 is one tile.  Each span of axis j leaves room for one point of every
        axis below it.  A method: a nested generator calling itself by name would form
        a reference cycle through its closure that keeps the model alive until a gc
        collection."""
        if j < 0:  # returns after its one tile, freeing lead before the next span's factor
            lead = np.ones((1, self.n))
            for f in factors[:-1]:
                lead = (lead[:, None, :] * f).reshape(-1, self.n)
            yield box, lead, factors[-1]
            return
        rows = 2 if j == self.d - 1 else 1  # entries per factor row, in units of n
        t = min(axes[j].size, max(1, (left - j * self.n) // (rows * self.n + per_point)))
        for s in (slice(lo, lo + t) for lo in range(0, axes[j].size, t)):
            f = self._axis_factor(j, axes[j][s], half_sq[j])
            f.setflags(write=False)
            yield from self._tiles(axes, half_sq, j - 1, left - rows * t * self.n,
                                   per_point * t, (s, *box), (f, *factors))
            del f  # free this span's factor before the next is made

    def _kept_cells(self, q: np.ndarray) -> np.ndarray:
        """The cells each query row keeps: an (m, 2) matrix of the first and one
        past the last cell, in the order of _aug, that the row's bounds cannot drop.

        With D the distance from q_j to a cell's center, r its radius and n_C
        its count, the cell's summed weight lies between
        n_C exp(-(D + r)^2 / 2h^2) and n_C exp(-max(0, D - r)^2 / 2h^2).  A
        cell can be dropped when its upper bound is below 2^-53 / cells of
        the largest lower bound, so a row drops at most 2^-53 of its
        sum_i w_i; the row keeps the run of cells from the first to the last
        it cannot drop.  With R = max_i ||X_i - c|| + ||q_j - c||, that moves
        the density by at most 2^-53 of itself, the gradient by at most
        2^-53 p(q_j) R / h^2 and the mean-shift target by about 2^-53 R; grids
        and Hessian terms take every point.  Distances and exponents carry a
        _BOUND_SLACK margin for their rounding.  D comes from direct
        differences, one coordinate at a time over every cell, in numpy's own
        elementwise loops: a row's cells depend on the row alone, not on its
        batch or the BLAS thread count.
        """
        cells = self._cell_log_n.size
        kept = np.empty((q.shape[0], 2), dtype=np.intp)
        # about eight (rows, cells) arrays are alive at once, within half the row budget as
        # _weighted_sums' weights are; each row's bounds are its own, whatever its block
        for rows in _row_blocks(q.shape[0], 16 * cells):
            with np.errstate(over="ignore"):  # an overflow is a bound of -inf: weight 0
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

    def _weighted_sums(self, q: np.ndarray, xt: np.ndarray) -> np.ndarray:
        """sum_i w_ji xt[k, i] per query row q_j, as (m, k), over the run of cells the
        row keeps (_kept_cells), in blocks; xt is rows of _aug.

        Rows are ordered stably by their run, and each run's rows take that run's
        columns of _aug, a view; rows that keep every cell take the whole sample
        through _exp_weights.  A model of one cell does no bound work and no sort.
        A block of weights takes at most half the row budget: beside it are its
        flush mask (_exp_flushed), the (m, k) sums and the rows' order, and on
        20,000 queries all of them take at most 1.25 budgets (tests/test_kde.py).
        """
        cells = self._cell_log_n.size
        order, edges, runs = np.arange(q.shape[0]), [0, q.shape[0]], [(0, 1)]
        if cells > 1:
            kept = self._kept_cells(q)
            key = kept[:, 0] * (cells + 1) + kept[:, 1]
            del kept
            order = np.argsort(key, kind="stable")
            keys, first = np.unique(key[order], return_index=True)
            edges, runs = [*first, q.shape[0]], [divmod(int(k), cells + 1) for k in keys]
            del key
        sums = np.empty((q.shape[0], xt.shape[0]))
        for start, stop, (lo, hi) in zip(edges, edges[1:], runs):
            cols = slice(*self._cell_start[[lo, hi]])
            aug, part = self._aug[:, cols], xt[:, cols]
            for block in _row_blocks(stop - start, 2 * aug.shape[1]):
                rows = order[start:stop][block]
                at = q[rows]
                w = self._exp_weights(at) if hi - lo == cells else self._kernel_weights(at, aug)
                sums[rows] = sample_sum(w, part)
                del w  # free this block before the next is built
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
        """Density on the product grid of `axes`, as an array of the grid's shape: each
        tile's leading-axes weights contracted with its last-axis factor (sample_sum)."""
        tiles = self._grid_tiles(axes)  # checks the axes
        values = np.empty([len(a) for a in axes])
        for box, lead, last in tiles:
            values[box] = (self._norm * sample_sum(lead, last)).reshape(values[box].shape)
            del lead, last  # free this tile before the next is built
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

    def _stationary_sums(self, q: np.ndarray, hessian: bool):
        """(density, gs, hs) at each row of q, (m, d): the density norm * sum_i e_i,
        gs = sum_i e_i u_i as (m, d) and, if hessian, hs = sum_i e_i (u_i u_i^T - I)
        as (m, d, d), else None, with u_i = (q_j - X_i) / h and e_i = exp(-||u_i||^2 / 2)
        from direct differences, flushed as in _hessian_terms.

        The gradient is -norm / h * gs and the Hessian norm / h^2 * hs.  Each
        sum over the sample is numpy's pairwise sum along a contiguous last
        axis, with no BLAS product, so a row's bits depend neither on its
        batch nor on the BLAS thread count.  hs[j, a, b] multiplies e_i u_ia
        by u_ib, so it need not equal hs[j, b, a] in the last bit.  Rows go in
        blocks of at most _DIRECT_ENTRIES (row, coordinate, point) entries.
        """
        m, d = q.shape
        density, gs = np.empty(m), np.empty((m, d))
        hs = np.empty((m, d, d)) if hessian else None
        step = max(1, _DIRECT_ENTRIES // (d * self.n))
        # a C-ordered copy: with the strided points.T, u came out ordered (rows, n, d), and
        # every sum over the sample ran 10 to 20 times slower
        points_t = np.ascontiguousarray(self.points.T)
        for rows in (slice(lo, lo + step) for lo in range(0, m, step)):
            u = q[rows, :, None] - points_t  # (rows, d, n)
            u /= self.h
            e = self._exp_flushed(-0.5 * np.sum(u**2, axis=1),
                                  np.max(np.sum((q[rows] - self._center) ** 2, axis=1))
                                  / (2.0 * self.h**2))
            total = np.sum(e, axis=1)
            density[rows] = self._norm * total
            eu = e[:, None, :] * u
            gs[rows] = np.sum(eu, axis=2)
            if hessian:
                for a in range(d):
                    hs[rows, a] = np.sum(eu[:, a, None, :] * u, axis=2)
                hs[rows, range(d), range(d)] -= total[:, None]
        return density, gs, hs

    def _hessian_terms(self, at: np.ndarray, out: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point Hessian contributions at a fixed point, split for _hessians'
        exact product, as (slices, shift); the slices are written into out, a
        C-ordered (2K, n) float64 array, when it is given.

        The terms are K = d(d+1)/2 rows over the n points: row r holds
        e_i * (u_i u_i^T - I) at lower-triangle entry np.tril_indices(d)[r],
        with u_i = (at - X_i) / h and e_i = exp(-||u_i||^2 / 2), flushed to 0
        below the smallest normal float (_exp_flushed).  Row r is scaled
        exactly by 2^shift[r], so that its largest magnitude lies in
        [2^(beta-1), 2^beta) (_split_bits), and split into two integer
        slices: slices[r] = rint(t) and slices[K + r] = rint((t - rint(t)) 2^beta)
        of the scaled row t, which hold t to within 2^-(beta+1).
        """
        # The exponent comes from the differences u_i, not _exp_weights' expansion, which
        # cancels terms of size ||X - c||^2 / h^2: with 200 points in two clusters 60 h apart,
        # against an np.longdouble reference, Hessians from its weights were off by up to
        # 4.8e-14 (d = 2) and 1.5e-13 (d = 10) of the largest entry, this form's by 3.6e-16
        # and 1e-15.
        # u from points as given (a strided transpose, not a contiguous copy)
        # fixes the summation order of ||u_i||^2, on which reported bits depend.
        u = (at[:, None] - self.points.T) / self.h  # (d, n)
        e = self._exp_flushed(-0.5 * np.sum(u**2, axis=0),
                              np.sum((at - self._center) ** 2) / (2.0 * self.h**2))
        rows, cols = np.tril_indices(self.d)
        # The terms are built in the second slice's rows, one row at a time, and split in
        # place there, so no other (K, n) array is made.
        slices = np.empty((2 * rows.size, self.n)) if out is None else out
        lead, terms = slices[:rows.size], slices[rows.size:]
        for r, (i, j) in enumerate(zip(rows, cols)):
            np.multiply(u[i], u[j], out=terms[r])
        terms *= e
        terms[rows == cols] -= e
        beta = _split_bits(self.n)
        _, top = np.frexp(np.maximum(terms.max(axis=1), -terms.min(axis=1)))
        shift = beta - top  # a zero row has top 0 and stays zero
        np.ldexp(terms, shift[:, None], out=terms)
        np.rint(terms, out=lead)
        terms -= lead  # exact: each entry's distance to its nearest integer
        np.ldexp(terms, beta, out=terms)
        np.rint(terms, out=terms)
        return slices, shift

    def _hessians(self, counts: np.ndarray, split: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """(B, d, d) Hessians of the density with point i weighted by counts[b, i],
        from the split terms of _hessian_terms.

        Unit counts give the model's own Hessian; bootstrap counts give the
        Hessian of each resample.  Counts must be nonnegative integers whose
        rows sum to at most 2^ceil(log2 n), as both do.

        Why the product counts @ slices.T is exact: every slice entry is an
        integer of magnitude at most 2^beta, beta = 53 - ceil(log2 n)
        (_split_bits), and each row of counts sums to at most 2^(53 - beta).
        So every product c_bi * s_ri and every partial sum of them, in any
        grouping, is an integer of magnitude at most 2^53, which float64
        holds exactly.  The product therefore has the same bits in any
        summation order, at any BLAS thread split and with or without fused
        multiply-adds: the Hessians' thread invariance rests on arithmetic,
        not on the library.  The two slices' sums are added in one rounding,
        then the row scaling is undone exactly, by a power of two (but for
        results below the smallest normal float), and the result times the
        kernel's constant is rounded once more (_hessian_mats).  So a product
        over many candidates' slices stacked by rows gives each candidate's
        columns the same bits (boot._boot).
        """
        slices, shift = split
        return _hessian_mats(counts @ slices.T, shift, self._hessian_scale, self.n)


def _hessian_mats(sums: np.ndarray, shift: np.ndarray, scale: float, n: int) -> np.ndarray:
    """(B, d, d) Hessians from the (B, 2K) exact sums counts @ slices.T of one split
    (slices, shift) of DensityModel._hessian_terms, on a model of n points whose
    Hessians' kernel constant is scale (DensityModel._hessian_scale)."""
    k = shift.size
    vech = scale * np.ldexp(sums[:, :k] + np.ldexp(sums[:, k:], -_split_bits(n)), -shift)
    d = (math.isqrt(8 * k + 1) - 1) // 2  # k = d(d+1)/2
    rows, cols = np.tril_indices(d)
    mats = np.zeros((vech.shape[0], d, d))
    mats[:, rows, cols] = vech
    mats[:, cols, rows] = vech
    return mats


def _split_bits(n: int) -> int:
    """beta = 53 - ceil(log2 n), the bits of each slice of _hessian_terms' split: counts
    whose total is at most 2^ceil(log2 n) times integers of magnitude at most 2^beta
    sum to at most 2^53."""
    return 53 - (n - 1).bit_length()
