"""Gaussian kernel density estimation with exact first and second derivatives.

The estimator is the standard multivariate KDE with a single scalar
bandwidth ``h`` (isotropic Gaussian kernel, covariance ``h**2 * I``):

    p(x) = (1/n) * sum_i (2*pi)**(-d/2) * h**(-d) * exp(-||x - X_i||**2 / (2 h**2))

Because the kernel is Gaussian, gradient and Hessian are available in
closed form from the same exponential weights, so a single pass over the
data yields density, gradient and Hessian together.  Evaluation is exact
O(n) per query point; no tree or binning approximation is used.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DensityModel", "as_points"]

_BLOCK_ENTRIES = 1 << 21  # (query, sample) entries per kernel-weight block: 16 MB of float64


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


def _row_blocks(m: int, width: int):
    """Consecutive row slices of an (m, width) array, each within _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return (slice(lo, lo + step) for lo in range(0, m, step))


# --- fixed-order reduction over the sample ----------------------------------

def sample_sum(w: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """sum_i w[j, i] * xt[k, i] as an (m, k) matrix, for w (m, n) and xt (k, n).

    Every reduction over the n sample points goes through here.  np.einsum
    without ``optimize`` runs numpy's own single-threaded loops and never
    calls BLAS, whose multi-threaded GEMM splits such sums in an order that
    depends on the thread count; so the result has the same bits at any
    BLAS thread count.  Both operands should be C-contiguous along n.
    """
    return np.einsum("mn,kn->mk", w, xt)


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
    The model is immutable after construction; all evaluations are pure
    functions of (points, h, query) and safe to call concurrently.
    """

    def __init__(self, points, h: float):
        pts = as_points(points)
        h = float(h)
        if not (h > 0.0 and np.isfinite(h)):
            raise ValueError(f"bandwidth must be positive and finite, got {h}")
        self.points = pts
        self.points.setflags(write=False)
        self.n, self.d = pts.shape
        self.h = h
        # (2*pi)**(-d/2) / (n * h**d): the shared normalizing constant.
        self._norm = (2.0 * np.pi) ** (-0.5 * self.d) / (self.n * h**self.d)
        # (d, n) contiguous copy: the second operand of every sample_sum.
        self._points_t = np.ascontiguousarray(pts.T)
        # ||X_i||^2 / (2 h^2), the query-independent term of the kernel exponent.
        self._half_sq = np.sum(pts**2, axis=1) / (2.0 * h**2)

    # -- kernel weights shared by every evaluation --

    def _exp_weights(self, q: np.ndarray) -> np.ndarray:
        """exp(-||q_j - X_i||^2 / (2 h^2)) as an (m, n) matrix."""
        # Exponent via the expansion (q.x - ||q||^2/2 - ||x||^2/2) / h^2, built,
        # clipped and exponentiated in one buffer.  The matmul contracts over
        # the d coordinates only; reductions over the sample go through
        # sample_sum, never BLAS.
        w = (q / self.h**2) @ self._points_t
        w -= (np.sum(q**2, axis=1) / (2.0 * self.h**2))[:, None]
        w -= self._half_sq[None, :]
        np.minimum(w, 0.0, out=w)  # clip tiny positives from cancellation
        return np.exp(w, out=w)

    def _blocks(self, q: np.ndarray, width: int = 0):
        """(rows, _exp_weights(q[rows])) over row blocks sized for width max(n, width)."""
        for rows in _row_blocks(q.shape[0], max(self.n, width)):
            yield rows, self._exp_weights(q[rows])

    def _weighted_sums(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum_i w_ji, sum_i w_ji X_i) for each query row q_j, as (m,) and (m, d)."""
        wsum = np.empty(q.shape[0])
        wx = np.empty((q.shape[0], self.d))
        for rows, w in self._blocks(q):
            wsum[rows] = np.sum(w, axis=1)
            wx[rows] = sample_sum(w, self._points_t)
            del w  # free this block before the generator builds the next
        return wsum, wx

    # -- evaluations --

    def density(self, x):
        """Density at x: scalar for a (d,) query, (m,) array for (m, d)."""
        q, single = _as_query(x, self.d)
        vals = np.empty(q.shape[0])
        for rows, w in self._blocks(q):
            vals[rows] = self._norm * np.sum(w, axis=1)
            del w  # free this block before the generator builds the next
        return float(vals[0]) if single else vals

    def gradient(self, x):
        """Gradient of the density at x: (d,) for a single query, else (m, d)."""
        q, single = _as_query(x, self.d)
        wsum, wx = self._weighted_sums(q)
        # grad p(x) = -norm/h^2 * sum_i w_i * (x - X_i) = -norm/h^2 * (x * sum_i w_i - w @ X)
        g = -(self._norm / self.h**2) * (q * wsum[:, None] - wx)
        return g[0] if single else g

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
        e_i = exp(-||u_i||^2 / 2).
        """
        # The exponent comes from the differences u_i directly, not from
        # _exp_weights' expansion, for accuracy: the expansion cancels terms
        # of size ||X||^2 / h^2.  With 200 points 1,000 h from the origin,
        # against an np.longdouble reference, its weights were off by up to
        # 1.2e-10 (d = 2) and 2.1e-10 (d = 10) relative, and this form's by
        # 6e-16 and 1.9e-15; the Hessians by 3e-11 against 3e-16.
        # The strided points.T (not the contiguous _points_t) fixes the
        # summation order of ||u_i||^2, on which reported bits depend.
        u = (at[:, None] - self.points.T) / self.h  # (d, n)
        e = np.exp(-0.5 * np.sum(u**2, axis=0))
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
