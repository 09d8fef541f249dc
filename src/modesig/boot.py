"""Bootstrap confidence sets for Hessian eigenvalues at a fixed point.

The resampled quantity is the KDE Hessian at a *fixed* query point (the
candidate mode found on the other half of the data).  Each replicate
draws n points with replacement, recomputes the Hessian, and records its
sorted eigenvalues together with their elementary symmetric polynomials
(ESP).  Inference runs on the ESP scale — an L-infinity hypercube around
the point estimate — and eigenvalue intervals are read off the retained
replicates, which sidesteps the non-smoothness of eigenvalues at ties.

Replicate b draws from ``default_rng([seed, b])``, so draws are
reproducible and independent of any execution schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kde import DensityModel, _check_integer, _hessian_mats, _row_blocks
from .modes import ModeCandidate

__all__ = [
    "BootstrapDraws",
    "EspConfidenceSet",
    "EigenPortrait",
    "bootstrap_hessian_batch",
    "esp_forward",
    "esp_quantile",
    "eigen_rectangles",
    "test_significance",
]


@dataclass(frozen=True)
class BootstrapDraws:
    """B resampled eigenvalue/ESP rows plus the full-sample point estimate."""

    lambda_star: np.ndarray  # (B, d), each row sorted descending
    s_star: np.ndarray  # (B, d), row-wise ESP of lambda_star
    lambda_hat: np.ndarray  # (d,)
    s_hat: np.ndarray  # (d,)

    @property
    def B(self) -> int:
        return self.lambda_star.shape[0]


@dataclass(frozen=True)
class EspConfidenceSet:
    """Hypercube { s : ||s - center||_inf <= q } at confidence `level`."""

    center: np.ndarray
    q: float
    level: float


@dataclass(frozen=True)
class EigenPortrait:
    """Per-eigenvalue confidence rectangles for gamma = -lambda at one mode.

    rectangles[s] = [lo, hi] bounds gamma_{s+1}; c_interval is rectangles[0]
    (the top eigenvalue), and significant means its lower end is strictly
    positive — the curvature certificate for a true mode.
    """

    rectangles: np.ndarray  # (d, 2)
    c_interval: np.ndarray  # (2,)
    significant: bool
    level: float
    mode: ModeCandidate | None = None


# --- resampling core ---------------------------------------------------------

_GROUP_BYTES = 1 << 18  # split Hessian terms stacked into one product in _boot: 256 KB


def _resample_counts(n: int, B: int, seed: int) -> np.ndarray:
    """(B, n) multiplicity matrix: row b counts each data index in resample b.

    A count is at most n, so it is held exactly as uint16 when n <= 65535 and
    as uint32 otherwise: a quarter or half of float64's bytes.
    """
    counts = np.empty((B, n), dtype=np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32)
    for b in range(B):
        idx = np.random.default_rng([seed, b]).integers(0, n, size=n)
        counts[b] = np.bincount(idx, minlength=n)
    return counts


def esp_forward(lam) -> np.ndarray:
    """Elementary symmetric polynomials (s_1, ..., s_d) of lam, row by row.

    lam is one vector (d,) or a stack of rows (B, d); the result has the same
    shape.  Sorted eigenvalues map to the (sign-adjusted) coefficients of the
    characteristic polynomial.  Unlike the eigenvalues themselves, s is a
    smooth function of the matrix even at repeated roots, which is what makes
    it bootstrappable.  Computed by the Vieta recurrence: multiply out
    prod_i (t + lam_i) one root at a time.  O(d^2) per row and independent
    of the order of the entries.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam.ndim > 2:
        raise ValueError("lam must be a vector or a stack of row vectors")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lam contains non-finite entries")
    rows = np.atleast_2d(lam)
    B, d = rows.shape
    s = np.zeros((B, d + 1))
    s[:, 0] = 1.0
    for i in range(d):
        # e_k <- e_k + lam_i * e_{k-1} for all k at once; the RHS product is a
        # temporary, so the overlapping slices read pre-update values.
        s[:, 1 : i + 2] += rows[:, i : i + 1] * s[:, 0 : i + 1]
    return s[0, 1:] if lam.ndim == 1 else s[:, 1:]


def bootstrap_hessian_batch(Y, h: float, points, B: int, seed: int) -> list[BootstrapDraws]:
    """Bootstrap the KDE Hessian of Y at several fixed points.

    Parameters
    ----------
    Y : array-like, shape (n, d)
        The inference half of the data; resampling is with replacement
        from these points.
    h : float
        Bandwidth.
    points : sequence of array-like, each of shape (d,)
        Fixed evaluation points (candidate modes), e.g. the rows of a (k, d) array.
    B : int
        Number of bootstrap replicates (>= 1).
    seed : int
        Base seed (>= 0); replicate b uses the stream keyed by (seed, b).

    Each replicate's count vector depends only on (seed, b), so the draws
    at a point do not depend on which other points share the call.  B, seed
    and the points are checked before any resampling.
    """
    _check_integer(B, "B", 1)
    _check_integer(seed, "seed", 0)
    model = DensityModel(Y, h)
    points = [np.asarray(p, dtype=np.float64) for p in points]
    for i, at in enumerate(points):
        if at.shape != (model.d,) or not np.all(np.isfinite(at)):
            raise ValueError(f"point {i} must be {model.d} finite coordinates, got {at}")
    return list(_boot(((model, at) for at in points), _resample_counts(model.n, B, seed)))


def _boot(pairs, counts: np.ndarray):
    """Bootstrap draws of the Hessian at each (model, point) pair, yielded in order, one
    replicate per row of the (B, n) multiplicity matrix counts (_resample_counts); the
    models share their n points and differ at most in h.

    Consecutive pairs form groups whose split terms (DensityModel._hessian_terms),
    written straight into one buffer, take at most _GROUP_BYTES, or one pair's
    worth if that is more.  A group's product runs over its live columns only, the
    sample points at which some of its split rows are nonzero: far from a candidate
    the weights round to 0 in the split, so on two clusters half the columns are
    dead.  The split rows are compacted in place onto the live columns, and each
    row block of counts (kde._row_blocks) is gathered onto them and converted to
    float64 for one product with the buffer, which gives every pair's sums; a row
    of ones of the live width gives their point estimates.  A group with more than
    8 / (8 + counts.itemsize) of its columns live, 4/5 for uint16 counts, takes
    whole count blocks instead, so a gathered block and its float64 copy never
    take more bytes than a whole block's float64 copy.  Each pair's Hessians come
    from its own columns (kde._hessian_mats).

    Every sum is exact (DensityModel._hessians): a dead column adds c_bi * 0 = 0
    to integer partial sums that are exact in any order, so the bits depend
    neither on the live columns nor on the blocks or the groups.  A group's draws
    are yielded before the next group's terms are built, and a model is released
    once its pairs are read, so that pairs may build one model at a time.
    """
    B, n = counts.shape
    pairs, slices = iter(pairs), None
    while True:
        group = []  # (shift, scale) of each pair whose split is in slices
        for model, at in pairs:
            if slices is None:  # 2K = d(d + 1) rows per pair
                d, width = model.d, model.d * (model.d + 1)
                slices = np.empty((max(1, _GROUP_BYTES // (8 * width * n)) * width, n))
            rows = slices[len(group) * width:(len(group) + 1) * width]
            group.append((model._hessian_terms(at, out=rows)[1], model._hessian_scale))
            del model  # the caller's next model is not built while this one is held
            if len(group) * width == slices.shape[0]:
                break
        if not group:
            return
        stacked = slices[:len(group) * width]
        live = np.flatnonzero(np.any(stacked, axis=0))
        if live.size * (8 + counts.itemsize) > 8 * n:
            live = slice(None)  # every column, or too many to gather
        else:
            for row in stacked:  # in place, so no second (2K, n) array is made
                row[:live.size] = row[live]
            stacked = stacked[:, :live.size]
        sums = np.empty((B, stacked.shape[0]))
        for block in _row_blocks(B, n):
            np.matmul(counts[block, live].astype(np.float64), stacked.T, out=sums[block])
        hat = np.ones((1, stacked.shape[1])) @ stacked.T
        mats = np.empty((len(group), B + 1, d, d))  # each pair's B draws, then its estimate
        for g, (shift, scale) in enumerate(group):
            cols = slice(g * width, (g + 1) * width)
            mats[g, :B] = _hessian_mats(sums[:, cols], shift, scale, n)
            mats[g, B] = _hessian_mats(hat[:, cols], shift, scale, n)[0]
        # eigvalsh, a LAPACK call per matrix, sorts ascending; rows are reported descending
        lam = np.linalg.eigvalsh(mats)[..., ::-1]
        esp = esp_forward(lam.reshape(-1, d)).reshape(lam.shape)
        del mats, sums
        for g in range(len(group)):
            yield BootstrapDraws(lambda_star=lam[g, :B], s_star=esp[g, :B],
                                 lambda_hat=lam[g, B], s_hat=esp[g, B])


# --- confidence sets ---------------------------------------------------------

def ceil_order_statistic(values: np.ndarray, level: float) -> float:
    """Ascending order statistic at index ceil(B * level), 1-based.

    The epsilon guards binary round-up (100 * 0.95 is 94.999...94 in
    floats); the clip keeps the endpoints lawful for level -> 0 or 1.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    B = values.shape[0]
    i = int(np.ceil(B * level - 1e-9))
    return float(values[min(max(i, 1), B) - 1])


def esp_quantile(draws: BootstrapDraws, alpha_over_k: float) -> EspConfidenceSet:
    """Radius of the ESP hypercube: the smallest q with at most an
    alpha_over_k fraction of replicates outside it."""
    if not 0.0 < alpha_over_k < 1.0:
        raise ValueError("alpha_over_k must lie in (0, 1)")
    dist = np.max(np.abs(draws.s_star - draws.s_hat[None, :]), axis=1)
    q = ceil_order_statistic(dist, 1.0 - alpha_over_k)
    return EspConfidenceSet(center=draws.s_hat.copy(), q=q, level=1.0 - alpha_over_k)


def eigen_rectangles(draws: BootstrapDraws, cs: EspConfidenceSet) -> EigenPortrait:
    """Eigenvalue rectangles from the replicates retained by the hypercube.

    J = replicates whose ESP row lies in the hypercube; for each eigen
    index the rectangle spans [min, max] of -lambda over J.  J is never
    empty: the replicate attaining the quantile is itself retained.
    """
    dist = np.max(np.abs(draws.s_star - cs.center[None, :]), axis=1)
    J = dist <= cs.q
    if not np.any(J):
        raise AssertionError("retained set J is empty; quantile convention violated")
    gamma = -draws.lambda_star[J]
    rectangles = np.stack([gamma.min(axis=0), gamma.max(axis=0)], axis=1)
    c_interval = rectangles[0].copy()
    return EigenPortrait(
        rectangles=rectangles,
        c_interval=c_interval,
        significant=test_significance(c_interval),
        level=cs.level,
    )


def test_significance(interval) -> bool:
    """A mode certifies as significant iff its gamma_1 interval is strictly positive."""
    lo = float(np.asarray(interval, dtype=np.float64)[0])
    return lo > 0.0
