"""Reference implementations the tests compare the library against.

None of these is on the pipeline's path: each restates a quantity in its
textbook form, so a test can check the library's faster or fused version
against it.
"""

from dataclasses import replace

import numpy as np

from modesig import (DensityModel, ModeTestReport, bootstrap_hessian_batch, eigen_rectangles,
                     esp_quantile, find_modes, modes)
from modesig.boot import _resample_counts, ceil_order_statistic

MAX_DIM = 32
SYMMETRY_TOL = 1e-10


def sym_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    The input must be symmetric to within 1e-10 (absolute, relative to scale);
    it is symmetrized before the solve so the result is exactly that of
    (A + A.T)/2.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals = np.linalg.eigvalsh(0.5 * (a + a.T))
    return vals[::-1].copy()


def esp_inverse(s) -> np.ndarray:
    """Recover sorted-descending real roots from their ESP vector.

    Solves the monic polynomial t^d - s_1 t^{d-1} + s_2 t^{d-2} - ... = 0
    via the companion matrix.  If any root's imaginary part exceeds
    1e-6 * (1 + max |root|) the input is outside the image of esp_forward
    on real vectors and a ValueError is raised.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if s.ndim != 1 or s.shape[0] < 1 or not np.all(np.isfinite(s)):
        raise ValueError("s must be a finite, nonempty vector")
    d = s.shape[0]
    coeffs = np.empty(d + 1)
    coeffs[0] = 1.0
    signs = -np.ones(d)
    signs[1::2] = 1.0  # (-1)^k for k = 1..d
    coeffs[1:] = signs * s
    roots = np.roots(coeffs)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(roots))))
    if np.max(np.abs(roots.imag)) > tol:
        raise ValueError("ESP vector has complex roots: not in the image of esp_forward")
    return np.sort(roots.real)[::-1]


def all_negative(s) -> bool:
    """True iff every root of the ESP vector s is negative.

    Uses the sign test (-1)^k s_k > 0 for all k; no root finding involved.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    signs = -np.ones(s.shape[0])
    signs[1::2] = 1.0
    return bool(np.all(signs * s > 0.0))


def mean_shift_step(model, a) -> np.ndarray:
    """One mean-shift update: the mean of the sample weighted by
    exp(-||a - X_i||^2 / (2 h^2))."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] != model.d:
        raise ValueError(f"expected a point of dimension {model.d}")
    w = np.exp(-np.sum((a - model.points) ** 2, axis=1) / (2.0 * model.h**2))
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("empty neighborhood: all kernel weights underflowed to zero")
    return w @ model.points / total


def plain_mean_shift(model, max_iter=500):
    """find_modes from every sample point by the plain update x <- m(x), with no
    extrapolation and no capture, as (candidates, assignment).

    Each trajectory stops at the first point x with ||m(x) - x|| below
    STEP_TOL * h, or after max_iter steps; endpoints are merged by
    find_modes' own single linkage.  Only rows still moving are evaluated,
    one model._mean_shift call per sweep, so counting that call's rows
    counts the work.
    """
    step_tol = modes.STEP_TOL * model.h
    current = model.points.copy()
    m = current.shape[0]
    density, iterations = np.zeros(m), np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    min_ascent_delta = np.inf
    active = np.arange(m)
    for it in range(max_iter + 1):
        if active.size == 0:
            break
        p, target = model._mean_shift(current[active])
        if it:
            min_ascent_delta = min(min_ascent_delta, float(np.min(p - density[active])))
        density[active] = p
        step = np.linalg.norm(target - current[active], axis=1)
        done = step < step_tol
        finish = done | np.isnan(step) if it < max_iter else np.ones(active.size, dtype=bool)
        iterations[active[finish]] = it
        converged[active[finish]] = done[finish]
        active = active[~finish]
        current[active] = target[~finish]
    return modes._merge_candidates(model, current, density, iterations, converged,
                                   modes.MERGE_TOL * model.h, min_ascent_delta, 0, 0)


def kernel_weights(points, h, q) -> np.ndarray:
    """exp(-||q_j - X_i||^2 / 2h^2) as an (m, n) matrix in np.longdouble, from
    the direct differences q_j - X_i over every sample point."""
    L = np.longdouble
    u = (np.asarray(q, dtype=L)[:, None, :] - np.asarray(points, dtype=L)[None, :, :]) / L(h)
    return np.exp(-L(0.5) * np.sum(u * u, axis=2))


def hessian_terms(model, at) -> np.ndarray:
    """The per-point Hessian terms e_i * (u_i u_i^T - I) at `at`, as (d(d+1)/2, n)
    float64 rows in np.tril_indices order, with u_i = (at - X_i) / h and
    e_i = exp(-||u_i||^2 / 2): the float64 arithmetic that DensityModel._hessian_terms
    splits, so that a test can sum them in np.longdouble."""
    u = (np.asarray(at, dtype=np.float64)[:, None] - model.points.T) / model.h
    e = np.exp(-0.5 * np.sum(u**2, axis=0))
    rows, cols = np.tril_indices(model.d)
    terms = u[rows] * u[cols] * e
    terms[rows == cols] -= e
    return terms


def kde_reference(points, h, q) -> tuple:
    """Density, gradient and mean-shift target at the query rows q, in
    np.longdouble, from every sample point's weight (kernel_weights)."""
    L = np.longdouble
    pts = np.asarray(points, dtype=L)
    n, d = pts.shape
    w = kernel_weights(pts, h, q)
    norm = (2 * L(np.pi)) ** (-L(d) / 2) / (n * L(h) ** d)
    total = np.sum(w, axis=1)
    weighted = w @ pts
    grad = -(norm / L(h) ** 2) * (np.asarray(q, dtype=L) * total[:, None] - weighted)
    return norm * total, grad, weighted / total[:, None]


def grid_density(points, h, axes) -> np.ndarray:
    """The KDE on the product grid of `axes`, in np.longdouble.

    Every exponent comes from the direct differences g - X_i, summed over
    the coordinates before one exponential per (grid point, sample) pair.
    """
    L = np.longdouble
    pts = np.asarray(points, dtype=L)
    n, d = pts.shape
    mesh = np.meshgrid(*(np.asarray(a, dtype=L) for a in axes), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    u = (grid[:, None, :] - pts[None, :, :]) / L(h)
    dens = np.sum(np.exp(-L(0.5) * np.sum(u * u, axis=2)), axis=1)
    dens *= (2 * L(np.pi)) ** (-L(d) / 2) / (n * L(h) ** d)
    return dens.reshape(mesh[0].shape)


def bootstrap_band_reference(data, h, axes, alpha, B, seed) -> float:
    """bootstrap_band over the whole grid at once: the sample as given, every
    sample point in the product, weights rounded onto 2^-F and divided back.

    The weights are the products of per-axis factors in axis order, rounded
    onto the grid 2^-F of bootstrap_band's exactness argument, F from the
    sample size n; the product with the counts minus one is then exact, and
    each replicate's deviation is norm times its largest absolute entry.
    """
    model = DensityModel(data, h)
    n = model.n
    w = np.ones((1, n))
    for j, a in enumerate(axes):
        f = np.exp(-0.5 * ((np.asarray(a, dtype=np.float64)[:, None] - model.points[:, j]) / h) ** 2)
        w = (w[:, None, :] * f).reshape(-1, n)
    grid = 2.0 ** (53 - (2 * n - 1).bit_length())
    w = np.rint(w * grid) / grid
    block = (_resample_counts(n, B, seed) - 1.0) @ w.T
    return ceil_order_statistic(model._norm * np.max(np.abs(block), axis=1), 1.0 - alpha)


def mode_test_reference(X, Y, cfg):
    """Both stages of the mode test, stage 2 one candidate at a time.

    Stage 1 is find_modes on X.  Each candidate then gets its own gradient
    call and its own bootstrap call on Y, tested at level 1 - alpha/k; a run
    with no candidate returns an empty report before stage 2.
    """
    candidates, assignment = find_modes(DensityModel(X, cfg.h), mesh=None, opts=cfg.mean_shift)
    k = len(candidates)
    if k == 0:
        return ModeTestReport(candidates=(), portraits=(), k=0, significant_count=0,
                              stage2_gradient_norms=np.zeros(0), assignment=assignment)
    model_y = DensityModel(Y, cfg.h)
    grad_norms, portraits = [], []
    for cand in candidates:
        grad_norms.append(float(np.linalg.norm(model_y.gradient(cand.location))))
        (draws,) = bootstrap_hessian_batch(Y, cfg.h, [cand.location], cfg.B, cfg.boot_seed)
        cs = esp_quantile(draws, cfg.alpha / k)
        portraits.append(replace(eigen_rectangles(draws, cs), mode=cand))
    return ModeTestReport(
        candidates=tuple(candidates), portraits=tuple(portraits), k=k,
        significant_count=sum(p.significant for p in portraits),
        stage2_gradient_norms=np.array(grad_norms), assignment=assignment,
    )
