"""Mode seeking by mean shift, with deduplication and basin labeling.

Each starting point climbs the density by mean shift, accelerated by
Anderson(1) extrapolation: at an accepted point x_t with mean-shift target
T_t = m(x_t) (the kernel-weighted mean of the data) and residual
r_t = T_t - x_t, the next point is

    x_{t+1} = T_t - g_t (T_t - T_{t-1}),  g_t = <r_t - r_{t-1}, r_t> / ||r_t - r_{t-1}||**2,

or the plain step T_t when the row has no history, when r_t = r_{t-1}, or
when that point would lie behind T_t, <x_{t+1} - T_t, r_t> <= 0: there the
residuals grow and the extrapolation heads back to a fixed point the climb is
leaving, such as an antimode or a saddle.  A safeguard keeps the climb
monotone: an extrapolated point of lower density than the last accepted
point is rejected, and the row goes to that point's plain target, already
computed, with its history cleared.  Densities along accepted points
therefore never fall (but for rounding in plain steps).  A start near the
boundary between two basins can still end at the other mode than plain
mean shift's.

A trajectory stops at the first accepted point a with step length
||m(a) - a|| below ``step_tol = STEP_TOL * h``, or after
``MeanShiftOptions.max_iter`` sweeps.  With a Gaussian kernel

    grad p(a) = p(a) / h**2 * (m(a) - a),

so an endpoint has gradient norm below ``p(a) * step_tol / h**2``, and the
sweep already knows its density.

A trajectory that comes close to a known mode is stopped there, as in
Carreira-Perpinan's acceleration strategies: after each sweep, the endpoints
that converged in it join a captured set, collapsed on the grid of pitch
``COLLAPSE_PITCH * h``, first member per key.  Before each later sweep, the
final one included, an active row within ``CAPTURE_TOL * h`` of a member
finishes converged without being evaluated, at that member's location and
density.  Endpoints with one key lie within sqrt(d) * COLLAPSE_PITCH * h of
each other, so a row closer than (CAPTURE_TOL - sqrt(d) COLLAPSE_PITCH) h
to any converged endpoint is captured (for d < 100).  The capture radius
lies far below ``merge_tol``, and a captured row shares its member's
collapse key, so it always joins its member's cluster.

Converged endpoints are merged by single linkage at
``merge_tol = MERGE_TOL * h``, after collapsing them on the same grid; one
density order of the endpoints picks each cluster's endpoint, its
highest-density one.  A run in which nothing converges takes the same path
and yields no candidate.

Each cluster's endpoint is then polished to the density's stationary point
by chord-Newton steps x <- x + h Hs^-1 gs (Nocedal & Wright, ch. 3), with
gs = sum_i e_i u_i recomputed at every step and Hs = sum_i e_i (u_i u_i^T - I)
built once, at the endpoint, where u_i = (x - X_i) / h and
e_i = exp(-||u_i||^2 / 2) come from direct differences
(DensityModel._stationary_sums, no BLAS product: thread-invariant by
construction).  A stationary point of p is a mean-shift fixed point, so
every endpoint of a basin leads to the same location, to rounding: which
endpoint a cluster keeps, and so which rows were run, does not move what
is reported.  That is what lets the step tolerance sit at 1e-5 h.  The
polish of a candidate stops once its step falls below 1e-12 h, once
||gs|| stops falling, or after _POLISH_STEPS steps.  Where Hs is not
negative definite, or where a step would take the candidate more than
merge_tol / 2 from its endpoint, the candidate stays at its endpoint and
is counted as unpolished.  Candidates are reported by descending density,
(2 pi)^(-d/2) / (n h^d) * sum_i e_i at the reported location.  Every
tolerance is a fixed multiple of the bandwidth, so behavior does not depend
on the units of the data.

References: Carreira-Perpinan, "Acceleration strategies for Gaussian
mean-shift image segmentation" (CVPR 2006) and "Gaussian mean-shift is an
EM algorithm" (IEEE TPAMI 2007); Walker & Ni, "Anderson acceleration for
fixed-point iterations" (SIAM J. Numer. Anal. 2011); Nocedal & Wright,
*Numerical Optimization* (2006).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kde import DensityModel, _check_integer, _row_blocks, as_points

__all__ = ["MeanShiftOptions", "ModeCandidate", "ClusterAssignment", "find_modes"]


STEP_TOL = 1e-5  # a trajectory stops once its step is shorter than STEP_TOL * h
MERGE_TOL = 1e-2  # endpoints closer than MERGE_TOL * h merge (single linkage)
CAPTURE_TOL = 1e-3  # an active row within CAPTURE_TOL * h of a converged endpoint stops there
COLLAPSE_PITCH = 1e-4  # endpoints are collapsed on a grid of pitch COLLAPSE_PITCH * h
_POLISH_STEPS = 8  # chord-Newton steps per candidate at most; 4 sufficed on every input tried
_POLISH_TOL = 1e-12  # a candidate's polish stops once its step is below _POLISH_TOL * h


@dataclass(frozen=True)
class MeanShiftOptions:
    """Iteration cap for find_modes.

    max_iter caps a trajectory's sweeps, each one evaluation of the mean
    shift at its current point, rejected extrapolations included.  A
    trajectory still moving by STEP_TOL * h or more at its last sweep is
    flagged non-converged.  It must be an integer >= 1.
    """

    max_iter: int = 500

    def __post_init__(self):
        _check_integer(self.max_iter, "max_iter", 1)


@dataclass(frozen=True)
class ModeCandidate:
    """A located mode: position, density there, and how it was reached.

    location is the density's stationary point that its cluster's endpoint
    was polished to, or that endpoint where the polish was refused
    (ClusterAssignment.diagnostics["n_unpolished"]); density_value is the
    density there, from direct differences.  iterations is the largest
    number of sweeps, rejected extrapolations included, that a converged
    trajectory of its basin took before the sweep that found it converged;
    a captured trajectory counts its sweeps up to its capture.
    """

    location: np.ndarray
    density_value: float
    basin_size: int
    iterations: int


@dataclass
class ClusterAssignment:
    """Per-mesh-point outcome of find_modes.

    labels[i] indexes the candidate list (nearest candidate for trajectories
    that ran out of iterations; -1 only if no trajectory converged at all).
    converged[i] says whether trajectory i met the step tolerance; only
    converged trajectories count toward basin sizes.  diagnostics carries the
    candidates' grad_norms against grad_tol = 1e-6 * (peak candidate density) / h,
    min_ascent_delta, the worst density change from one accepted point to the
    next (ascent check; inf if no trajectory took an accepted step),
    n_rejected, the extrapolations the safeguard rejected, n_captured, the
    trajectories stopped within CAPTURE_TOL * h of an endpoint that converged
    in an earlier sweep (counted as converged), n_unconverged, the
    non-converged count, n_unpolished, the candidates kept at their
    endpoints because their Newton polish was refused, and polish_steps, the
    most Newton steps any candidate took.  With no candidate, grad_norms is
    empty and grad_tol is NaN.
    """

    labels: np.ndarray
    converged: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def find_modes(
    model: DensityModel,
    mesh=None,
    opts: MeanShiftOptions | None = None,
) -> tuple[list[ModeCandidate], ClusterAssignment]:
    """Run mean shift from every mesh point and merge the destinations.

    Parameters
    ----------
    model : DensityModel
        The density whose modes are sought.
    mesh : array-like, shape (m, d), optional
        Starting points; defaults to the model's own data points.
    opts : MeanShiftOptions, optional
        The iteration cap; the tolerances are STEP_TOL * h and MERGE_TOL * h.

    Returns
    -------
    (candidates, assignment)
        Candidates sorted by descending density value, ties in the order
        of their endpoints' densities, then of their clusters' collapsed
        endpoint keys; none if no trajectory converged.  assignment labels
        every mesh point and flags non-converged trajectories.

    Kernel weights and endpoint comparisons are blocked by one memory budget.
    """
    max_iter = (opts or MeanShiftOptions()).max_iter
    step_tol, merge_tol = STEP_TOL * model.h, MERGE_TOL * model.h
    mesh = model.points if mesh is None else as_points(mesh)
    if mesh.shape[1] != model.d:
        raise ValueError("mesh dimension does not match the model")
    m = mesh.shape[0]

    current = mesh.copy()
    # Per row: the target and residual at its last accepted point (NaN residual: no
    # history), and whether its current point is an extrapolation still to be checked.
    target = np.full_like(current, np.nan)
    resid = np.full_like(current, np.nan)
    extrapolated = np.zeros(m, dtype=bool)
    density = np.zeros(m)  # at each row's last accepted point: its endpoint's once it finishes
    iterations = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    min_ascent_delta = np.inf  # most negative p(x_{t+1}) - p(x_t) between accepted points
    n_rejected = 0
    n_captured = 0
    captured = np.empty(0, dtype=np.int64)  # rows whose endpoints capture, one per collapse key

    active = np.arange(m)
    for it in range(max_iter + 1):
        if captured.size:
            dist2, member = _nearest(current[active], current[captured])
            near = dist2 < (CAPTURE_TOL * model.h) ** 2
            caught, member = active[near], captured[member[near]]
            current[caught], density[caught] = current[member], density[member]
            iterations[caught], converged[caught] = it, True
            n_captured += caught.size
            active = active[~near]
        if active.size == 0:
            break
        # the final sweep only measures convergence and takes no step
        finish, done, delta, rejected = _sweep(model, active, it == max_iter, step_tol, current,
                                               target, resid, extrapolated, density)
        if it:  # every row still active has an accepted point from an earlier sweep
            min_ascent_delta = min(min_ascent_delta, delta)
        n_rejected += rejected
        fin_rows = active[finish]
        iterations[fin_rows] = it
        converged[fin_rows] = done[finish]
        active = active[~finish]
        if np.any(done):
            rows = np.concatenate([captured, fin_rows[done[finish]]])
            _, first = np.unique(_collapse_keys(current[rows], model.h), axis=0,
                                 return_index=True)
            captured = rows[np.sort(first)]

    # a finished row is never moved again, so `current` holds every endpoint
    return _merge_candidates(model, current, density, iterations, converged, merge_tol,
                             min_ascent_delta, n_rejected, n_captured)


def _sweep(model, rows, final, step_tol, current, target, resid, extrapolated, density):
    """One safeguarded Anderson(1) sweep over the active rows, updating the per-row
    state in place; returns (finish, done, min_delta, rejected).

    finish and done flag, over rows, the rows that stop and those that stop
    converged; min_delta is the smallest density change at an accepted point
    (inf if none) and rejected the number of rejected extrapolations.  A
    function of its own, so that its temporaries are freed before the next
    sweep's kernel weights are built.
    """
    x = current[rows]
    p, shifted = model._mean_shift(x)
    last = density[rows]
    reject = extrapolated[rows] & (p < last)
    accept = ~reject
    min_delta = float(np.min(p[accept] - last[accept], initial=np.inf))

    # A rejected row goes to the plain target of its last accepted point, with no history.
    back = rows[reject]
    current[back] = target[back]
    resid[back] = np.nan
    extrapolated[back] = False

    r = shifted - x
    step = np.linalg.norm(r, axis=1)
    done = accept & (step < step_tol)
    dead = accept & np.isnan(step)  # absurdly far starts: no neighborhood, no target
    finish = np.ones(rows.size, dtype=bool) if final else done | dead
    density[rows[accept]] = p[accept]

    move = accept & ~finish
    at, shifted, r = rows[move], shifted[move], r[move]
    dr = r - resid[at]  # NaN without history
    norm2 = np.sum(dr**2, axis=1)
    gamma = np.divide(np.sum(dr * r, axis=1), norm2, out=np.zeros(at.size), where=norm2 > 0.0)
    ahead = shifted - target[at]  # T_t - T_{t-1}
    ext = gamma * np.sum(ahead * r, axis=1) < 0.0  # the extrapolated point lies ahead of T_t
    current[at] = np.where(ext[:, None], shifted - gamma[:, None] * ahead, shifted)
    target[at] = shifted
    resid[at] = r
    extrapolated[at] = ext
    return finish, done, min_delta, int(np.count_nonzero(reject))


def _sq_dist_blocks(a, b):
    """(rows, ||a[rows, None] - b||^2) over row blocks of a, within the row budget.

    The squares are added one coordinate at a time, in coordinate order: a
    sum over a short last axis cost 2 to 4 times as much, in every sweep's
    capture test (2-vCPU Xeon, one thread).
    """
    for rows in _row_blocks(a.shape[0], b.shape[0] * b.shape[1]):
        block = a[rows]
        d2 = np.square(block[:, 0, None] - b[:, 0])
        for j in range(1, a.shape[1]):
            diff = block[:, j, None] - b[:, j]
            d2 += np.square(diff, out=diff)
        yield rows, d2


def _nearest(points, members):
    """(dist2, nearest): each row's squared distance to its nearest member, and that
    member, the first on ties."""
    dist2 = np.empty(points.shape[0])
    nearest = np.empty(points.shape[0], dtype=np.int64)
    for rows, d2 in _sq_dist_blocks(points, members):
        nearest[rows] = np.argmin(d2, axis=1)
        dist2[rows] = np.take_along_axis(d2, nearest[rows, None], axis=1)[:, 0]
    return dist2, nearest


def _collapse_keys(pts, h):
    """Integer keys of pts on the collapse grid, of pitch COLLAPSE_PITCH * h.

    Endpoints of one basin agree to ~step_tol, so they share a few keys;
    points with one key lie within sqrt(d) * pitch of each other.
    """
    return np.round(pts / (COLLAPSE_PITCH * h)).astype(np.int64)


def _merge_candidates(model, endpoint, density, iterations, converged, merge_tol,
                      min_ascent_delta, n_rejected, n_captured):
    """Single-linkage dedup of converged endpoints; build candidates and labels."""
    conv_idx = np.flatnonzero(converged)
    pts = endpoint[conv_idx]
    dens = density[conv_idx]

    # Collapse on a grid far finer than merge_tol, then do exact single
    # linkage on the few survivors.
    uniq, group_of = np.unique(_collapse_keys(pts, model.h), axis=0, return_inverse=True)

    # Representative endpoint per collapsed group: its first member in
    # `order` (density descending, index ascending on ties).
    order = np.argsort(-dens, kind="stable")
    _, first = np.unique(group_of[order], return_index=True)
    rep_pts = pts[order[first]]

    # Single linkage over the collapsed representatives: collect close pairs
    # in row blocks, then propagate the smallest group index along them until
    # every group carries the smallest index of its connected component.
    pairs = [np.empty((0, 2), dtype=np.int64)]  # none at all without two groups
    pairs += [np.argwhere(np.sqrt(d2) < merge_tol) + [rows.start, 0]
              for rows, d2 in _sq_dist_blocks(rep_pts, rep_pts)]
    near, other = np.concatenate(pairs).T
    label = np.arange(uniq.shape[0])
    while True:
        spread = label.copy()
        np.minimum.at(spread, near, label[other])
        if np.array_equal(spread, label):
            break
        label = spread
    component = label[group_of]

    # A component's endpoint is its first in `order`; polished, it becomes the
    # candidate.  Candidates run by descending polished density, ties in the
    # order of the endpoints' densities, then of the components; `rank` maps a
    # component's label to its candidate's index.
    roots, first = np.unique(component[order], return_index=True)
    by_density = np.argsort(-dens[order[first]], kind="stable")
    locations, values, unpolished, steps = _polish(model, pts[order[first[by_density]]],
                                                   merge_tol)
    resort = np.argsort(-values, kind="stable")
    by_density, locations, values = by_density[resort], locations[resort], values[resort]
    k = values.size
    rank = np.empty(label.shape[0], dtype=np.int64)
    rank[roots[by_density]] = np.arange(k)
    member = rank[component]
    basin = np.bincount(member, minlength=k)
    max_iters = np.zeros(k, dtype=np.int64)
    np.maximum.at(max_iters, member, iterations[conv_idx])

    locations.setflags(write=False)
    candidates = [
        ModeCandidate(location=loc, density_value=float(value), basin_size=int(size),
                      iterations=int(iters))
        for loc, value, size, iters in zip(locations, values, basin, max_iters)
    ]

    labels = np.full(endpoint.shape[0], -1, dtype=np.int64)
    labels[conv_idx] = member
    stray = np.flatnonzero(~converged)
    if k:  # label by nearest candidate to the last iterate; excluded from basins
        with np.errstate(over="ignore"):  # a start too far for a finite distance gets label 0
            labels[stray] = _nearest(endpoint[stray], locations)[1]

    assignment = ClusterAssignment(
        labels=labels,
        converged=converged,
        diagnostics={
            "n_unconverged": int(stray.size),
            "min_ascent_delta": min_ascent_delta,
            "n_rejected": n_rejected,
            "n_captured": n_captured,
            "n_unpolished": int(np.count_nonzero(unpolished)),
            "polish_steps": int(np.max(steps, initial=0)),
            "grad_norms": np.linalg.norm(model.gradient(locations), axis=1),
            "grad_tol": 1e-6 * (float(values[0]) if k else np.nan) / model.h,
        },
    )
    return candidates, assignment


def _polish(model, ends, merge_tol):
    """Chord-Newton steps x <- x + h Hs^-1 gs from each row of ends, (k, d), toward
    the density's stationary point (the module docstring states the rules);
    returns (locations, densities, unpolished, steps) per row.

    Hs^-1 gs comes from Hs's eigenvectors V and eigenvalues lam, as
    V diag(1 / lam) V^T gs in numpy's elementwise loops; eigh reads Hs's
    lower triangle and tells whether it is negative definite.
    """
    x = ends.copy()
    start, g, hs = model._stationary_sums(x, hessian=True)
    dens = start.copy()
    lam, vec = np.linalg.eigh(hs)
    unpolished = ~np.all(lam < 0.0, axis=1)
    size = np.linalg.norm(g, axis=1)
    steps = np.zeros(x.shape[0], dtype=np.int64)
    active = np.flatnonzero(~unpolished)
    for _ in range(_POLISH_STEPS):
        coef = np.sum(vec[active] * g[active, :, None], axis=1) / lam[active]
        step = model.h * np.sum(vec[active] * coef[:, None, :], axis=2)
        y = x[active] + step
        far = np.linalg.norm(y - ends[active], axis=1) > merge_tol / 2
        unpolished[active[far]] = True
        # a step below _POLISH_TOL * h is not taken: the candidate has converged
        move = ~far & (np.linalg.norm(step, axis=1) >= _POLISH_TOL * model.h)
        active, y = active[move], y[move]
        if active.size == 0:
            break
        p, gy, _ = model._stationary_sums(y, hessian=False)
        size_y = np.linalg.norm(gy, axis=1)
        better = size_y < size[active]  # nor is a step that does not lower ||gs||
        active, y = active[better], y[better]
        x[active], dens[active], g[active], size[active] = y, p[better], gy[better], size_y[better]
        steps[active] += 1
    x[unpolished], dens[unpolished] = ends[unpolished], start[unpolished]
    return x, dens, unpolished, steps
