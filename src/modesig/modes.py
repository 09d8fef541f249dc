"""Mode seeking by mean shift, with deduplication and basin labeling.

Each starting point is iterated through the kernel-weighted mean of the
data until the step length drops below ``step_tol = STEP_TOL * h``, or
until ``MeanShiftOptions.max_iter`` steps.  With a Gaussian kernel the
update satisfies

    grad p(a) = p(a) / h**2 * (m(a) - a),

so a trajectory is stopped *at the point where the small step was
measured*: the returned location then has gradient norm below
``p(a) * step_tol / h**2`` by construction.  Mean shift climbs the
density monotonically, so the sweep already knows every endpoint's
density.  Converged endpoints are merged by single linkage at
``merge_tol = MERGE_TOL * h``; one density order of the endpoints picks
each cluster's candidate, its highest-density endpoint, and orders the
candidates.  A run in which nothing converges takes the same path and
yields no candidate.  Both tolerances are fixed multiples of the
bandwidth, so behavior does not depend on the units of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kde import DensityModel, _row_blocks, as_points

__all__ = ["MeanShiftOptions", "ModeCandidate", "ClusterAssignment", "find_modes"]


STEP_TOL = 1e-7  # a trajectory stops once its step is shorter than STEP_TOL * h
MERGE_TOL = 1e-2  # endpoints closer than MERGE_TOL * h merge (single linkage)


@dataclass(frozen=True)
class MeanShiftOptions:
    """Iteration cap for find_modes.

    A trajectory still moving by STEP_TOL * h or more after max_iter steps
    is flagged non-converged.
    """

    max_iter: int = 500


@dataclass(frozen=True)
class ModeCandidate:
    """A located mode: position, density there, and how it was reached."""

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
    the worst per-step density change (ascent check), and the non-converged count.
    With no candidate, grad_norms is empty and grad_tol is NaN.
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
        of their clusters' collapsed endpoint keys; none if no trajectory
        converged.  assignment labels every mesh point and flags
        non-converged trajectories.

    Kernel weights and endpoint comparisons are blocked by one memory budget.
    """
    max_iter = int((opts or MeanShiftOptions()).max_iter)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    step_tol, merge_tol = STEP_TOL * model.h, MERGE_TOL * model.h
    mesh = model.points if mesh is None else as_points(mesh)
    if mesh.shape[1] != model.d:
        raise ValueError("mesh dimension does not match the model")
    m = mesh.shape[0]

    current = mesh.copy()
    density = np.zeros(m)  # each row's latest density: its endpoint density once it finishes
    iterations = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    min_ascent_delta = np.inf  # most negative observed p(a_{t+1}) - p(a_t)

    active = np.arange(m)
    for it in range(max_iter + 1):
        if active.size == 0:
            break
        new_density, shifted = model._mean_shift(current[active])
        if it:  # every row still active was also evaluated at the previous sweep
            min_ascent_delta = min(min_ascent_delta, float(np.min(new_density - density[active])))
        density[active] = new_density

        step = np.linalg.norm(shifted - current[active], axis=1)
        dead = np.isnan(step)  # absurdly far starts: no neighborhood, no target
        done = step < step_tol
        # the final sweep only measures convergence and takes no step
        finish = done | dead if it < max_iter else np.ones(active.size, dtype=bool)
        fin_rows = active[finish]
        iterations[fin_rows] = it
        converged[fin_rows] = done[finish]
        active = active[~finish]
        current[active] = shifted[~finish]

    # a finished row is never moved again, so `current` holds every endpoint
    return _merge_candidates(model, current, density, iterations, converged, merge_tol,
                             min_ascent_delta)


def _sq_dist_blocks(a, b):
    """(rows, ||a[rows, None] - b||^2) over row blocks of a, within the kernel budget."""
    for rows in _row_blocks(a.shape[0], b.shape[0] * b.shape[1]):
        diff = a[rows, None, :] - b[None, :, :]
        yield rows, np.sum(diff**2, axis=2)


def _merge_candidates(model, endpoint, density, iterations, converged, merge_tol,
                      min_ascent_delta):
    """Single-linkage dedup of converged endpoints; build candidates and labels."""
    conv_idx = np.flatnonzero(converged)
    pts = endpoint[conv_idx]
    dens = density[conv_idx]

    # Endpoints of one basin agree to ~step_tol; collapse on a grid far finer
    # than merge_tol, then do exact single linkage on the few survivors.
    pitch = merge_tol * 1e-3
    keys = np.round(pts / pitch).astype(np.int64)
    uniq, group_of = np.unique(keys, axis=0, return_inverse=True)

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

    # A component's candidate is its first endpoint in `order`.  Candidates
    # run by descending density, ties in component order; `rank` maps a
    # component's label to its candidate's index.
    roots, first = np.unique(component[order], return_index=True)
    by_density = np.argsort(-dens[order[first]], kind="stable")
    best = order[first[by_density]]
    k = best.size
    rank = np.empty(label.shape[0], dtype=np.int64)
    rank[roots[by_density]] = np.arange(k)
    member = rank[component]
    basin = np.bincount(member, minlength=k)
    max_iters = np.zeros(k, dtype=np.int64)
    np.maximum.at(max_iters, member, iterations[conv_idx])

    locations = pts[best]
    locations.setflags(write=False)
    candidates = [
        ModeCandidate(location=loc, density_value=float(dens[b]), basin_size=int(size),
                      iterations=int(iters))
        for loc, b, size, iters in zip(locations, best, basin, max_iters)
    ]

    labels = np.full(endpoint.shape[0], -1, dtype=np.int64)
    labels[conv_idx] = member
    stray = np.flatnonzero(~converged)
    if k:
        # label by nearest candidate to the last iterate; excluded from basins
        for rows, d2 in _sq_dist_blocks(endpoint[stray], locations):
            labels[stray[rows]] = np.argmin(d2, axis=1)

    assignment = ClusterAssignment(
        labels=labels,
        converged=converged,
        diagnostics={
            "n_unconverged": int(stray.size),
            "min_ascent_delta": min_ascent_delta,
            "grad_norms": np.linalg.norm(model.gradient(locations), axis=1),
            "grad_tol": 1e-6 * (float(dens[best[0]]) if k else np.nan) / model.h,
        },
    )
    return candidates, assignment
