"""Mode seeking by mean shift, with deduplication and basin labeling.

Each starting point is iterated through the kernel-weighted mean of the
data until the step length drops below ``step_tol``.  With a Gaussian
kernel the update satisfies

    grad p(a) = p(a) / h**2 * (m(a) - a),

so a trajectory is stopped *at the point where the small step was
measured*: the returned location then has gradient norm below
``p(a) * step_tol / h**2`` by construction.  Converged endpoints are
merged by single linkage at ``merge_tol`` and each cluster is represented
by its highest-density endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kde import DensityModel, _row_blocks, as_points

__all__ = ["MeanShiftOptions", "ModeCandidate", "ClusterAssignment", "find_modes"]


@dataclass(frozen=True)
class MeanShiftOptions:
    """Convergence and deduplication thresholds for find_modes.

    A threshold left as None is resolved against the model bandwidth:
    step_tol = 1e-7 * h and merge_tol = 1e-2 * h, so behavior does not
    depend on the units of the data.
    """

    max_iter: int = 500
    step_tol: float | None = None
    merge_tol: float | None = None

    def resolved(self, h: float) -> tuple[int, float, float]:
        step = 1e-7 * h if self.step_tol is None else float(self.step_tol)
        merge = 1e-2 * h if self.merge_tol is None else float(self.merge_tol)
        if self.max_iter < 1 or step <= 0 or merge <= 0:
            raise ValueError("max_iter must be >= 1 and tolerances positive")
        return int(self.max_iter), step, merge


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
        Thresholds; defaults scale with the bandwidth.

    Returns
    -------
    (candidates, assignment)
        Candidates sorted by descending density value; assignment labels
        every mesh point and flags non-converged trajectories.

    Kernel weights and endpoint comparisons are blocked by one memory budget.
    """
    opts = opts or MeanShiftOptions()
    max_iter, step_tol, merge_tol = opts.resolved(model.h)
    mesh = model.points if mesh is None else as_points(mesh)
    if mesh.shape[1] != model.d:
        raise ValueError("mesh dimension does not match the model")
    m = mesh.shape[0]

    current = mesh.copy()
    end_density = np.zeros(m)
    iterations = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    prev_density = np.full(m, -np.inf)
    min_ascent_delta = np.inf  # most negative observed p(a_{t+1}) - p(a_t)

    active = np.arange(m)
    for it in range(max_iter + 1):
        if active.size == 0:
            break
        wsum, wx = model._weighted_sums(current[active])
        shifted = wx / np.maximum(wsum, 1e-300)[:, None]

        density = model._norm * wsum
        delta_density = density - prev_density[active]
        finite_prev = np.isfinite(prev_density[active])
        if np.any(finite_prev):
            min_ascent_delta = min(min_ascent_delta, float(np.min(delta_density[finite_prev])))
        prev_density[active] = density

        dead = wsum <= 0.0  # absurdly far starts: no neighborhood at all
        step = np.linalg.norm(shifted - current[active], axis=1)
        done = (step < step_tol) & ~dead
        # the final sweep only measures convergence and takes no step
        finish = done | dead if it < max_iter else np.ones(active.size, dtype=bool)
        fin_rows = active[finish]
        end_density[fin_rows] = density[finish]
        iterations[fin_rows] = it
        converged[fin_rows] = done[finish]
        keep = ~finish
        rows = active[keep]
        current[rows] = shifted[keep]
        iterations[rows] = it + 1
        active = rows

    # a finished row is never moved again, so `current` holds every endpoint
    return _merge_candidates(
        model, mesh, current, end_density, iterations, converged, merge_tol, min_ascent_delta
    )


def _sq_dist_blocks(a, b):
    """(rows, ||a[rows, None] - b||^2) over row blocks of a, within the kernel budget."""
    for rows in _row_blocks(a.shape[0], b.shape[0] * b.shape[1]):
        diff = a[rows, None, :] - b[None, :, :]
        yield rows, np.sum(diff**2, axis=2)


def _merge_candidates(model, mesh, endpoint, end_density, iterations, converged,
                      merge_tol, min_ascent_delta):
    """Single-linkage dedup of converged endpoints; build candidates and labels."""
    m = mesh.shape[0]
    conv_idx = np.flatnonzero(converged)
    if conv_idx.size == 0:
        assignment = ClusterAssignment(
            labels=np.full(m, -1, dtype=np.int64),
            converged=converged,
            diagnostics={
                "n_unconverged": int(m),
                "min_ascent_delta": min_ascent_delta,
                "grad_norms": np.zeros(0),
                "grad_tol": np.nan,
            },
        )
        return [], assignment

    pts = endpoint[conv_idx]
    dens = end_density[conv_idx]

    # Endpoints of one basin agree to ~step_tol; collapse on a grid far finer
    # than merge_tol, then do exact single linkage on the few survivors.
    pitch = merge_tol * 1e-3
    keys = np.round(pts / pitch).astype(np.int64)
    uniq, group_of = np.unique(keys, axis=0, return_inverse=True)
    n_groups = uniq.shape[0]

    # Representative endpoint per collapsed group: its first member in
    # `order` (density descending, index ascending on ties).
    order = np.lexsort((np.arange(conv_idx.size), -dens))
    _, first = np.unique(group_of[order], return_index=True)
    rep_pts = pts[order[first]]

    # Single linkage over the collapsed representatives: collect close pairs
    # in row blocks, then propagate the smallest group index along them until
    # every group carries the smallest index of its connected component.
    pairs = [np.argwhere(np.sqrt(d2) < merge_tol) + [rows.start, 0]
             for rows, d2 in _sq_dist_blocks(rep_pts, rep_pts)]
    near, other = np.concatenate(pairs).T
    label = np.arange(n_groups)
    while True:
        spread = label.copy()
        np.minimum.at(spread, near, label[other])
        if np.array_equal(spread, label):
            break
        label = spread
    cluster_ids, cluster_of_group = np.unique(label, return_inverse=True)
    k = cluster_ids.shape[0]

    # Per cluster: representative = highest-density member endpoint.
    member_cluster = cluster_of_group[group_of]
    _, first = np.unique(member_cluster[order], return_index=True)
    best_member = order[first]
    best_density = dens[best_member]
    basin = np.bincount(member_cluster, minlength=k)
    max_iters = np.zeros(k, dtype=np.int64)
    np.maximum.at(max_iters, member_cluster, iterations[conv_idx])

    # Sort candidates by descending density (stable, so ties keep cluster order).
    sort = np.argsort(-best_density, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[sort] = np.arange(k)

    candidates = []
    locations = np.empty((k, model.d))
    for new, old in enumerate(sort):
        loc = pts[best_member[old]].copy()
        loc.setflags(write=False)
        locations[new] = loc
        candidates.append(
            ModeCandidate(
                location=loc,
                density_value=float(best_density[old]),
                basin_size=int(basin[old]),
                iterations=int(max_iters[old]),
            )
        )

    labels = np.full(m, -1, dtype=np.int64)
    labels[conv_idx] = rank[member_cluster]
    stray = np.flatnonzero(~converged)
    if stray.size:
        # label by nearest candidate to the last iterate; excluded from basins
        for rows, d2 in _sq_dist_blocks(endpoint[stray], locations):
            labels[stray[rows]] = np.argmin(d2, axis=1)

    peak = float(np.max(best_density))
    grad_tol = 1e-6 * peak / model.h
    grad_norms = np.array(
        [float(np.linalg.norm(model.gradient(c.location))) for c in candidates]
    )
    assignment = ClusterAssignment(
        labels=labels,
        converged=converged,
        diagnostics={
            "n_unconverged": int(stray.size),
            "min_ascent_delta": min_ascent_delta,
            "grad_norms": grad_norms,
            "grad_tol": grad_tol,
        },
    )
    return candidates, assignment
