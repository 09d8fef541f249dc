"""Seeded synthetic datasets for the examples and the test harness.

Four families: an isotropic-or-diagonal `gaussian`, a categorical
`mixture` of diagonal Gaussians, a noisy `ring` (uniform angle, Gaussian
radial jitter), and the `singular-mixture` — two Gaussian shoulders plus
an exact point mass, useful for stressing bandwidth selection against a
density that is not absolutely continuous.

Every generator is a pure function of (spec, seed): identical specs give
identical samples, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kde import _check_integer

__all__ = ["GeneratorSpec", "generate", "FAMILIES"]

FAMILIES = ("gaussian", "mixture", "ring", "singular-mixture")


@dataclass(frozen=True)
class GeneratorSpec:
    """A named family plus its parameters; see module docstring for families."""

    family: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        _check_integer(self.n, "n", 1)
        _check_integer(self.seed, "seed", 0)

    @classmethod
    def from_dict(cls, family: str, payload: dict) -> "GeneratorSpec":
        payload = dict(payload)
        n = payload.pop("n", None)
        if n is None:
            raise ValueError("generator spec must contain 'n'")
        seed = payload.pop("seed", 0)
        return cls(family=family, n=n, seed=seed, params=payload)  # checked, not truncated


def _weights(params, k: int) -> np.ndarray:
    w = np.asarray(params.get("weights", np.full(k, 1.0 / k)), dtype=np.float64)
    if w.shape != (k,) or np.any(w < 0):
        raise ValueError(f"weights must be {k} nonnegative numbers")
    if abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return w


def _diag(params, d: int) -> np.ndarray:
    v = np.asarray(params.get("cov_diag", np.ones(d)), dtype=np.float64)
    if v.shape != (d,) or np.any(v <= 0):
        raise ValueError(f"cov_diag must be {d} positive numbers")
    return v


_ALLOWED_KEYS = {
    "gaussian": {"mean", "cov_diag"},
    "mixture": {"means", "cov_diags", "weights"},
    "ring": {"radius", "noise", "center"},
    "singular-mixture": {"mu", "sigma", "loc", "weights"},
}


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Draw the sample described by spec as an (n, d) matrix.

    Raises ValueError, naming the key, for an unknown or non-finite parameter.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.params
    n = spec.n

    unknown = set(p) - _ALLOWED_KEYS[spec.family]
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {spec.family!r}: {sorted(unknown)}"
        )
    for key, value in p.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=np.float64))):
            raise ValueError(f"{key} must be finite")

    if spec.family == "gaussian":
        mean = np.atleast_1d(np.asarray(p.get("mean", [0.0]), dtype=np.float64))
        cov = _diag(p, mean.shape[0])
        return mean + np.sqrt(cov) * rng.standard_normal((n, mean.shape[0]))

    if spec.family == "mixture":
        if "means" not in p:
            raise ValueError("mixture spec must contain 'means'")
        means = np.asarray(p["means"], dtype=np.float64)
        if means.ndim == 1:
            means = means[:, None]
        k, d = means.shape
        covs = np.asarray(p.get("cov_diags", np.ones((k, d))), dtype=np.float64)
        if covs.shape != (k, d) or np.any(covs <= 0):
            raise ValueError(f"cov_diags must be a positive {k} x {d} table")
        w = _weights(p, k)
        comp = rng.choice(k, size=n, p=w)
        z = rng.standard_normal((n, d))
        return means[comp] + np.sqrt(covs[comp]) * z

    if spec.family == "ring":
        radius = float(p.get("radius", 1.0))
        noise = float(p.get("noise", 0.0))
        center = np.asarray(p.get("center", [0.0, 0.0]), dtype=np.float64)
        if radius <= 0 or noise < 0 or center.shape != (2,):
            raise ValueError("ring needs radius > 0, noise >= 0, 2-d center")
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = radius + noise * rng.standard_normal(n)
        return center + r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)

    # singular-mixture: N(-mu, sigma^2), a point mass, N(+mu, sigma^2)
    mu = float(p.get("mu", 1.0))
    sigma = float(p.get("sigma", 1.0))
    loc = float(p.get("loc", 0.0))
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    w = _weights(p, 3)
    comp = rng.choice(3, size=n, p=w)
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[comp == 0] = -mu + sigma * z[comp == 0]
    x[comp == 1] = loc  # exact point mass, no jitter
    x[comp == 2] = mu + sigma * z[comp == 2]
    return x[:, None]
