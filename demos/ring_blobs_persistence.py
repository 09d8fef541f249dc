#!/usr/bin/env python3
"""Three tight blobs sitting inside a diffuse ring.

The ring contributes shallow bumps that look like modes at small bandwidth.
Both certification routes -- per-mode curvature intervals and the
persistence diagram with its bootstrap noise band -- keep exactly the three
blobs and discard the ring artifacts.
"""

import os

import numpy as np

from modesig import (
    GeneratorSpec,
    ModeTestConfig,
    generate,
    run_mode_test,
    run_persistence,
    significant_pairs,
)
from modesig.report import emit_report

out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "ring")

centers = [[-3.0, -3.0], [3.0, -3.0], [0.0, 3.5]]
blobs = generate(GeneratorSpec(
    family="mixture", n=210, seed=3,
    params={"means": centers, "cov_diags": [[0.25, 0.25]] * 3},
))
ring = generate(GeneratorSpec(
    family="ring", n=150, seed=1003,
    params={"radius": 6.0, "noise": 0.25},
))
data = np.vstack([blobs, ring])
h = 0.8

# route 1: split, locate, certify each candidate
rep = run_mode_test(data, ModeTestConfig(h=h, alpha=0.10, B=500,
                                         split_seed=3, boot_seed=3))
print(f"local test: {rep.k} candidates, {rep.significant_count} significant")
for port in rep.portraits:
    x, y = port.mode.location
    tag = "KEPT" if port.significant else "discarded"
    print(f"  ({x:+.2f}, {y:+.2f})  basin {port.mode.basin_size:3d}  {tag}")

# route 2: superlevel persistence of the density surface, plus a noise band
diagram = run_persistence(data, h, alpha=0.10, B=500, seed=3, resolution=80)
kept = significant_pairs(diagram)
print(f"\npersistence: {diagram.pairs.shape[0]} pairs, band {diagram.band:.5f}, "
      f"{kept.shape[0]} cleared the 2*band strip")

emit_report(out_dir, config={"h": h, "alpha": 0.10, "B": 500},
            report=rep, diagram=diagram)
print(f"wrote {out_dir}/report.json, eigenportrait.svg, persistence.svg")
