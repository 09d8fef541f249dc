"""Mode hunting with significance guarantees.

Find candidate modes of a kernel density estimate by mean shift, then
certify each one with a bootstrap test on the Hessian's eigenvalues —
reported per mode as an "eigenportrait" of curvature intervals.  Also
included: a 0-dimensional persistence diagram with a bootstrap noise
band as an alternative mode test, and a bandwidth selector that picks
the h maximizing the number of significant modes.
"""

from .bandwidth import BandwidthScan, default_grid, scan, select_bandwidth
from .boot import (
    BootstrapDraws,
    EigenPortrait,
    EspConfidenceSet,
    bootstrap_hessian_batch,
    eigen_rectangles,
    esp_forward,
    esp_quantile,
    test_significance,
)
from .datasets import FAMILIES, GeneratorSpec, generate
from .kde import DensityModel, as_points
from .modes import ClusterAssignment, MeanShiftOptions, ModeCandidate, find_modes
from .modetest import ModeTestConfig, ModeTestReport, mode_test_on_split, run_mode_test, split
from .persist import (
    GridFunction,
    PersistenceDiagram,
    bootstrap_band,
    default_axes,
    density_grid,
    run_persistence,
    significant_pairs,
    superlevel_persistence,
)
from .report import build_document, dumps_json, emit_report

__version__ = "0.1.0"

__all__ = [
    "BandwidthScan", "default_grid", "scan", "select_bandwidth",
    "BootstrapDraws", "EigenPortrait", "EspConfidenceSet",
    "bootstrap_hessian_batch", "eigen_rectangles", "esp_forward",
    "esp_quantile", "test_significance",
    "FAMILIES", "GeneratorSpec", "generate",
    "DensityModel", "as_points",
    "ClusterAssignment", "MeanShiftOptions", "ModeCandidate", "find_modes",
    "ModeTestConfig", "ModeTestReport", "mode_test_on_split", "run_mode_test", "split",
    "GridFunction", "PersistenceDiagram", "bootstrap_band", "default_axes",
    "density_grid", "run_persistence", "significant_pairs", "superlevel_persistence",
    "build_document", "dumps_json", "emit_report",
    "__version__",
]
