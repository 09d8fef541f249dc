"""The public API: its exact names, and every name the benchmark and demos use.

The benchmark (bench/) and the demos call into `modesig` from outside the
package, so a name dropped from the API would only show when they run.
These checks read their sources and resolve each name they reference.
Two more keep the kernel-weight blocking inside `modesig.kde` and every
np.exp inside its sub-tiny flush, and the last keeps numpy the only
runtime dependency.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import modesig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modesig"
CLIENTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

PUBLIC = [
    "BandwidthScan", "BootstrapDraws", "ClusterAssignment", "DensityModel",
    "EigenPortrait", "EspConfidenceSet", "FAMILIES", "GeneratorSpec",
    "GridFunction", "MeanShiftOptions", "ModeCandidate", "ModeTestConfig",
    "ModeTestReport", "PersistenceDiagram", "__version__", "as_points",
    "bootstrap_band", "bootstrap_hessian_batch", "build_document",
    "default_axes", "default_grid", "density_grid", "dumps_json",
    "eigen_rectangles", "emit_report", "esp_forward", "esp_quantile",
    "find_modes", "generate", "mode_test_on_split", "run_mode_test",
    "run_persistence", "scan",
    "select_bandwidth", "significant_pairs", "split", "superlevel_persistence",
    "test_significance",
]


def referenced_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every modesig name the file imports or reads.

    Covers `from modesig[.sub] import name`, attributes of an imported
    `modesig` module (`ms.name`), and methods that a subclass of a modesig
    class overrides (`module`, `Class.method`).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, imported, refs = set(), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "modesig")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modesig":
            for a in node.names:
                refs.append((node.module, a.name))
                imported[a.asname or a.name] = (node.module, a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            refs.append(("modesig", node.attr))
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id in imported:
                    module, cls = imported[base.id]
                    refs.extend(
                        (module, f"{cls}.{f.name}")
                        for f in node.body
                        if isinstance(f, ast.FunctionDef) and f.name != "__init__"
                    )
    return refs


def resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_public_names_are_pinned():
    assert sorted(modesig.__all__) == sorted(PUBLIC)
    assert all(hasattr(modesig, name) for name in modesig.__all__)


def test_benchmark_and_demo_references_resolve():
    refs = {(p.relative_to(ROOT).as_posix(), m, n) for p in CLIENTS for m, n in referenced_names(p)}
    assert any(path == "bench/workloads.py" for path, _, _ in refs)
    assert any(path == "bench/tracing.py" for path, _, _ in refs)
    missing = sorted(r for r in refs if not resolves(r[1], r[2]))
    assert not missing, f"names used outside the package that modesig lacks: {missing}"


def test_kernel_weights_built_only_in_kde():
    # the block budget lives in DensityModel; other modules go through it
    internals = {"_exp_weights", "_aug", "_center", "_weighted_sums", "sample_sum"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kde.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            used = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                used.add(node.name)
            offenders.extend(f"{path.name}: {name}" for name in used & internals)
    assert not offenders, f"kernel internals used outside kde.py: {sorted(offenders)}"


def exp_scopes(node, scope):
    """The enclosing qualified name of every reference to np.exp below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "exp" \
                and isinstance(child.value, ast.Name) and child.value.id == "np":
            yield scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from exp_scopes(child, f"{scope}.{child.name}" if named else scope)


def test_every_exponential_is_flushed():
    # every kernel weight, grid factor and Hessian term goes through the one flushed exp
    scopes = [s for path in sorted(PACKAGE.glob("*.py"))
              for s in exp_scopes(ast.parse(path.read_text(), filename=str(path)), path.stem)]
    assert scopes == ["kde.DensityModel._exp_flushed"], scopes


# Imports outside the standard library and numpy raise ImportError, then the
# package is imported, runs a small mode test and prints its CLI help.
ONLY_NUMPY = r"""
import sys
from importlib.abc import MetaPathFinder

class Refuse(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top not in ("numpy", "modesig"):
            raise ImportError(f"{name} is neither in the standard library nor numpy")
        return None

sys.meta_path.insert(0, Refuse())
import numpy as np
import modesig
from modesig.cli import main

x = np.random.default_rng(0).normal(size=(200, 2))
x[100:, 0] += 8.0
rep = modesig.run_mode_test(x, modesig.ModeTestConfig(h=1.0, B=50))
print("candidates", rep.k)
try:
    main(["--help"])
except SystemExit as stop:
    print("help exit", stop.code)
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", ONLY_NUMPY], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: modesig" in proc.stdout and proc.stdout.rstrip().endswith("help exit 0"), proc.stdout
    assert "candidates 0" not in proc.stdout, proc.stdout
