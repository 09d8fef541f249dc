"""The demos reproduce their committed outputs byte for byte.

Each demo writes to `<script dir>/out/<name>`, so it runs from a copy in a
temporary directory, in a fresh interpreter, once with one BLAS thread and
once with two: README says the outputs reproduce at both.  Each run turns a
RuntimeWarning into an error, as pyproject.toml does for the tests themselves.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, name", [
    ("one_dimensional_modes.py", "one_dim"),
    ("ring_blobs_persistence.py", "ring"),
    ("bandwidth_scan.py", "bandwidth"),
    ("ten_dimensional_eigenportraits.py", "ten_dim"),
])
def test_demo_reproduces_committed_output(tmp_path, script, name):
    expected = sorted(p.name for p in (DEMOS / "out" / name).iterdir())
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        shutil.copy(DEMOS / script, work / script)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", script],
                             cwd=work, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        got = sorted(p.name for p in (work / "out" / name).iterdir())
        assert got == expected, threads
        for fname in expected:
            assert (work / "out" / name / fname).read_bytes() == \
                (DEMOS / "out" / name / fname).read_bytes(), (threads, fname)
