"""The benchmark's own check, on a smoke size of every workload.

    python3 bench/check_smoke.py

For each workload in BENCHMARK.json, runs `bench/run.py --size smoke` with
`--trace 0` and `--trace 1` and checks the last output line: exactly the
keys `correct`, `attempted`, `failed` and `metrics`; every end-to-end (or
per-layer) metric of BENCHMARK.json by name with its unit; correct output
and no failed operation.  It also checks that the same `--seed` gives the
same inputs and another seed other inputs, and that the benchmark exits
non-zero without a result when the library's sources are absent.  Takes
under a minute; exits non-zero on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # first: pins the BLAS thread variables before numpy loads

import numpy as np

ROOT = run.ROOT


def fail(message: str):
    sys.exit(f"check_smoke: {message}")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_contract(bench: dict):
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            fail(f"BENCHMARK.json {key} differs from bench/run.py: {declared} != {table}")
    for w in bench["workloads"]:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--size", "smoke")
            if proc.returncode != 0:
                fail(f"{w['name']} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != table:
                fail(f"{w['name']} trace {trace}: metrics {got}, expected {table}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                fail(f"{w['name']} trace {trace}: a metric value is not a number")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{w['name']} trace {trace}: {result}\n{proc.stderr}")
            if "fail_frac" not in lines[0] or "correct_frac" not in lines[0]:
                fail(f"{w['name']}: summary line lacks fail_frac or correct_frac: {lines[0]}")
            print(f"ok  {w['name']:<12} trace {trace}  {result['attempted']} operations")


def check_seeds(bench: dict):
    run.load_library()
    from workloads import WORKLOADS

    for w in bench["workloads"]:
        cls = WORKLOADS[w["name"]]
        a, b, c = (cls(seed, "smoke").pts for seed in (3, 3, 4))
        if not np.array_equal(a, b):
            fail(f"{w['name']}: the same seed gave different inputs")
        if np.array_equal(a, c):
            fail(f"{w['name']}: another seed gave the same inputs")
    print("ok  seeds shift every input")


def check_bare_directory():
    """Without src/, the benchmark must fail rather than measure anything else."""
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "ten_dim", "--seed", "0", "--seconds", "1",
                         "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  fails without the library's sources")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(bench)
    check_seeds(bench)
    check_bare_directory()


if __name__ == "__main__":
    main()
