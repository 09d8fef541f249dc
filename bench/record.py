"""Run every workload of the benchmark, report medians and spreads, record a baseline.

    python3 bench/record.py                      # each workload once at seed 0, plus a traced run
    python3 bench/record.py --seeds 10 --out bench/baseline.json

Each run is a fresh `bench/run.py` process, so set-up time and peak memory
belong to that workload alone.  For every end-to-end metric the table shows
the median over seeds 0..N-1 and the spread: the distance between the first
and third quartiles as a share of the median.  A metric is steady when its
spread is under a third of the bound in BENCHMARK.json.
`--out` writes the environment, the git commit, why each workload was
chosen, which layer metric should move which end-to-end metric, and the
measured baseline of every metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS thread variables for this process and its children

ROOT = run.ROOT

# Layer metric -> the end-to-end metrics and workloads it should move.
LAYER_MAP = [
    {"layer": ["modes.find_modes_s", "modes.kernel_pairs", "modes.kernel_pairs_per_s"],
     "moves": ["wall_s on ten_dim (about 87%)", "wall_s on scan_2d (about 90%)",
               "peak_rss_mb on ten_dim"],
     "still": []},
    {"layer": ["modes.iterations_max", "modes.candidates", "modes.n_unconverged"],
     "moves": ["wall_s on scan_2d"], "still": ["ten_dim nearly"]},
    {"layer": ["boot.resample_s"],
     "moves": ["wall_s on scan_2d (about 7%)"], "still": ["ten_dim"]},
    {"layer": ["boot.hessian_eig_s", "boot.quantile_rect_s", "boot.retained_frac",
               "modetest.certified_per_candidate"],
     "moves": ["wall_s on scan_2d (about 2%)"], "still": ["ten_dim to within about 1%"]},
    {"layer": ["modetest.split_s", "kde.gradient_s"],
     "moves": [], "still": ["every workload: recorded to confirm they are near zero"]},
    {"layer": ["persist.grid_s", "persist.grid_points", "persist.kernel_pairs"],
     "moves": ["wall_s on persist_3d",
               "a kernel change moves these together with modes.kernel_pairs_per_s on ten_dim"],
     "still": []},
    {"layer": ["persist.union_find_s", "persist.pairs"], "moves": ["persist_3d only"], "still": []},
    {"layer": ["persist.band_s", "persist.band_madds_computed"],
     "moves": ["wall_s and peak_rss_mb on persist_3d"], "still": []},
    {"layer": ["cpu_s", "trace.wall_s", "trace.overhead_s", "datasets.generate_s",
               "bandwidth.bandwidths"],
     "moves": [], "still": ["informational: CPU time, traced-replay cost, input generation, scan length"]},
]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {result}\n{proc.stderr}")
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "thread_variables": {var: os.environ[var] for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, default=1, help="untraced runs per workload, seeds 0..N-1")
    p.add_argument("--out", type=Path, help="write the baseline record here")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"environment": environment(), "run_seconds": seconds, "seeds": args.seeds,
              "layer_map": LAYER_MAP, "workloads": {}}
    # Seed-major order, so that a slow spell of the host is shared among the workloads.
    runs_of = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(args.seeds):
        for w in bench["workloads"]:
            runs_of[w["name"]].append(run_one(w["name"], seed, seconds, 0))
    steady = True
    for w in bench["workloads"]:
        runs = runs_of[w["name"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"why": w["why"], "attempted": attempted, "fail_frac": failed / attempted,
                 "end_to_end": {}}
        print(f"{w['name']}: {args.seeds} runs, {attempted} operations, fail_frac {failed / attempted:g}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            summary = {"unit": unit, "median": statistics.median(values), "values": values}
            line = f"  {name:<14} median {summary['median']:>12.6g} {unit:<8}"
            if len(values) >= 2:
                summary["spread"] = spread(values)
                ok = summary["spread"] < bound / 3
                steady &= ok
                verdict = "" if ok else "over bound/3" if summary["spread"] <= bound else "OVER BOUND"
                line += f" spread {summary['spread']:.4f} (bound {bound}) {verdict}"
            print(line)
            entry["end_to_end"][name] = summary
        traced = run_one(w["name"], 0, seconds, 1)
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for name, m in traced["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        record["workloads"][w["name"]] = entry

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.seeds >= 2 and not steady:
        sys.exit("some end-to-end metric spreads by more than a third of its bound")


if __name__ == "__main__":
    main()
