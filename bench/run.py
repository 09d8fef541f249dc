"""Run one workload of the modesig benchmark and print its metrics.

    python3 bench/run.py --workload ten_dim --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from `src/`, and
nothing else.  Every run pins OpenBLAS, OpenMP and MKL to one thread, the
configuration whose results do not depend on the thread count.

`--trace 0` times whole passes of the workload through the public API, with
no instrumentation, and prints the end-to-end metrics.  `--trace 1`
alternates an untraced pass with a traced replay of the same inputs, one
public call per stage, and prints the per-layer metrics; the replay must
reproduce the untraced results exactly.  Either way, passes repeat while
the next one is expected to end within `--seconds` (at least one runs), and
the last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
"""

import os

# Before numpy loads: BLAS reductions must not depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "fraction",
}

PER_LAYER = {
    "modetest.split_s": "s",
    "modes.find_modes_s": "s",
    "modes.kernel_pairs": "count",
    "modes.kernel_pairs_per_s": "1/s",
    "modes.iterations_max": "count",
    "modes.candidates": "count",
    "modes.n_unconverged": "count",
    "kde.gradient_s": "s",
    "boot.resample_s": "s",
    "boot.hessian_eig_s": "s",
    "boot.quantile_rect_s": "s",
    "boot.retained_frac": "fraction",
    "modetest.certified_per_candidate": "fraction",
    "bandwidth.bandwidths": "count",
    "persist.grid_s": "s",
    "persist.grid_points": "count",
    "persist.kernel_pairs": "count",
    "persist.union_find_s": "s",
    "persist.pairs": "count",
    "persist.band_s": "s",
    "persist.band_madds_computed": "count",
    "datasets.generate_s": "s",
    "cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def load_library():
    """Import modesig from this checkout's src/, never from anywhere else."""
    if not (SRC / "modesig" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: {SRC / 'modesig'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import modesig

    if Path(modesig.__file__).resolve().parent != SRC / "modesig":
        sys.exit(f"bench/run.py: imported modesig from {modesig.__file__}, not from {SRC}")


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=0, help="offset of every input seed (>= 0)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks the inputs, for the benchmark's own check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(args) -> float:
    """Median over fresh interpreters of process start to inputs generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def resident_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


def run_pass(workload, attempt):
    """One untraced pass: (wall seconds, cpu seconds, outcomes)."""
    c0, t0 = time.process_time(), time.perf_counter()
    outcomes = [attempt(op, check) for op, check in workload.operations()]
    return time.perf_counter() - t0, time.process_time() - c0, outcomes


def layer_metrics(tr) -> dict:
    """Per-layer totals of one traced replay of a pass."""
    c = tr.counts
    find = tr.seconds["modes.find_modes"]
    replicates, candidates = c["boot.replicates"], c["modes.candidates"]
    return {
        "modetest.split_s": tr.seconds["modetest.split"],
        "modes.find_modes_s": find,
        "modes.kernel_pairs": c["modes.kernel_pairs"],
        "modes.kernel_pairs_per_s": c["modes.kernel_pairs"] / find if find else 0.0,
        "modes.iterations_max": c["modes.iterations_max"],
        "modes.candidates": candidates,
        "modes.n_unconverged": c["modes.n_unconverged"],
        "kde.gradient_s": tr.seconds["kde.gradient"],
        "boot.resample_s": tr.seconds["boot.resample"],
        # the full batch call minus a counts-only call; may dip below 0 by timer noise
        "boot.hessian_eig_s": tr.seconds["boot.batch"] - tr.seconds["boot.resample"],
        "boot.quantile_rect_s": tr.seconds["boot.quantile_rect"],
        "boot.retained_frac": c["boot.retained"] / replicates if replicates else 0.0,
        "modetest.certified_per_candidate": c["modetest.significant"] / candidates if candidates else 0.0,
        "bandwidth.bandwidths": c["bandwidth.bandwidths"],
        "persist.grid_s": tr.seconds["persist.grid"],
        "persist.grid_points": c["persist.grid_points"],
        "persist.kernel_pairs": c["persist.kernel_pairs"],
        "persist.union_find_s": tr.seconds["persist.union_find"],
        "persist.pairs": c["persist.pairs"],
        "persist.band_s": tr.seconds["persist.band"],
        "persist.band_madds_computed": c["persist.band_madds_computed"],
    }


def main():
    load_library()
    from tracing import Tracer
    from workloads import WORKLOADS, attempt

    args = parse_args(sorted(WORKLOADS))
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, args.size)
        print("ready", flush=True)
        return

    setup_s = setup_seconds(args) if args.trace == 0 else None
    t0 = time.perf_counter()
    workload = cls(args.seed, args.size)
    generate_s = time.perf_counter() - t0

    rss_before = resident_mb()
    start = time.perf_counter()
    walls, cpus, outcomes, traced_walls, layers = [], [], [], [], []
    reproduced = True
    while True:
        wall, cpu, done = run_pass(workload, attempt)
        walls.append(wall)
        cpus.append(cpu)
        outcomes += done
        expected = statistics.median(walls)
        if args.trace:
            tr = Tracer()
            t1 = time.perf_counter()
            signatures = workload.replay(tr)
            traced_walls.append(time.perf_counter() - t1)
            layers.append(layer_metrics(tr))
            reproduced &= signatures == [o.signature for o in done]
            expected += statistics.median(traced_walls)
        if time.perf_counter() - start + expected > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - rss_before

    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct_frac = sum(o.correct for o in outcomes) / attempted
    for o in outcomes:
        if o.error:
            print(f"bench/run.py: {args.workload}: operation failed: {o.error}", file=sys.stderr)
    if not reproduced:
        print(f"bench/run.py: {args.workload}: traced replay differs from the untraced result",
              file=sys.stderr)

    if args.trace:
        metrics = {name: (statistics.median_low if PER_LAYER[name] == "count" else statistics.median)(
            layer[name] for layer in layers) for name in layers[0]}
        metrics["datasets.generate_s"] = generate_s
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_mb,
            "correct_frac": correct_frac,
        }
        units = END_TO_END

    print(f"{args.workload}: seed {args.seed}, {len(walls)} passes, {attempted} operations, "
          f"{failed} failed (fail_frac {failed / attempted:.4g}), correct_frac {correct_frac:.4g}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(reproduced and failed == 0 and correct_frac == 1.0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
