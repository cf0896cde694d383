"""semiq benchmark: time to a verified result, end to end and per layer.

Usage, from the root of a semiq checkout:

    python3 perfbench/run.py --workload quantum-evolution --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up its workload (imports semiq, loads the configs, generates the
seeded inputs and validates them), then runs whole rounds of the
workload's operations until --seconds have passed.  Every output is checked
against closed forms computed in checks.py.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Results,
spans and the machine record are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

WORKLOADS = ("quantum-evolution", "stationary-sweep")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 4
MIN_HEAVY_SAMPLES = 2

# metric: (operation, unit, kind).  "rate" is work per second of the
# operation's wall time, "per" is seconds per unit of work.
OP_METRICS = {
    "evolve_steps_per_s.d40": ("oscillator-d40", "steps/s", "rate"),
    "evolve_steps_per_s.d80": ("oscillator-d80", "steps/s", "rate"),
    "sweep_point_s.d30": ("limit-cycle-sweep-d30", "s", "per"),
    "limit_cycle_s.d40": ("limit-cycle-d40", "s", "per"),
    "rotators_s": ("rotators", "s", "per"),
}


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "blas_config": blas.get("openblas configuration"),
    }
    # The thread count is only known to the loaded OpenBLAS itself.
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    record["blas_threads"] = getter()
                    return record
    return record


def run_op(op, checks, stats: dict) -> float:
    """Run one operation and check it; returns the operation's wall time."""
    stats["attempted"] += 1
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception:
        elapsed = time.perf_counter() - start
        stats["failed"] += 1
        print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed
    elapsed = time.perf_counter() - start
    problems = getattr(checks, op.check)(result)
    if problems:
        stats["failed"] += 1
        stats["wrong"] += 1
        print(f"operation {op.name} output check failed: {'; '.join(problems)}", file=sys.stderr)
    return elapsed


def run_round(ops, checks, stats: dict) -> float:
    """One pass over the operations; returns its wall time."""
    start = time.perf_counter()
    for op in ops:
        run_op(op, checks, stats)
    return time.perf_counter() - start


def op_metric(kind: str, samples: list[tuple[float, float]]) -> float:
    """Median over the samples of work per second ("rate") or seconds per
    unit of work ("per")."""
    return median(work / seconds if kind == "rate" else seconds / work for seconds, work in samples)


def setup_sample(args) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def deal(items: list, gaps: int) -> list[list]:
    """Deal items out over the gaps in turn: item i goes to gap i % gaps."""
    return [items[i::gaps] for i in range(gaps)]


def untraced_run(args, workload, checks, stats, _out_dir: Path) -> tuple[dict, dict]:
    """Whole rounds for about --seconds: at least one, and no round is
    started that would end past the budget.

    Every time figure is the median of its samples, and the samples of
    each figure are spread over the whole run: on a shared machine the
    speed of a core drifts over seconds to minutes.  The probes are dealt
    out over the gaps after the round's own operations, and a set-up
    sample follows each round.  The peak RSS is read after the first
    round, which holds every own operation; the heavy probes run from the
    second round on, and at the end if fewer than MIN_HEAVY_SAMPLES of
    each have run.  So do set-up samples, if fewer than MIN_SETUP_SAMPLES
    have been taken.
    """
    samples: dict[str, list[tuple[float, float]]] = {}
    walls, round_times, setups = [], [], []
    gaps = len(workload.ops)
    probes = deal(workload.probes, gaps)
    heavy = deal(workload.heavy_probes, gaps)
    peak_rss_mb = None

    def timed(op):
        start = time.perf_counter()
        elapsed = run_op(op, checks, stats)
        samples.setdefault(op.name, []).append((elapsed, op.work))
        return time.perf_counter() - start

    start = time.perf_counter()
    while not walls or time.perf_counter() - start + median(round_times) <= args.seconds:
        round_start = time.perf_counter()
        wall = 0.0
        for gap, op in enumerate(workload.ops):
            wall += timed(op)
            for probe in probes[gap] + (heavy[gap] if peak_rss_mb is not None else []):
                timed(probe)
        walls.append(wall)
        round_times.append(time.perf_counter() - round_start)
        setups.append(setup_sample(args))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for probe in workload.heavy_probes:
        if len(samples.get(probe.name, ())) < MIN_HEAVY_SAMPLES:
            timed(probe)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(args))

    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (op_name, unit, kind) in OP_METRICS.items():
        metrics[name] = (op_metric(kind, samples[op_name]), unit)
    return metrics, {"rounds": len(walls), "walls": walls, "setups": setups, "samples": samples}


def traced_run(args, workload, checks, stats, out_dir: Path) -> tuple[dict, dict]:
    import layers
    import tracing
    import workloads

    untraced_wall = run_round(workload.ops, checks, stats)
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    try:
        with rec.span("bench.round") as round_index:
            traced_wall = run_round(workload.ops, checks, stats)
        with rec.span("bench.suite"):
            points = workloads.ensemble_points(args.seed, workloads.ENSEMBLE_POINTS)
            metrics = layers.run_suite(rec, points, args.seed)
    finally:
        undo()
    for layer, seconds in rec.self_times(round_index).items():
        # observables has no public function on the program's paths; its
        # cost shows inside the drift callbacks and in observables.evaluate_us.
        if layer != "observables":
            metrics[f"{layer}.self_s"] = seconds
    metrics["lindblad.stationary_calls"] = float(
        len(rec.durations("lindblad.stationary", round_index))
    )
    # Each config writes into its own run directory, overwritten by every
    # round, so the directory holds exactly one round's artifacts.
    metrics["cli.artifact_bytes"] = float(
        sum(p.stat().st_size for p in (out_dir / "runs").rglob("*") if p.is_file())
    )
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    rec.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    return {name: (metrics[name], unit) for name, unit, _better in layers.PER_LAYER}, {"rounds": 1}


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "semiq" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no semiq source tree under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload = workloads.setup(args.workload, ROOT, out_dir, args.seed)
        if args.setup_only:
            return 0
        import checks
        import semiq

        if Path(semiq.__file__).resolve().parent != src / "semiq":
            print(f"perfbench: imported semiq from {semiq.__file__}, not from {src}", file=sys.stderr)
            return 2
        stats = {"attempted": 0, "failed": 0, "wrong": 0}
        run = traced_run if args.trace else untraced_run
        metrics, extra = run(args, workload, checks, stats, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    machine = machine_record()
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} rounds {extra['rounds']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {stats['attempted']} failed {stats['failed']}")
    result = {
        "correct": stats["wrong"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine, **extra, **result}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; the last line
    maps each workload to its result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
