"""Shows that every output check passes on real output and fails on a
deliberately perturbed copy of it.

Run from the root of a semiq checkout (takes a few seconds):

    python3 perfbench/selftest.py

Each case runs a small config, checks the output,
then applies one perturbation at a time to a copy of the artifacts and
requires the check to report a problem.  Exit code 0 means every check
passed on the real output and caught every perturbation.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from semiq.cli import run_config  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"


def _edit_csv(name: str, row: int, column: str, delta: float):
    """Perturbation adding delta to one numeric cell (complex cells: real part)."""

    def apply(run_dir: Path):
        path = run_dir / name
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        col = rows[0].index(column)
        cell = rows[row + 1][col]
        value = checks._complex(cell) + delta
        rows[row + 1][col] = f"{value.real!r}{value.imag:+.17g}i" if cell.endswith("i") else repr(value.real)
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)

    apply.__name__ = f"{name}[{row}].{column} += {delta:g}"
    return apply


def _edit_json(name: str, key: str, value):
    def apply(run_dir: Path):
        path = run_dir / name
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))

    apply.__name__ = f"{name}.{key} = {value!r}"
    return apply


def _state_entry(i: int, j: int, delta: complex):
    """Perturb one entry of stationary_state.csv (row-major, dim from the row count)."""

    def apply(run_dir: Path):
        path = run_dir / "stationary_state.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        for r in rows[1:]:
            if int(r[0]) == i and int(r[1]) == j:
                r[2] = repr(float(r[2]) + delta.real)
                r[3] = repr(float(r[3]) + delta.imag)
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)

    apply.__name__ = f"stationary_state[{i},{j}] += {delta}"
    return apply


CASES = {
    "oscillator": (
        {"experiment": "oscillator", "seed": 1, "params": {"omega0": 1.0, "lambda": 0.1, "u": 0.0},
         "numerics": {"dim": 30, "evolve.dt": 0.001, "t_end": 1.0, "alpha": [1.5, 0.5]}},
        checks.check_oscillator,
        [_edit_csv("quantum.csv", 100, "a", 1e-6), _edit_csv("quantum.csv", 7, "n", 1e-6),
         _edit_csv("classical.csv", 50, "re(z1)", 1e-6), _edit_csv("classical.csv", 90, "weight", 1e-6),
         _edit_json("summary.json", "min_eigenvalue", -1e-6),
         _edit_json("summary.json", "max_trace_deviation", 1e-8),
         _edit_json("summary.json", "max_hermiticity_deviation", 1e-8),
         _edit_json("summary.json", "faq_pass", False)],
    ),
    "limit-cycle": (
        {"experiment": "limit-cycle", "seed": 2, "params": {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
         "numerics": {"dim": 20, "n_max": 30}},
        checks.check_limit_cycle,
        [_state_entry(1, 1, 1e-6), _state_entry(2, 3, 1e-6j), _state_entry(0, 0, -1e-6),
         _edit_json("summary.json", "mean_n", 1.0 + 1e-6),
         _edit_json("summary.json", "mandel_q", 1e-6),
         _edit_json("summary.json", "offdiag_max", 1e-6),
         _edit_json("summary.json", "diag_max_error", 1e-6)],
    ),
    "limit-cycle-sweep": (
        {"experiment": "limit-cycle", "seed": 3, "params": {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
         "numerics": {"dim": 20, "n_max": 30}, "sweep": {"params.lambda": [0.5, 2.0]}},
        checks.check_limit_cycle,
        [_edit_csv("sweep.csv", 0, "mean_n", 1e-6), _edit_csv("sweep.csv", 1, "mandel_q", 1e-6),
         _edit_csv("sweep.csv", 1, "offdiag_max", 1e-6), _edit_csv("sweep.csv", 0, "diag_max_error", 1e-6),
         _edit_csv("sweep.csv", 0, "nu", 1e-6)],
    ),
    "rotators": (
        {"experiment": "rotators", "seed": 4, "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.3, "l": 3},
         "numerics": {}},
        checks.check_rotators,
        [_edit_csv("closure.csv", 2, "x_exact", 1e-6), _edit_csv("closure.csv", 0, "x_closure", 1e-9),
         _edit_csv("closure.csv", 1, "N", 1.0)],
    ),
    "conformance": (
        {"experiment": "conformance", "seed": 6,
         "params": {"omega1": 1.05, "omega2": 0.95, "lambda": 0.3, "l": 5}, "numerics": {"n_samples": 5}},
        checks.check_conformance,
        [_edit_csv("conformance.csv", 0, "max_abs_deviation", 1e-6),
         _edit_csv("conformance.csv", 2, "max_abs_deviation", 1e-6)],
    ),
}


def run_case(name, config, check, perturbations) -> list[str]:
    failures = []
    run_dir = run_config(config, output_dir=str(WORK / "runs"))
    problems = check(run_dir)
    if problems:
        failures.append(f"{name}: check fails on real output: {problems}")
    for perturb in perturbations:
        copy = WORK / "perturbed" / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(run_dir, copy)
        perturb(copy)
        caught = check(copy)
        print(f"{name}: {perturb.__name__}: {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{name}: perturbation {perturb.__name__} not caught")
    return failures


def benchmark_json_case() -> list[str]:
    """BENCHMARK.json names exactly the metrics the benchmark reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    end_to_end = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    end_to_end.update({name: unit for name, (_op, unit, _kind) in run.OP_METRICS.items()})
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != end_to_end:
        failures.append(f"end_to_end in BENCHMARK.json {declared} != reported {end_to_end}")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != [tuple(m) for m in layers.PER_LAYER]:
        failures.append("per_layer in BENCHMARK.json differs from layers.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from run.WORKLOADS")
    print(f"BENCHMARK.json: {'consistent' if not failures else 'INCONSISTENT'}")
    return failures


def main() -> int:
    failures = benchmark_json_case()
    try:
        for name, (config, check, perturbations) in CASES.items():
            failures += run_case(name, config, check, perturbations)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
