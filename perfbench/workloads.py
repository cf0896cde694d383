"""Workload inputs and operations.

A workload is a list of operations run in rounds.  An operation is one
config run through `semiq.cli.run_config`; it carries the name of the
check that judges its output and its amount of work (RK4 steps or grid
points) for the rate metrics.  Every config the program receives is
generated here from the shipped `configs/*.json` or from the templates in
`perfbench/configs/`, written to the run directory and passed through
`semiq validate` before any timing starts.

This module imports no scipy: the program does not need it, so it stays
out of the set-up time.  The checks live in checks.py.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from semiq import cli

# Seeded two-mode points for the layer suite's rotator items.
ENSEMBLE_POINTS = 24


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: str
    work: float


@dataclass
class Workload:
    """One round of the workload's own operations, and its probes.

    Probes are the operations behind the end-to-end metrics the workload's
    own operations do not exercise, at reduced size, or extra runs of a
    short own operation that gets too few samples otherwise.  Each list holds one
    round's probe runs, dealt out over the gaps after the round's own
    operations, so their samples span the run as the workload's own do.
    Heavy probes build dense d^2 x d^2 generators; they would raise the
    workload's own peak RSS, so they start once that has been read.
    """

    name: str
    ops: list[Op]
    probes: list[Op]
    heavy_probes: list[Op]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _steps(config: dict, dt_key: str) -> int:
    n = config["numerics"]
    return int(round(n["t_end"] / n[dt_key]))


def ensemble_points(seed: int, count: int) -> list[tuple[complex, complex]]:
    """Seeded two-mode initial points: |z_a| in [0.5, 1.5], uniform phases."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.5, 1.5, size=(count, 2))
    phases = rng.uniform(-np.pi, np.pi, size=(count, 2))
    zs = radii * np.exp(1j * phases)
    return [(complex(a), complex(b)) for a, b in zs]


class _Builder:
    def __init__(self, root: Path, out_dir: Path, seed: int):
        self.root = root
        self.seed = seed
        self.config_dir = out_dir / "configs"
        self.runs_dir = out_dir / "runs"
        self.config_dir.mkdir(parents=True, exist_ok=True)

    def shipped(self, name: str) -> dict:
        return _load(self.root / "configs" / f"{name}.json")

    def owned(self, name: str) -> dict:
        config = _load(self.root / "perfbench" / "configs" / f"{name}.json")
        config["seed"] = self.seed
        return config

    def config_op(self, op_name: str, label: str, config: dict, check: str, work: float) -> Op:
        """Write and validate the config, and return the operation running it."""
        path = self.config_dir / f"{label}.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as said:
            status = cli.main(["validate", str(path)])
        if status != 0:
            raise ValueError(f"{path.name} fails semiq validate: {said.getvalue().strip()}")
        frozen = copy.deepcopy(config)
        runs = str(self.runs_dir)
        return Op(op_name, lambda: cli.run_config(frozen, output_dir=runs, jobs=1), check, work)


def _oscillator_ops(b: _Builder) -> dict[str, Op]:
    d40 = b.shipped("oscillator")
    d40_probe = copy.deepcopy(d40)
    d40_probe["numerics"]["t_end"] = 0.4
    d80 = b.owned("oscillator_d80")
    d80_probe = copy.deepcopy(d80)
    d80_probe["numerics"]["t_end"] = 0.08

    def evolve_op(name, label, config):
        return b.config_op(name, label, config, "check_oscillator", _steps(config, "evolve.dt"))

    return {
        "d40": evolve_op("oscillator-d40", "oscillator", d40),
        "d80": evolve_op("oscillator-d80", "oscillator_d80", d80),
        "d40_probe": evolve_op("oscillator-d40", "oscillator-probe", d40_probe),
        "d80_probe": evolve_op("oscillator-d80", "oscillator_d80-probe", d80_probe),
    }


def _stationary_ops(b: _Builder) -> dict[str, Op]:
    sweep = b.shipped("limit_cycle_sweep")
    sweep_probe = copy.deepcopy(sweep)
    sweep_probe["sweep"] = {"params.lambda": [1.0]}
    return {
        "sweep": b.config_op("limit-cycle-sweep-d30", "limit_cycle_sweep", sweep, "check_limit_cycle",
                             len(sweep["sweep"]["params.lambda"])),
        "sweep_probe": b.config_op("limit-cycle-sweep-d30", "limit_cycle_sweep-probe", sweep_probe,
                                   "check_limit_cycle", 1),
        "d30": b.config_op("limit-cycle-d30", "limit_cycle", b.shipped("limit_cycle"), "check_limit_cycle", 1),
        "d40": b.config_op("limit-cycle-d40", "limit_cycle_d40", b.owned("limit_cycle_d40"),
                           "check_limit_cycle", 1),
        "rotators": b.config_op("rotators", "rotators", b.shipped("rotators"), "check_rotators", 1),
        "conformance": b.config_op("conformance", "conformance", b.shipped("conformance"),
                                   "check_conformance", 1),
    }


def setup(name: str, root: Path, out_dir: Path, seed: int) -> Workload:
    """Load, generate and validate every input of the workload.

    Probe counts per round are set so that a stationary-sweep round takes
    about 16 s and a quantum-evolution round about 21 s without its heavy
    probes, 34 s with them: three and two rounds fit in a 55 s run.
    """
    b = _Builder(root, out_dir, seed)
    osc = _oscillator_ops(b)
    st = _stationary_ops(b)
    if name == "quantum-evolution":
        # Three short d=80 runs per round give that rate samples spread over
        # the round beside the one long d=40 run.
        return Workload(name, [osc["d40"]] + [osc["d80"]] * 3, [st["rotators"]] * 4,
                        [st["sweep_probe"], st["d40"]] * 2 + [st["sweep_probe"]] * 2)
    # rotators.json, the smallest own operation, runs once more per round
    # as its own probe, so that rotators_s has two samples a round.
    return Workload(name, [st["sweep"], st["d30"], st["d40"], st["rotators"], st["conformance"]],
                    [osc["d40_probe"]] * 4 + [osc["d80_probe"]] * 2 + [st["rotators"]], [])
