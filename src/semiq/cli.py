"""Batch experiment runner.

Reads a JSON config, builds the requested model, runs the classical checks,
quantum solves and baselines, and writes diff-able artifacts into a run
directory named by the config hash:

    manifest.json   resolved config echo (every numeric setting, no hidden
                    defaults) plus the seed
    summary.json    headline scalars for the run
    *.csv           per-experiment tables (17 significant digits)

Config layout::

    {
      "experiment": "oscillator" | "limit-cycle" | "rotators"
                    | "classical-flow" | "conformance",
      "seed": 1234,
      "output_dir": "runs",
      "params":   { model parameters, e.g. "omega0", "lambda", "mu", "l" },
      "numerics": { "dim", "n_max", "evolve.dt", "t_end",
                    "stationary.null_tol", "validate.pos_tol", ... },
      "sweep":    { "params.lambda": [0.5, 1.0, 2.0] }        # optional
    }

A sweep fans out over the cartesian grid and writes one row per grid point
into sweep.csv instead of per-point tables.  Runs are deterministic for a
fixed config and seed: rerunning produces byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from . import models
from ._csv import write_csv
from .errors import NumericalFailure
from .faq import ensemble_weights, export_trajectory_csv, sample_phase_points, verify_faq
from .lindblad import DensityMatrix, evolve, stationary
from .observables import PhasePoint
from .quantize import annihilation, export_operator_csv, number

__all__ = ["main", "entry", "validate_config", "resolve_config", "run_config"]


class ConfigError(ValueError):
    pass


EXPERIMENTS = ("oscillator", "limit-cycle", "rotators", "classical-flow", "conformance")


@dataclass(frozen=True)
class _Model:
    """One FAQ model as configs name it.

    `keys` maps each config key of the model's `params` block to its field in
    the params dataclass and its default (None: required).
    """

    params: type
    keys: dict[str, tuple[str, float | None]]
    faq: Callable
    field: Callable
    modes: int

    @property
    def block(self) -> dict:
        return {key: (default is None, default, _real) for key, (_name, default) in self.keys.items()}

    def build(self, p: dict):
        return self.params(**{name: p[key] for key, (name, _default) in self.keys.items()})


_MODELS = {
    "oscillator": _Model(
        models.OscillatorParams,
        {"omega0": ("omega0", None), "lambda": ("lam", None), "u": ("u", 0.0)},
        models.oscillator_faq, models.oscillator_field, modes=1,
    ),
    "limit-cycle": _Model(
        models.LimitCycleParams,
        {"omega": ("omega", None), "lambda": ("lam", None), "mu": ("mu", None)},
        models.limit_cycle_faq, models.limit_cycle_field, modes=1,
    ),
    "rotators": _Model(
        models.RotatorParams,
        {"omega1": ("omega1", None), "omega2": ("omega2", None), "lambda": ("lam", None), "l": ("l", None)},
        models.rotator_faq, models.rotator_field, modes=2,
    ),
}


def _integer(value) -> int:
    """An integer config value: a JSON integer, or a number with no
    fractional part such as 12.0.  Booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A real config value: a finite JSON number.  Booleans, strings and the
    non-standard NaN and Infinity are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite real number, got {value!r}")
    return number


def _integer_from(low: int) -> Callable:
    """The caster of an integer config value of at least low."""

    def cast(value) -> int:
        number = _integer(value)
        if number < low:
            raise ValueError(f"expected an integer of at least {low}, got {value!r}")
        return number

    return cast


def _positive(value) -> float:
    """A real config value above zero, such as a tolerance."""
    number = _real(value)
    if number <= 0:
        raise ValueError(f"expected a positive real number, got {value!r}")
    return number


def _relative_tol(value) -> float:
    """A relative tolerance: a real config value strictly between 0 and 1."""
    number = _real(value)
    if not 0 < number < 1:
        raise ValueError(f"expected a real number in (0, 1), got {value!r}")
    return number


def _is_real(value) -> bool:
    try:
        _real(value)
    except (TypeError, ValueError):
        return False
    return True


def _complex_pair(value) -> list:
    """A complex config value as [re, im]: exactly two finite real numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [re, im], two finite real numbers, got {value!r}")
    for part in value:
        _real(part)
    return list(value)


# numerics read by the FAQ check of the oscillator, limit-cycle and rotators runs
_FAQ_CHECK = {
    "faq_points": (False, 100, _integer_from(1)),
    "faq_tol": (False, 1e-12, _positive),
}

# key -> (required, default, caster); classical-flow adds the block of the
# model named in params.model (see _schema)
_SCHEMAS = {
    "oscillator": {
        "params": _MODELS["oscillator"].block,
        "numerics": {
            "dim": (True, None, _integer_from(models.OSCILLATOR_DIM_MIN)),
            "evolve.dt": (True, None, _real),
            "t_end": (True, None, _real),
            "alpha": (False, [2.0, 0.0], _complex_pair),
            "sample_every": (False, 0, _integer),
            "validate.pos_tol": (False, 1e-8, _positive),
            **_FAQ_CHECK,
        },
    },
    "limit-cycle": {
        "params": _MODELS["limit-cycle"].block,
        "numerics": {
            "dim": (True, None, _integer_from(models.LIMIT_CYCLE_DIM_MIN)),
            "n_max": (True, None, _integer_from(models.RECURRENCE_N_MAX_MIN)),
            "stationary.null_tol": (False, 1e-10, _relative_tol),
            "validate.pos_tol": (False, 1e-8, _positive),
            **_FAQ_CHECK,
        },
    },
    "rotators": {
        "params": _MODELS["rotators"].block,
        "numerics": {
            "stationary.null_tol": (False, 1e-10, _relative_tol),
            "validate.pos_tol": (False, 1e-8, _positive),
            **_FAQ_CHECK,
        },
    },
    "classical-flow": {
        "params": {"model": (True, None, str)},
        "numerics": {
            "dt": (True, None, _real),
            "t_end": (True, None, _real),
            "record_every": (False, 1, _integer),
            "initial": (True, None, list),
        },
    },
    "conformance": {
        "params": _MODELS["rotators"].block,
        "numerics": {
            "n_samples": (False, 50, _integer),
            "tol": (False, 1e-10, _real),
        },
    },
}


def _schema(experiment: str, params) -> dict:
    schema = _SCHEMAS[experiment]
    if experiment == "classical-flow" and isinstance(params, dict) and params.get("model") in _MODELS:
        return {**schema, "params": {**schema["params"], **_MODELS[params["model"]].block}}
    return schema


def _flow_problems(params, numerics) -> list[str]:
    """classical-flow checks beyond the keys: a known model, and initial
    points of [re, im] pairs, one pair per mode of that model."""
    if not isinstance(params, dict) or "model" not in params or not isinstance(numerics, dict):
        return []  # reported as a missing key or a malformed section
    name = params["model"]
    if name not in _MODELS:
        return [f"unknown params.model {name!r}; expected one of {', '.join(_MODELS)}"]
    if "initial" not in numerics:
        return []
    initial = numerics["initial"]
    if not isinstance(initial, list) or not initial:
        return ["numerics.initial must be a non-empty list of phase points"]
    modes = _MODELS[name].modes
    problems = []
    for i, point in enumerate(initial):
        if not isinstance(point, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(_is_real(x) for x in pair)
            for pair in point
        ):
            problems.append(f"numerics.initial[{i}] must be a list of [re, im] pairs of finite real numbers")
        elif len(point) != modes:
            problems.append(f"numerics.initial[{i}] has {len(point)} modes; model {name} needs {modes}")
    return problems


# experiment -> the numerics key of its time step; these runs take
# round(t_end / dt) steps (integrate._step_count)
_TIME_STEPS = {"oscillator": "evolve.dt", "classical-flow": "dt"}


def _grid_problems(experiment: str, numerics, sweep) -> list[str]:
    """Time grids, swept values included, that do not end at t_end: a step
    that is not positive, a negative t_end, or a t_end that is not a whole
    number of steps to 1e-9 relative."""
    dt_key = _TIME_STEPS.get(experiment)
    if dt_key is None or not isinstance(numerics, dict):
        return []

    def values(key):
        swept = sweep.get(f"numerics.{key}") if isinstance(sweep, dict) else None
        try:
            return [_real(value) for value in (swept if isinstance(swept, list) else [numerics.get(key)])]
        except (TypeError, ValueError):
            return []  # reported as a missing key or a bad value

    t_ends, steps = values("t_end"), values(dt_key)
    problems = [f"numerics.{dt_key} must be positive, got {dt!r}" for dt in steps if dt <= 0]
    problems += [f"numerics.t_end must be non-negative, got {t_end!r}" for t_end in t_ends if t_end < 0]
    for t_end, dt in product(t_ends, steps):
        if dt <= 0 or t_end < 0:
            continue
        count = t_end / dt
        if math.isinf(count) or abs(count - round(count)) > 1e-9 * count:
            problems.append(
                f"numerics.t_end {t_end!r} is not a whole number of numerics.{dt_key} {dt!r} steps"
                f" ({count:.6g})"
            )
    return problems


def _params_problems(resolved: dict) -> list[str]:
    """Model parameters that the model's params dataclass rejects, at every
    point of the sweep grid over params keys, and rotators spin sizes above
    the exact-solve limit."""
    experiment = resolved["experiment"]
    if experiment == "classical-flow":
        name = resolved["params"]["model"]
    elif experiment == "conformance":
        name = "rotators"
    else:
        name = experiment
    swept = {dotted: values for dotted, values in resolved["sweep"].items() if dotted.startswith("params.")}
    problems = []
    for combo in product(*swept.values()):
        point = dict(zip(swept, combo))
        p = {**resolved["params"], **{dotted.partition(".")[2]: value for dotted, value in point.items()}}
        where = "bad params"
        if point:
            where += " at sweep point " + ", ".join(f"{dotted}={value!r}" for dotted, value in point.items())
        try:
            params = _MODELS[name].build(p)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if experiment == "rotators" and params.l > models.EXACT_SPIN_L_MAX:
            problems.append(
                f"{where}: params.l {params.l!r} exceeds the exact stationary solve limit l <= {models.EXACT_SPIN_L_MAX}"
            )
    return problems


def _null_paths(value, path: str):
    """Dotted paths of every JSON null inside value."""
    if value is None:
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _null_paths(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _null_paths(item, f"{path}[{i}]")


def _cast(cast, value):
    return list(value) if cast is list else cast(value)


def _cast_problem(name: str, cast, value) -> list[str]:
    """A problem naming a value its schema caster rejects; nulls are named
    by the null check instead."""
    if value is None:
        return []
    try:
        _cast(cast, value)
    except (TypeError, ValueError) as exc:
        return [f"bad value for {name}: {exc}"]
    return []


def validate_config(config: dict) -> list[str]:
    """Schema check without running; returns a list of named problems."""
    problems: list[str] = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    experiment = config.get("experiment")
    if experiment is None:
        return ["missing key: experiment"]
    if experiment not in EXPERIMENTS:
        return [f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"]
    schema = _schema(experiment, config.get("params"))
    if "seed" not in config:
        problems.append("missing key: seed")
    elif isinstance(config["seed"], bool) or not isinstance(config["seed"], int):
        problems.append("seed must be an integer")
    allowed_top = {"experiment", "seed", "output_dir", "params", "numerics", "sweep"}
    for key in config:
        if key not in allowed_top:
            problems.append(f"extra key: {key}")
    problems.extend(f"null value: {path}" for path in _null_paths(config, ""))
    for section in ("params", "numerics"):
        given = config.get(section, {})
        if not isinstance(given, dict):
            problems.append(f"{section} must be an object")
            continue
        for key, (required, _default, _caster) in schema[section].items():
            if required and key not in given:
                problems.append(f"missing key: {section}.{key}")
        for key, value in given.items():
            if key not in schema[section]:
                problems.append(f"extra key: {section}.{key}")
            else:
                problems.extend(_cast_problem(f"{section}.{key}", schema[section][key][2], value))
    if experiment == "classical-flow":
        problems.extend(_flow_problems(config.get("params", {}), config.get("numerics", {})))
    sweep = config.get("sweep", {})
    if sweep:
        if not isinstance(sweep, dict):
            problems.append("sweep must be an object")
        else:
            for dotted, values in sweep.items():
                section, _, key = dotted.partition(".")
                if section not in ("params", "numerics") or key not in schema.get(section, {}):
                    problems.append(f"sweep key does not name a config entry: {dotted}")
                elif dotted == "params.model":
                    problems.append("sweep key params.model: the model fixes the other params keys")
                elif not isinstance(values, list) or not values:
                    problems.append(f"sweep values for {dotted} must be a non-empty list")
                else:
                    cast = schema[section][key][2]
                    for i, value in enumerate(values):
                        problems.extend(_cast_problem(f"sweep {dotted}[{i}]", cast, value))
    problems.extend(_grid_problems(experiment, config.get("numerics"), sweep))
    if not problems:
        problems.extend(_params_problems(_resolve(config)))
    return problems


def resolve_config(config: dict) -> dict:
    """Fill in every default so the manifest carries no hidden settings."""
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return _resolve(config)


def _resolve(config: dict) -> dict:
    """The config with every default filled in and every value cast; its
    keys and values must already have passed validate_config's checks."""
    experiment = config["experiment"]
    schema = _schema(experiment, config.get("params"))
    resolved = {
        "experiment": experiment,
        "seed": int(config["seed"]),
        "output_dir": config.get("output_dir", "runs"),
        "params": {},
        "numerics": {},
        "sweep": {},
    }
    for section in ("params", "numerics"):
        given = config.get(section, {})
        for key, (_required, default, cast) in schema[section].items():
            resolved[section][key] = _cast(cast, given.get(key, default))
    for dotted, values in config.get("sweep", {}).items():
        section, _, key = dotted.partition(".")
        cast = schema[section][key][2]
        resolved["sweep"][dotted] = [_cast(cast, value) for value in values]
    return resolved


def _config_hash(resolved: dict) -> str:
    hashed = {key: value for key, value in resolved.items() if key != "output_dir"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _checked_model(name: str, resolved: dict):
    """Params and FAQ system of the named model, and the summary entries of
    its FAQ check against the model's reference field."""
    model = _MODELS[name]
    params = model.build(resolved["params"])
    system = model.faq(params)
    n = resolved["numerics"]
    check = verify_faq(
        system,
        model.field(params),
        sample_phase_points(model.modes, n["faq_points"], seed=resolved["seed"]),
        n["faq_tol"],
    )
    return params, system, {"faq_max_error": check.max_abs_error, "faq_pass": check.passed}


# -- experiment bodies -------------------------------------------------------


def _run_oscillator(resolved: dict, out_dir: Path | None) -> dict:
    n = resolved["numerics"]
    params, system, summary = _checked_model("oscillator", resolved)
    dim = n["dim"]
    dt = n["evolve.dt"]
    t_end = n["t_end"]
    alpha = complex(n["alpha"][0], n["alpha"][1])
    model = models.oscillator_lindblad(params, dim)
    rho0 = DensityMatrix.coherent_state(dim, alpha)
    a_op = annihilation(dim)
    sample_every = n["sample_every"] or None
    result = evolve(
        model, rho0, t_end, dt,
        observables={"a": a_op, "n": number(dim)},
        sample_every=sample_every,
        validate_pos_tol=n["validate.pos_tol"],
    )
    steps_per_sample = int(round((result.times[1] - result.times[0]) / dt)) if len(result.times) > 1 else 1
    [(trajectory, weights)] = ensemble_weights(
        system, [PhasePoint([alpha])], t_end, dt, record_every=steps_per_sample
    )
    n_common = min(len(trajectory.times), len(result.times))
    ehrenfest = float(np.max(np.abs(
        result.expectations["a"][:n_common] - trajectory.states[:n_common, 0]
    )))
    summary.update({
        "ehrenfest_max_error": ehrenfest,
        "mean_n_final": float(result.expectations["n"][-1].real),
        "max_trace_deviation": result.max_trace_deviation,
        "max_hermiticity_deviation": result.max_hermiticity_deviation,
        "min_eigenvalue": result.min_eigenvalue,
    })
    if out_dir is not None:
        export_trajectory_csv(trajectory, out_dir / "classical.csv", weights)
        write_csv(
            out_dir / "quantum.csv", ["t", "a", "n"],
            [result.times, result.expectations["a"], result.expectations["n"]],
        )
    return summary


def _run_limit_cycle(resolved: dict, out_dir: Path | None) -> dict:
    n = resolved["numerics"]
    params, _system, summary = _checked_model("limit-cycle", resolved)
    dim = n["dim"]
    distribution = models.recurrence_stationary(params.nu, n["n_max"])
    model = models.limit_cycle_lindblad(params, dim)
    state = stationary(model, null_tol=n["stationary.null_tol"], pos_tol=n["validate.pos_tol"])
    diag = np.diag(state.mat).real
    off = state.mat - np.diag(np.diag(state.mat))
    n_common = min(dim, len(distribution))
    summary.update({
        "nu": params.nu,
        "mean_n": models.mean_n(params.nu),
        "mandel_q": models.mandel_q(params.nu),
        "diag_max_error": float(np.max(np.abs(diag[:n_common] - distribution[:n_common]))),
        "offdiag_max": float(np.max(np.abs(off))),
    })
    if out_dir is not None:
        size = max(len(distribution), dim)
        write_csv(
            out_dir / "distribution.csv", ["n", "p_recurrence", "p_exact"],
            [range(size), np.pad(distribution, (0, size - len(distribution))), np.pad(diag, (0, size - dim))],
        )
        export_operator_csv(state.op, out_dir / "stationary_state.csv")
    return summary


def _run_rotators(resolved: dict, out_dir: Path | None) -> dict:
    n = resolved["numerics"]
    params, _system, summary = _checked_model("rotators", resolved)
    report = models.closure_vs_exact_report(
        params, null_tol=n["stationary.null_tol"], pos_tol=n["validate.pos_tol"]
    )
    last = report.rows[-1]
    summary.update({
        "x_closure": last.x_closure,
        "x_exact": last.x_exact,
        "rel_deviation": last.rel_deviation,
        "lz_exact": last.lz_exact,
    })
    if out_dir is not None:
        rows = [
            (row.l, row.n_excitations, row.x_closure, row.x_exact,
             row.rel_deviation, row.lz_exact, row.ly_exact)
            for row in report.rows
        ]
        write_csv(
            out_dir / "closure.csv",
            ["l", "N", "x_closure", "x_exact", "rel_deviation", "lz_exact", "ly_exact"],
            zip(*rows),
        )
    return summary


def _run_classical_flow(resolved: dict, out_dir: Path | None) -> dict:
    p = resolved["params"]
    n = resolved["numerics"]
    model = _MODELS[p["model"]]
    system = model.faq(model.build(p))
    initial = [PhasePoint([complex(re, im) for re, im in point]) for point in n["initial"]]
    carried = ensemble_weights(system, initial, n["t_end"], n["dt"], record_every=n["record_every"])
    finals = [float(weights[-1]) for _traj, weights in carried]
    summary = {
        "n_points": len(carried),
        "final_weight_min": min(finals),
        "final_weight_max": max(finals),
    }
    if out_dir is not None:
        for index, (trajectory, weights) in enumerate(carried):
            export_trajectory_csv(trajectory, out_dir / f"trajectory_{index:03d}.csv", weights)
    return summary


def _run_conformance(resolved: dict, out_dir: Path | None) -> dict:
    n = resolved["numerics"]
    params = _MODELS["rotators"].build(resolved["params"])
    report = models.moment_equations_conformance(
        params, n_samples=n["n_samples"], seed=resolved["seed"], tol=n["tol"]
    )
    summary = {"n_samples": report.n_samples, "tol": report.tol}
    for line in report.lines:
        slug = line.observable.replace("(", "_").replace(")", "").replace(",", "_").replace("^", "")
        summary[f"deviation_{slug}"] = line.max_abs_deviation
        summary[f"agrees_{slug}"] = line.agrees
    if out_dir is not None:
        rows = [(line.observable, line.max_abs_deviation, line.agrees) for line in report.lines]
        write_csv(out_dir / "conformance.csv", ["moment_equation", "max_abs_deviation", "agrees"], zip(*rows))
    return summary


_RUNNERS = {
    "oscillator": _run_oscillator,
    "limit-cycle": _run_limit_cycle,
    "rotators": _run_rotators,
    "classical-flow": _run_classical_flow,
    "conformance": _run_conformance,
}


# -- sweep machinery ---------------------------------------------------------


def _apply_override(resolved: dict, dotted: str, value):
    section, _, key = dotted.partition(".")
    out = json.loads(json.dumps(resolved))
    out[section][key] = value
    out["sweep"] = {}
    return out


def _sweep_point(payload: str) -> dict:
    resolved = json.loads(payload)
    runner = _RUNNERS[resolved["experiment"]]
    return runner(resolved, None)


def _run_sweep(resolved: dict, out_dir: Path, jobs: int) -> dict:
    sweep = resolved["sweep"]
    keys = sorted(sweep)
    grids = [sweep[key] for key in keys]
    points = []
    for combo in product(*grids):
        overridden = json.loads(json.dumps(resolved))
        for dotted, value in zip(keys, combo):
            overridden = _apply_override(overridden, dotted, value)
        points.append((combo, overridden))
    payloads = [json.dumps(point, sort_keys=True) for _combo, point in points]
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_point, payloads))
    else:
        summaries = [_sweep_point(payload) for payload in payloads]
    summary_keys = sorted(summaries[0]) if summaries else []
    header = list(keys) + summary_keys
    rows = []
    for (combo, _point), summary in zip(points, summaries):
        rows.append(list(combo) + [summary[k] for k in summary_keys])
    write_csv(out_dir / "sweep.csv", header, zip(*rows))
    return {"grid_points": len(points), "sweep_keys": ",".join(keys)}


# -- entry points ------------------------------------------------------------


def run_config(config: dict, output_dir: str | None = None, seed: int | None = None, jobs: int = 1) -> Path:
    """Resolve, run, and write artifacts; returns the run directory.

    A sweep runs its grid points on min(jobs, grid points, cpu count)
    worker processes.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    config = dict(config)
    if seed is not None:
        config["seed"] = seed
    if output_dir is not None:
        config["output_dir"] = output_dir
    resolved = resolve_config(config)
    run_hash = _config_hash(resolved)
    out_dir = Path(resolved["output_dir"]) / f"{resolved['experiment']}-{run_hash}"
    out_dir.mkdir(parents=True, exist_ok=True)

    if resolved["sweep"]:
        summary = _run_sweep(resolved, out_dir, jobs)
    else:
        summary = _RUNNERS[resolved["experiment"]](resolved, out_dir)

    summary_payload = {"experiment": resolved["experiment"], "seed": resolved["seed"], **summary}
    _write_json(out_dir / "summary.json", summary_payload)
    _write_json(out_dir / "manifest.json", {"config": resolved, "hash": run_hash, "seed": resolved["seed"]})
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="semiq", description="semiclassical quantization experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", type=Path)
    run_parser.add_argument("--output-dir", default=None)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--jobs", type=int, default=1)

    validate_parser = sub.add_parser("validate", help="schema-check a config without running")
    validate_parser.add_argument("config", type=Path)

    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        problems = validate_config(config)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}")
            return 1
        print("valid")
        return 0

    try:
        out_dir = run_config(config, output_dir=args.output_dir, seed=args.seed, jobs=args.jobs)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(out_dir)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
