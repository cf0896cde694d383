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

Each experiment is one entry of the table `_EXPERIMENTS`: its numerics
schema (a default, or None for a required key, and a caster per key), the
model whose params block it takes (classical-flow takes the one that
`params.model` names), the numerics key of its time step if it has one,
and its runner.  Validation is resolution: `_resolve` casts each given and
each swept value once, fills in the defaults, and turns each complaint of a
caster into a named problem.  `validate_config` returns those problems and
`resolve_config` raises them as one ConfigError.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from . import models
from ._blas import blas_threads
from ._csv import write_csv
from .errors import NumericalFailure
from .faq import ensemble_weights, export_trajectory_csv, sample_phase_points, verify_faq
from .integrate import _default_sample_every
from .lindblad import NULL_TOL, POSITIVITY_TOL, DensityMatrix, evolve, stationary
from .observables import PhasePoint
from .quantize import FockSpace, annihilation, export_operator_csv, number

__all__ = ["main", "entry", "validate_config", "resolve_config", "run_config"]


class ConfigError(ValueError):
    pass


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
        return {key: (default, _real) for key, (_name, default) in self.keys.items()}

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


# -- casters: each takes a JSON value and returns it cast, or raises ---------


class _ReadsOn(ValueError):
    """A caster's complaint worded to follow the key's name, as in
    "numerics.initial[0] must be ...", not "bad value for <key>: ..."."""


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


def _narrowed(cast: Callable, test: Callable, wanted: str) -> Callable:
    """The caster cast, narrowed to the values that pass test."""

    def narrowed(value):
        number = cast(value)
        if not test(number):
            raise ValueError(f"expected {wanted}, got {value!r}")
        return number

    return narrowed


def _integer_from(low: int) -> Callable:
    """The caster of an integer config value of at least low."""
    return _narrowed(_integer, lambda number: number >= low, f"an integer of at least {low}")


# a real config value above zero, such as a tolerance
_positive = _narrowed(_real, lambda number: number > 0, "a positive real number")
# a relative tolerance: a real config value strictly between 0 and 1
_relative_tol = _narrowed(_real, lambda number: 0 < number < 1, "a real number in (0, 1)")


def _complex_pair(value) -> list:
    """A complex config value as [re, im]: exactly two finite real numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected [re, im], two finite real numbers, got {value!r}")
    for part in value:
        _real(part)
    return list(value)


def _model_name(value) -> str:
    """params.model of a classical-flow config; _resolve names an unknown one."""
    if not isinstance(value, str):
        raise TypeError(f"expected a model name, got {value!r}")
    return value


def _phase_points(model: str | None) -> Callable:
    """The caster of a classical-flow numerics.initial: a non-empty list of
    phase points, each a list of [re, im] pairs, one pair per mode of the
    named model (any number of pairs when no known model is named)."""
    modes = _MODELS[model].modes if model else None

    def cast(value) -> list:
        if not isinstance(value, list) or not value:
            raise _ReadsOn(" must be a non-empty list of phase points")
        points = []
        for i, point in enumerate(value):
            try:
                if not isinstance(point, list):
                    raise TypeError(point)
                points.append([_complex_pair(pair) for pair in point])
            except (TypeError, ValueError):
                raise _ReadsOn(f"[{i}] must be a list of [re, im] pairs of finite real numbers") from None
            if modes is not None and len(point) != modes:
                raise _ReadsOn(f"[{i}] has {len(point)} modes; model {model} needs {modes}")
        return points

    return cast


# -- resolution --------------------------------------------------------------


_TOP_KEYS = ("experiment", "seed", "output_dir", "params", "numerics", "sweep")


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


def _cast(name: str, caster: Callable, value, problems: list[str]):
    """value as its caster returns it, or None with the caster's complaint
    added to problems.  A null stays None; the null check names it."""
    if value is None:
        return None
    try:
        return caster(value)
    except _ReadsOn as exc:
        problems.append(f"{name}{exc}")
    except (TypeError, ValueError) as exc:
        problems.append(f"bad value for {name}: {exc}")
    return None


def _resolve(config) -> tuple[dict, list[str]]:
    """The config with every given and swept value cast once and every
    default filled in, and the problems met on the way.

    A value that is missing, null or rejected resolves to None, so the
    resolved config is complete only when there are no problems; only then
    are the model's parameters built at every sweep point and checked.
    """
    if not isinstance(config, dict):
        return {}, ["config must be a JSON object"]
    experiment = config.get("experiment")
    if experiment is None:
        return {}, ["missing key: experiment"]
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        return {}, [f"unknown experiment {experiment!r}; expected one of {', '.join(_EXPERIMENTS)}"]
    spec = _EXPERIMENTS[experiment]
    problems = []
    seed = config.get("seed")
    if "seed" not in config:
        problems.append("missing key: seed")
    elif isinstance(seed, bool) or not isinstance(seed, int):
        problems.append("seed must be an integer")
    problems += [f"extra key: {key}" for key in config if key not in _TOP_KEYS]
    problems += [f"null value: {path}" for path in _null_paths(config, "")]

    model = spec.model
    if model is None:  # classical-flow: params.model names the model
        params = config.get("params")
        name = params.get("model") if isinstance(params, dict) else None
        model = name if isinstance(name, str) and name in _MODELS else None
    schema = {"params": _MODELS[model].block if model else {}, "numerics": spec.numerics}
    if spec.model is None:
        schema["params"] = {"model": (None, _model_name), **schema["params"]}
        schema["numerics"] = {**spec.numerics, "initial": (None, _phase_points(model))}

    resolved = {"experiment": experiment, "seed": seed, "output_dir": config.get("output_dir", "runs"), "sweep": {}}
    for section, keys in schema.items():
        given = config.get(section, {})
        if not isinstance(given, dict):
            problems.append(f"{section} must be an object")
            resolved[section] = None
            continue
        problems += [f"missing key: {section}.{key}" for key in keys if keys[key][0] is None and key not in given]
        resolved[section] = {key: _cast(key, caster, default, problems) for key, (default, caster) in keys.items()}
        for key, value in given.items():
            if key in keys:
                resolved[section][key] = _cast(f"{section}.{key}", keys[key][1], value, problems)
            else:
                problems.append(f"extra key: {section}.{key}")
    name = (resolved["params"] or {}).get("model")
    if name is not None and name not in _MODELS:
        problems.append(f"unknown params.model {name!r}; expected one of {', '.join(_MODELS)}")
    # a null output_dir or sweep is named by the null check
    if not isinstance(config.get("output_dir", ""), (str, type(None))):
        problems.append("output_dir must be a string")
    sweep = config.get("sweep", {})
    if not isinstance(sweep, (dict, type(None))):
        problems.append("sweep must be an object")
    for dotted, values in sweep.items() if isinstance(sweep, dict) else ():
        section, _, key = dotted.partition(".")
        if key not in schema.get(section, {}):
            problems.append(f"sweep key does not name a config entry: {dotted}")
        elif dotted == "params.model":
            problems.append("sweep key params.model: the model fixes the other params keys")
        elif not isinstance(values, list) or not values:
            problems.append(f"sweep values for {dotted} must be a non-empty list")
        else:
            caster = schema[section][key][1]
            resolved["sweep"][dotted] = [
                _cast(f"sweep {dotted}[{i}]", caster, value, problems) for i, value in enumerate(values)
            ]
    problems += _grid_problems(spec.time_step, resolved)
    if not problems:
        problems += _params_problems(resolved, model)
    return resolved, problems


def _grid_problems(dt_key: str | None, resolved: dict) -> list[str]:
    """Time grids, swept values included, that do not end at t_end: a step
    that is not positive, a negative t_end, or a t_end that is not a whole
    number of steps to 1e-9 relative.  A value that did not resolve is
    skipped, its problem already named; the values beside it are checked."""
    numerics = resolved["numerics"]
    if dt_key is None or numerics is None:
        return []

    def values(key):
        values = resolved["sweep"].get(f"numerics.{key}", [numerics[key]])
        return [value for value in values if value is not None]

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


def _params_problems(resolved: dict, model: str) -> list[str]:
    """Model parameters that the model's params dataclass rejects, at every
    point of the sweep grid over params keys, and the values a run's
    baseline rejects: rotators spin sizes above the exact-solve limit, a
    limit-cycle gain lambda that is not positive (recurrence_stationary
    needs nu > 0), and a limit-cycle nu above KUMMER_X_MAX / 2 (mean_n and
    mandel_q sum Phi at x = 2 nu)."""
    experiment = resolved["experiment"]
    keys = [dotted for dotted in resolved["sweep"] if dotted.startswith("params.")]
    problems = []
    for combo, point in _grid(resolved, keys):
        where = "bad params"
        if keys:
            where += " at sweep point " + ", ".join(f"{dotted}={value!r}" for dotted, value in zip(keys, combo))
        try:
            params = _MODELS[model].build(point["params"])
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if experiment == "limit-cycle" and not params.nu > 0:
            problems.append(
                f"{where}: params.lambda must be positive; the stationary baseline needs nu = lambda / mu > 0"
            )
        if experiment == "limit-cycle" and 2.0 * params.nu > models.KUMMER_X_MAX:
            problems.append(
                f"{where}: nu = lambda / mu {params.nu!r} exceeds the series limit {models.KUMMER_X_MAX / 2:g} of mean_n"
            )
        if experiment == "rotators" and params.l > models.EXACT_SPIN_L_MAX:
            problems.append(
                f"{where}: params.l {params.l!r} exceeds the exact stationary solve limit l <= {models.EXACT_SPIN_L_MAX}"
            )
    return problems


def _grid(resolved: dict, keys: list[str]):
    """Each point of the grid over the given sweep keys: its values, and the
    resolved config of the single run there."""
    for combo in product(*(resolved["sweep"][key] for key in keys)):
        point = {**resolved, "params": dict(resolved["params"]), "numerics": dict(resolved["numerics"]), "sweep": {}}
        for dotted, value in zip(keys, combo):
            section, _, key = dotted.partition(".")
            point[section][key] = value
        yield combo, point


def validate_config(config: dict) -> list[str]:
    """Schema check without running; returns a list of named problems."""
    return _resolve(config)[1]


def resolve_config(config: dict) -> dict:
    """Fill in every default so the manifest carries no hidden settings."""
    resolved, problems = _resolve(config)
    if problems:
        raise ConfigError("; ".join(problems))
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


@blas_threads(1)
def _run_oscillator(resolved: dict, out_dir: Path | None) -> dict:
    # The whole run takes the one BLAS thread evolve takes.  A two-thread
    # call before evolve (a d = 80 product in the quantized model, the
    # eigvalsh of the initial state) wakes OpenBLAS's worker thread, which
    # then spins through most of the single-thread evolve: a short d = 80
    # run took 0.05 s, or up to 0.27 s where the spinner shared the
    # core of the main thread.
    n = resolved["numerics"]
    params, system, summary = _checked_model("oscillator", resolved)
    dim = n["dim"]
    dt = n["evolve.dt"]
    t_end = n["t_end"]
    alpha = complex(n["alpha"][0], n["alpha"][1])
    model = models.quantized_lindblad(system, FockSpace((dim,)))
    rho0 = DensityMatrix.coherent_state(dim, alpha)
    a_op = annihilation(dim)
    sample_every = n["sample_every"] or _default_sample_every(t_end, dt)
    result = evolve(
        model, rho0, t_end, dt,
        observables={"a": a_op, "n": number(dim)},
        sample_every=sample_every,
        pos_tol=n["validate.pos_tol"],
    )
    [(trajectory, weights)] = ensemble_weights(system, [PhasePoint([alpha])], t_end, dt, record_every=sample_every)
    ehrenfest = float(np.max(np.abs(result.expectations["a"] - trajectory.states[:, 0])))
    summary.update({
        "ehrenfest_max_error": ehrenfest,
        "mean_n_final": float(result.expectations["n"][-1].real),
        "max_trace_deviation": result.max_trace_deviation,
        "max_hermiticity_deviation": result.max_hermiticity_deviation,
        "min_eigenvalue": result.min_eigenvalue,
        "min_eigenvalue_bound": result.min_eigenvalue_bound,
        "top_level_population": result.top_level_population,
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
    params, system, summary = _checked_model("limit-cycle", resolved)
    dim = n["dim"]
    distribution = models.recurrence_stationary(params.nu, n["n_max"])
    model = models.quantized_lindblad(system, FockSpace((dim,)))
    state = stationary(model, null_tol=n["stationary.null_tol"], pos_tol=n["validate.pos_tol"])
    diag = np.diag(state.mat).real
    off = state.mat - np.diag(np.diag(state.mat))
    shared = min(dim, len(distribution))
    summary.update({
        "nu": params.nu,
        "mean_n": models.mean_n(params.nu),
        "mandel_q": models.mandel_q(params.nu),
        "diag_max_error": float(np.max(np.abs(diag[:shared] - distribution[:shared]))),
        "offdiag_max": float(np.max(np.abs(off))),
        "recurrence_tail": float(distribution[-1]),
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


# -- the experiment table ----------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """What a config's experiment fixes.

    `numerics` maps each key of the numerics block to its default (None:
    required) and its caster.  `model` names the model whose params block
    the experiment takes; None for classical-flow, where params.model names
    it.  `time_step` is the numerics key of the step of a run that takes
    round(t_end / dt) steps (integrate._step_count), or None.  `run` takes
    the resolved config and the run directory (None at a sweep point) and
    returns the summary entries.
    """

    numerics: dict
    model: str | None
    time_step: str | None
    run: Callable


# numerics read by the FAQ check of the oscillator, limit-cycle and rotators runs
_FAQ_CHECK = {
    "faq_points": (100, _integer_from(1)),
    "faq_tol": (1e-12, _positive),
}

_EXPERIMENTS = {
    "oscillator": _Experiment(
        {
            "dim": (None, _integer_from(models.OSCILLATOR_DIM_MIN)),
            "evolve.dt": (None, _real),
            "t_end": (None, _real),
            "alpha": ([2.0, 0.0], _complex_pair),
            "sample_every": (0, _integer_from(0)),
            "validate.pos_tol": (POSITIVITY_TOL, _positive),
            **_FAQ_CHECK,
        },
        "oscillator", "evolve.dt", _run_oscillator,
    ),
    "limit-cycle": _Experiment(
        {
            "dim": (None, _integer_from(models.LIMIT_CYCLE_DIM_MIN)),
            "n_max": (None, _integer_from(models.RECURRENCE_N_MAX_MIN)),
            "stationary.null_tol": (NULL_TOL, _relative_tol),
            "validate.pos_tol": (POSITIVITY_TOL, _positive),
            **_FAQ_CHECK,
        },
        "limit-cycle", None, _run_limit_cycle,
    ),
    "rotators": _Experiment(
        {
            "stationary.null_tol": (NULL_TOL, _relative_tol),
            "validate.pos_tol": (POSITIVITY_TOL, _positive),
            **_FAQ_CHECK,
        },
        "rotators", None, _run_rotators,
    ),
    # _resolve adds numerics.initial, cast for the model that params.model names
    "classical-flow": _Experiment(
        {
            "dt": (None, _real),
            "t_end": (None, _real),
            "record_every": (1, _integer_from(1)),
        },
        None, "dt", _run_classical_flow,
    ),
    "conformance": _Experiment(
        {
            "n_samples": (50, _integer_from(1)),
            "tol": (1e-10, _positive),
        },
        "rotators", None, _run_conformance,
    ),
}


# -- sweep machinery ---------------------------------------------------------


def _sweep_point(point: dict) -> dict:
    return _EXPERIMENTS[point["experiment"]].run(point, None)


def _run_sweep(resolved: dict, out_dir: Path, jobs: int) -> dict:
    keys = sorted(resolved["sweep"])
    combos, points = zip(*_grid(resolved, keys))
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_point, points))
    else:
        summaries = [_sweep_point(point) for point in points]
    summary_keys = sorted(summaries[0])
    rows = [list(combo) + [summary[k] for k in summary_keys] for combo, summary in zip(combos, summaries)]
    write_csv(out_dir / "sweep.csv", keys + summary_keys, zip(*rows))
    return {"grid_points": len(points), "sweep_keys": ",".join(keys)}


# -- entry points ------------------------------------------------------------


def run_config(config: dict, output_dir: str | None = None, seed: int | None = None, jobs: int = 1) -> Path:
    """Resolve, run, and write artifacts; returns the run directory.

    A sweep runs its grid points on min(jobs, grid points, cpu count)
    worker processes.  A run that raises removes the run directory if this
    call created it, and leaves one that existed before.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if isinstance(config, dict):  # resolve_config names any other value
        config = dict(config)
        if seed is not None:
            config["seed"] = seed
        if output_dir is not None:
            config["output_dir"] = output_dir
    resolved = resolve_config(config)
    run_hash = _config_hash(resolved)
    out_dir = Path(resolved["output_dir"]) / f"{resolved['experiment']}-{run_hash}"
    created = not out_dir.is_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if resolved["sweep"]:
            summary = _run_sweep(resolved, out_dir, jobs)
        else:
            summary = _EXPERIMENTS[resolved["experiment"]].run(resolved, out_dir)
        summary_payload = {"experiment": resolved["experiment"], "seed": resolved["seed"], **summary}
        _write_json(out_dir / "summary.json", summary_payload)
        _write_json(out_dir / "manifest.json", {"config": resolved, "hash": run_hash, "seed": resolved["seed"]})
    except BaseException:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
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
