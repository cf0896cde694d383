import csv
import hashlib
import json
from pathlib import Path

import pytest

from semiq import _blas, cli
from semiq.cli import _config_hash, main, resolve_config, validate_config
from semiq.errors import NumericalFailure
from semiq.faq import FaqSystem
from semiq.models import (
    EXACT_SPIN_L_MAX,
    KUMMER_X_MAX,
    LIMIT_CYCLE_DIM_MIN,
    OSCILLATOR_DIM_MIN,
    RECURRENCE_N_MAX_MIN,
    LimitCycleParams,
    OscillatorParams,
    limit_cycle_lindblad,
    ly2_analytic,
    mandel_q,
    oscillator_lindblad,
    recurrence_stationary,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# The shipped configs and the benchmark's inputs, by file name.
SHIPPED = {
    path.name: path
    for path in sorted(CONFIG_DIR.glob("*.json")) + sorted((CONFIG_DIR.parent / "perfbench" / "configs").glob("*.json"))
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def limit_cycle_config(**overrides):
    config = {
        "experiment": "limit-cycle",
        "seed": 11,
        "params": {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
        "numerics": {"dim": 30, "n_max": 30},
    }
    config.update(overrides)
    return config


def oscillator_config(**overrides):
    config = {
        "experiment": "oscillator",
        "seed": 11,
        "params": {"omega0": 1.0, "lambda": 0.1},
        "numerics": {"dim": 8, "evolve.dt": 0.01, "t_end": 0.1},
    }
    config.update(overrides)
    return config


def rotators_config(experiment="rotators", **params):
    return {
        "experiment": experiment,
        "seed": 4,
        "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.3, "l": 3, **params},
        "numerics": {},
    }


def run_dir_of(output_root):
    dirs = [d for d in output_root.iterdir() if d.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def tree_digest(root):
    payload = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            payload[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return payload


# -- validate ----------------------------------------------------------------


def test_validate_accepts_good_config(tmp_path, capsys):
    path = write_config(tmp_path, limit_cycle_config())
    assert main(["validate", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_shipped_configs_validate():
    assert len(SHIPPED) >= 7
    for name, path in SHIPPED.items():
        assert main(["validate", str(path)]) == 0, name


def test_validate_names_missing_key(tmp_path, capsys):
    config = limit_cycle_config()
    del config["numerics"]["dim"]
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    assert "numerics.dim" in capsys.readouterr().out


def test_validate_rejects_unknown_experiment(tmp_path, capsys):
    path = write_config(tmp_path, limit_cycle_config(experiment="frobnicate"))
    assert main(["validate", str(path)]) == 1
    assert "frobnicate" in capsys.readouterr().out


def test_validate_lists_extra_keys():
    config = limit_cycle_config()
    config["params"]["surprise"] = 1.0
    problems = validate_config(config)
    assert any("params.surprise" in p for p in problems)


def test_validate_checks_sweep_keys():
    config = limit_cycle_config(sweep={"params.nonsense": [1, 2]})
    problems = validate_config(config)
    assert any("params.nonsense" in p for p in problems)


def test_resolve_fills_defaults():
    resolved = resolve_config(limit_cycle_config())
    assert resolved["numerics"]["stationary.null_tol"] == 1e-10
    assert resolved["numerics"]["validate.pos_tol"] == 1e-8
    assert resolved["numerics"]["faq_points"] == 100


# Every shipped config with its resolved `params` and `numerics`, each default
# filled in.  Compared as JSON text, so 5 against 5.0 counts as a change.
RESOLVED_SHIPPED = {
    "classical_flow.json": (
        {"model": "limit-cycle", "omega": 1.0, "lambda": 0.5, "mu": 0.5},
        {"dt": 0.001, "t_end": 30.0, "record_every": 100,
         "initial": [[[0.1, 0.0]], [[1.5, 0.0]], [[0.0, 0.7]]]},
    ),
    "conformance.json": (
        {"omega1": 1.05, "omega2": 0.95, "lambda": 0.3, "l": 5.0},
        {"n_samples": 50, "tol": 1e-10},
    ),
    "limit_cycle.json": (
        {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
        {"dim": 30, "n_max": 30, "stationary.null_tol": 1e-10, "validate.pos_tol": 1e-8,
         "faq_points": 100, "faq_tol": 1e-12},
    ),
    "limit_cycle_sweep.json": (
        {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
        {"dim": 30, "n_max": 40, "stationary.null_tol": 1e-10, "validate.pos_tol": 1e-8,
         "faq_points": 100, "faq_tol": 1e-12},
    ),
    "oscillator.json": (
        {"omega0": 1.0, "lambda": 0.1, "u": 0.0},
        {"dim": 40, "evolve.dt": 0.001, "t_end": 20.0, "alpha": [2.0, 0.0], "sample_every": 0,
         "validate.pos_tol": 1e-8, "faq_points": 100, "faq_tol": 1e-12},
    ),
    "rotators.json": (
        {"omega1": 1.0, "omega2": 1.0, "lambda": 0.3, "l": 10.0},
        {"stationary.null_tol": 1e-10, "validate.pos_tol": 1e-8, "faq_points": 100, "faq_tol": 1e-12},
    ),
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_resolve_shipped_config(name):
    params, numerics = RESOLVED_SHIPPED[name]
    resolved = resolve_config(json.loads((CONFIG_DIR / name).read_text()))
    for section, expected in (("params", params), ("numerics", numerics)):
        assert json.dumps(resolved[section], sort_keys=True) == json.dumps(expected, sort_keys=True)


def flow_config(params=None, initial=None, **overrides):
    config = {
        "experiment": "classical-flow",
        "seed": 1,
        "params": params or {"model": "limit-cycle", "omega": 1.0, "lambda": 0.5, "mu": 0.5},
        "numerics": {"dt": 0.01, "t_end": 0.1, "initial": [[[0.1, 0.0]]] if initial is None else initial},
    }
    config.update(overrides)
    return config


@pytest.mark.parametrize("config, named", [
    (flow_config(params={"model": "pendulum", "omega": 1.0}), "params.model"),
    (flow_config(params={"model": "limit-cycle", "omega": 1.0, "lambda": 0.5}), "params.mu"),
    (flow_config(params={"model": "limit-cycle", "omega": 1.0, "lambda": 0.5, "mu": 0.5, "u": 0.0}), "params.u"),
    (flow_config(initial=[]), "numerics.initial"),
    (flow_config(initial=[[[0.1, 0.0], [0.2, 0.0]]]), "numerics.initial[0]"),
    (flow_config(sweep={"params.model": ["limit-cycle", "oscillator"]}), "params.model"),
], ids=["unknown-model", "missing-key", "extra-key", "empty-initial", "mode-count", "swept-model"])
def test_classical_flow_rejected_before_run(tmp_path, capsys, config, named):
    assert_rejected_before_run(tmp_path, capsys, config, named)


@pytest.mark.parametrize("config, named", [
    (flow_config(params={"model": []}), "bad value for params.model: expected a model name, got []"),
    (flow_config(params={"model": 5}), "bad value for params.model: expected a model name, got 5"),
    (flow_config(sweep={"numerics.initial": ["ab"]}),
     "sweep numerics.initial[0] must be a non-empty list of phase points"),
    (flow_config(sweep={"numerics.initial": [[[[0.1, 0]]], [[["x", 0]]]]}),
     "sweep numerics.initial[1][0] must be a list of [re, im] pairs of finite real numbers"),
    (flow_config(sweep={"numerics.initial": [[[[0.1, 0], [0.2, 0]]]]}),
     "sweep numerics.initial[0][0] has 2 modes; model limit-cycle needs 1"),
    ([1], "config must be a JSON object"),
    (3, "config must be a JSON object"),
    (None, "config must be a JSON object"),
    ("abc", "config must be a JSON object"),
], ids=["list-model", "numeric-model", "swept-initial-string", "swept-initial-string-coordinate",
        "swept-initial-two-modes", "list-config", "number-config", "null-config", "string-config"])
def test_config_error_is_named_not_raised(tmp_path, capsys, config, named):
    """Configs that validate and run once let through or crashed on: each is
    a named config error, exit 1, from validate and from run alike."""
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    said = capsys.readouterr()
    assert f"invalid: {named}" in said.out and "Traceback" not in said.err
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 1
    err = capsys.readouterr().err
    assert "config error: " in err and named in err and "Traceback" not in err
    assert not out_root.exists()


def assert_rejected_before_run(tmp_path, capsys, config, named):
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    assert named in capsys.readouterr().out
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 1
    assert named in capsys.readouterr().err
    assert not out_root.exists() or not any(out_root.iterdir())


def flow_with(key, value):
    config = flow_config()
    config["numerics"][key] = value
    return config


def conformance_with(key, value):
    config = rotators_config("conformance")
    config["numerics"][key] = value
    return config


def limit_cycle_with(section, key, value):
    config = limit_cycle_config()
    config[section][key] = value
    return config


def oscillator_with(key, value):
    config = oscillator_config()
    config["numerics"][key] = value
    return config


@pytest.mark.parametrize("config, named", [
    (limit_cycle_with("numerics", "dim", None), "numerics.dim"),
    (limit_cycle_with("numerics", "stationary.null_tol", None), "numerics.stationary.null_tol"),
    (limit_cycle_with("params", "mu", None), "params.mu"),
    (limit_cycle_config(sweep={"params.lambda": [0.5, None]}), "sweep.params.lambda[1]"),
    (limit_cycle_config(sweep={"params.lambda": ["x"]}), "params.lambda[0]"),
    (limit_cycle_config(sweep={"numerics.dim": [12, [16]]}), "numerics.dim[1]"),
    (limit_cycle_with("numerics", "n_max", "many"), "numerics.n_max"),
    (limit_cycle_with("numerics", "dim", 16.9), "numerics.dim"),
    (limit_cycle_with("numerics", "dim", True), "numerics.dim"),
    (limit_cycle_config(sweep={"numerics.n_max": [30, 30.5]}), "numerics.n_max[1]"),
    (limit_cycle_config(seed=True), "seed"),
    (oscillator_with("sample_every", 2.5), "numerics.sample_every"),
    (oscillator_with("sample_every", -3), "numerics.sample_every"),
    (oscillator_with("alpha", [1.0, 0.0, 0.0]), "numerics.alpha"),
    (oscillator_with("alpha", ["1", 0.0]), "numerics.alpha"),
    (oscillator_config(sweep={"numerics.alpha": [[1.0]]}), "numerics.alpha[0]"),
    (oscillator_with("t_end", "inf"), "numerics.t_end"),
    (limit_cycle_with("params", "lambda", "nan"), "params.lambda"),
    (limit_cycle_with("params", "mu", True), "params.mu"),
    (limit_cycle_config(sweep={"params.lambda": [1.0, float("nan")]}), "params.lambda[1]"),
    (oscillator_with("evolve.dt", 0.0), "numerics.evolve.dt"),
    (flow_with("t_end", -1.0), "numerics.t_end"),
    (flow_config(initial=[[[float("nan"), 0.0]]]), "numerics.initial[0]"),
    (flow_config(initial=[[[0.1, 0.0]], [[True, 0.0]]]), "numerics.initial[1]"),
    (rotators_config(l=0.5), "spin l must be at least 1"),
    (rotators_config(l=10.3), "2l must be integral"),
    (rotators_config(**{"lambda": -0.3}), "lam must be positive"),
    (rotators_config(l=EXACT_SPIN_L_MAX + 1), "exact stationary solve limit"),
    (rotators_config("conformance", l=0.5), "spin l must be at least 1"),
    (limit_cycle_with("params", "mu", 0), "mu must be positive"),
    (limit_cycle_config(sweep={"params.mu": [1.0, 0.0]}), "params.mu=0.0"),
    (limit_cycle_with("params", "lambda", 0.0), "params.lambda must be positive"),
    (limit_cycle_config(sweep={"params.lambda": [0.0, 0.5]}), "params.lambda=0.0"),
    (limit_cycle_config(params={"omega": 1.0, "lambda": 150.0, "mu": 1.0}, numerics={"dim": 30, "n_max": 400}),
     "nu = lambda / mu 150.0 exceeds the series limit 100 of mean_n"),
    (limit_cycle_config(sweep={"params.lambda": [1.0, 250.0]}), "params.lambda=250.0: nu = lambda / mu 250.0"),
    (limit_cycle_with("numerics", "dim", LIMIT_CYCLE_DIM_MIN - 1), "numerics.dim"),
    (limit_cycle_config(sweep={"numerics.dim": [12, LIMIT_CYCLE_DIM_MIN - 1]}), "numerics.dim[1]"),
    (limit_cycle_with("numerics", "n_max", RECURRENCE_N_MAX_MIN - 1), "numerics.n_max"),
    (oscillator_with("dim", OSCILLATOR_DIM_MIN - 1), "numerics.dim"),
    (limit_cycle_with("numerics", "faq_points", 0), "numerics.faq_points"),
    (oscillator_config(sweep={"numerics.faq_points": [10, 0]}), "numerics.faq_points[1]"),
    (limit_cycle_with("numerics", "stationary.null_tol", -1), "numerics.stationary.null_tol"),
    (limit_cycle_config(sweep={"numerics.stationary.null_tol": [1e-10, 1.0]}), "numerics.stationary.null_tol[1]"),
    (oscillator_with("validate.pos_tol", 0.0), "numerics.validate.pos_tol"),
    (limit_cycle_config(sweep={"numerics.validate.pos_tol": [1e-8, -1e-8]}), "numerics.validate.pos_tol[1]"),
    (limit_cycle_with("numerics", "faq_tol", -1e-12), "numerics.faq_tol"),
    (flow_with("record_every", 0), "numerics.record_every"),
    (conformance_with("n_samples", 0), "numerics.n_samples"),
    (dict(rotators_config("conformance"), sweep={"numerics.tol": [1e-10, 0.0]}), "numerics.tol[1]"),
    (limit_cycle_config(sweep=[]), "sweep"),
    (limit_cycle_config(sweep=0), "sweep"),
], ids=["null-required", "null-optional", "null-param", "null-sweep-value",
        "sweep-not-a-number", "sweep-list-for-int", "not-an-int", "fractional-int", "bool-for-int",
        "sweep-fractional-int", "bool-seed", "fractional-sample-every", "negative-sample-every",
        "alpha-three-numbers", "alpha-string", "sweep-alpha-one-number", "inf-string", "nan-string", "bool-for-real",
        "sweep-nan", "zero-step", "negative-t-end", "nan-initial", "bool-initial",
        "rotators-half-spin", "rotators-fractional-2l", "rotators-negative-lambda",
        "rotators-above-limit", "conformance-half-spin", "limit-cycle-zero-mu", "sweep-zero-mu",
        "limit-cycle-zero-lambda", "sweep-zero-lambda", "limit-cycle-nu-above-series-limit",
        "sweep-nu-above-series-limit",
        "limit-cycle-dim-below-min", "sweep-limit-cycle-dim-below-min", "n-max-below-min",
        "oscillator-dim-below-min", "zero-faq-points", "sweep-zero-faq-points", "negative-null-tol",
        "sweep-null-tol-one", "zero-pos-tol", "sweep-negative-pos-tol", "negative-faq-tol",
        "zero-record-every", "zero-conformance-samples", "sweep-zero-conformance-tol",
        "sweep-empty-list", "sweep-zero"])
def test_bad_value_rejected_before_run(tmp_path, capsys, config, named):
    assert_rejected_before_run(tmp_path, capsys, config, named)


@pytest.mark.parametrize("config, dt_key", [
    (oscillator_with("t_end", 0.105), "numerics.evolve.dt"),
    (oscillator_config(sweep={"numerics.evolve.dt": [0.01, 0.03]}), "numerics.evolve.dt"),
    (flow_with("dt", 0.03), "numerics.dt"),
], ids=["oscillator", "oscillator-swept-step", "classical-flow"])
def test_time_grid_off_step_rejected_before_run(tmp_path, capsys, config, dt_key):
    """A t_end that is not a whole number of steps would silently move the
    final time to round(t_end / dt) dt."""
    [problem] = validate_config(config)
    assert "numerics.t_end" in problem and dt_key in problem
    assert_rejected_before_run(tmp_path, capsys, config, dt_key)


def test_off_grid_step_named_beside_bad_value(tmp_path, capsys):
    """A swept value that does not resolve hides none of the off-grid
    values beside it."""
    config = oscillator_config(sweep={"numerics.evolve.dt": [0.03, "x"]})
    bad, off_grid = validate_config(config)
    assert "sweep numerics.evolve.dt[1]" in bad
    assert "numerics.t_end 0.1 is not a whole number of numerics.evolve.dt 0.03 steps" in off_grid
    assert_rejected_before_run(tmp_path, capsys, config, "evolve.dt 0.03 steps")


def test_rotators_limit_is_the_exact_solve_limit():
    assert validate_config(rotators_config(l=EXACT_SPIN_L_MAX)) == []


def test_limit_cycle_nu_limit_is_the_series_limit():
    nu = KUMMER_X_MAX / 2
    assert validate_config(limit_cycle_with("params", "lambda", nu)) == []
    assert mandel_q(nu) > 0
    with pytest.raises(ValueError, match="series regime"):
        mandel_q(nu * (1 + 1e-9))


def test_numerics_limits_are_the_builder_limits():
    assert validate_config(limit_cycle_with("numerics", "dim", LIMIT_CYCLE_DIM_MIN)) == []
    assert validate_config(limit_cycle_with("numerics", "n_max", RECURRENCE_N_MAX_MIN)) == []
    assert validate_config(oscillator_with("dim", OSCILLATOR_DIM_MIN)) == []
    with pytest.raises(ValueError):
        limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), LIMIT_CYCLE_DIM_MIN - 1)
    with pytest.raises(ValueError):
        recurrence_stationary(1.0, RECURRENCE_N_MAX_MIN - 1)
    with pytest.raises(ValueError):
        oscillator_lindblad(OscillatorParams(1.0, 0.1), OSCILLATOR_DIM_MIN - 1)


def test_validate_names_null_output_dir():
    # --output-dir overrides it at run time, so only validate can name it
    assert validate_config(limit_cycle_config(output_dir=None)) == ["null value: output_dir"]


def test_output_dir_must_be_a_string(tmp_path, capsys, monkeypatch):
    config = limit_cycle_config(output_dir=5)
    assert validate_config(config) == ["output_dir must be a string"]
    path = write_config(tmp_path, config)
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(path)]) == 1
    assert "config error: output_dir must be a string" in capsys.readouterr().err


def test_resolve_casts_sweep_values():
    resolved = resolve_config(limit_cycle_config(sweep={"params.lambda": [0.5, 1], "numerics.dim": [12.0]}))
    assert json.dumps(resolved["sweep"], sort_keys=True) == '{"numerics.dim": [12], "params.lambda": [0.5, 1.0]}'


# The run-directory hash of every shipped config and benchmark input; a
# change to how configs are resolved, or to a library default they resolve
# to, must leave each one as it is.
SHIPPED_HASHES = {
    "classical_flow.json": "fa77a73a9fe0",
    "conformance.json": "28173589e9b7",
    "limit_cycle.json": "e5c79d12cc02",
    "limit_cycle_sweep.json": "0ce377e9638e",
    "oscillator.json": "83ed63ff4129",
    "rotators.json": "0c891b1b3006",
    "limit_cycle_d40.json": "00bcc931627a",
    "oscillator_d80.json": "9740d34bbc86",
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_hash(name):
    assert _config_hash(resolve_config(json.loads(SHIPPED[name].read_text()))) == SHIPPED_HASHES[name]


def test_unreadable_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad)]) == 1


# -- run ----------------------------------------------------------------------


def test_run_limit_cycle_poisson_point(tmp_path):
    path = write_config(tmp_path, limit_cycle_config())
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    run_dir = run_dir_of(out_root)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert abs(summary["mean_n"] - 1.0) <= 1e-8
    assert abs(summary["mandel_q"]) <= 1e-8
    assert summary["faq_pass"] is True
    # p_{n_max} of the recurrence: the tail the run's n_max cut leaves
    assert summary["recurrence_tail"] == recurrence_stationary(1.0, 30)[-1]
    assert 0.0 <= summary["recurrence_tail"] <= 1e-12
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["numerics"]["stationary.null_tol"] == 1e-10
    assert manifest["seed"] == 11
    assert (run_dir / "distribution.csv").exists()
    assert (run_dir / "stationary_state.csv").exists()


@pytest.mark.parametrize("dim, alpha, t_end, low, high", [
    (30, [1.0, 0.0], 0.1, 0.0, 1e-20),
    # the cut is too small for |alpha|^2 = 6.25: the run still exits 0
    (8, [2.5, 0.0], 5.0, 0.1, 1.0),
], ids=["inside-cut", "cut-too-small"])
def test_run_oscillator_top_level_population(tmp_path, dim, alpha, t_end, low, high):
    config = oscillator_config()
    config["numerics"] = {"dim": dim, "evolve.dt": 0.001, "t_end": t_end, "alpha": alpha}
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    summary = json.loads((run_dir_of(out_root) / "summary.json").read_text())
    assert low <= summary["top_level_population"] <= high
    if dim == 8:
        # the drift is linear, so this error measures only the Fock cut
        assert summary["ehrenfest_max_error"] == pytest.approx(0.594, abs=1e-3)


def test_run_oscillator_takes_one_blas_thread(tmp_path, monkeypatch):
    """The model is built on the one BLAS thread evolve takes, so no
    two-thread call before evolve leaves a worker spinning through it; the
    thread count comes back after the run."""
    calls = _blas._openblas()
    if calls is None:
        pytest.skip("numpy does not call the OpenBLAS of its wheels")
    get, put = calls
    quantized_lindblad = cli.models.quantized_lindblad
    threads = []
    monkeypatch.setattr(cli.models, "quantized_lindblad",
                        lambda *args: threads.append(get()) or quantized_lindblad(*args))
    config = oscillator_config()
    config["numerics"] = {"dim": 30, "evolve.dt": 0.001, "t_end": 0.01, "alpha": [1.0, 0.0]}
    before = get()
    try:
        put(2)
        cli.run_config(config, output_dir=str(tmp_path))
        assert get() == 2
    finally:
        put(before)
    assert threads == [1]


def test_run_builds_each_faq_system_once(tmp_path, monkeypatch):
    """The FAQ check and the quantized model share one FaqSystem."""
    built = []
    post_init = FaqSystem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FaqSystem, "__post_init__", counting)
    for config in (limit_cycle_config(numerics={"dim": 16, "n_max": 20}), oscillator_config()):
        built.clear()
        path = write_config(tmp_path, config)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 0
        assert len(built) == 1


def test_run_rotators_summary(tmp_path):
    config = {
        "experiment": "rotators",
        "seed": 7,
        "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.3, "l": 5},
        "numerics": {},
    }
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    summary = json.loads((run_dir_of(out_root) / "summary.json").read_text())
    assert summary["x_closure"] == pytest.approx(ly2_analytic(10.0), abs=1e-12)
    assert summary["x_exact"] > 0
    assert abs(summary["lz_exact"]) <= 1e-9


def test_run_classical_flow_hamiltonian_only_weights(tmp_path):
    config = {
        "experiment": "classical-flow",
        "seed": 1,
        "params": {"model": "oscillator", "omega0": 1.0, "lambda": 0.0},
        "numerics": {
            "dt": 0.01,
            "t_end": 5.0,
            "record_every": 20,
            "initial": [[[1.0, 0.0]], [[0.3, 0.4]]],
        },
    }
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    run_dir = run_dir_of(out_root)
    for index in (0, 1):
        with open(run_dir / f"trajectory_{index:03d}.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "weight"
        assert all(float(row[-1]) == 1.0 for row in rows[1:])


def test_run_conformance(tmp_path):
    config = {
        "experiment": "conformance",
        "seed": 9,
        "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.3, "l": 3},
        "numerics": {"n_samples": 10},
    }
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    run_dir = run_dir_of(out_root)
    with open(run_dir / "conformance.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["moment_equation", "max_abs_deviation", "agrees"]
    assert len(rows) == 7
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["agrees_lz"] is True


def test_run_is_byte_identical(tmp_path):
    path = write_config(tmp_path, limit_cycle_config(numerics={"dim": 16, "n_max": 20}))
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    first = tree_digest(out_root)
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    second = tree_digest(out_root)
    assert first == second
    assert any(name.endswith("sweep.csv") is False for name in first)


def test_numerical_failure_exit_code(tmp_path, capsys):
    # nu = 3 with a 10-level recurrence leaves a non-negligible tail
    config = limit_cycle_config(numerics={"dim": 16, "n_max": 10})
    config["params"]["lambda"] = 3.0
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 2
    assert "n_max" in capsys.readouterr().err


def test_positivity_loss_exit_code(tmp_path, capsys):
    """validate.pos_tol bounds every sampled state, so an eigenvalue below
    it is a numerical failure naming the eigenvalue, not a config error."""
    config = json.loads((CONFIG_DIR / "oscillator.json").read_text())
    config["numerics"]["validate.pos_tol"] = 1e-30
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: eigenvalue -") and "pos_tol 1.0e-30" in err
    assert "config error" not in err and "Traceback" not in err
    assert list((tmp_path / "runs").iterdir()) == []  # the failed run leaves no directory


def test_failed_run_keeps_a_directory_it_did_not_create(tmp_path):
    """A run directory that existed before the call stays, with its files,
    when the run fails."""
    config = json.loads((CONFIG_DIR / "oscillator.json").read_text())
    config["numerics"]["validate.pos_tol"] = 1e-30
    config["output_dir"] = str(tmp_path / "runs")
    resolved = resolve_config(config)
    existing = tmp_path / "runs" / f"oscillator-{_config_hash(resolved)}"
    existing.mkdir(parents=True)
    (existing / "notes.txt").write_text("kept")
    with pytest.raises(NumericalFailure):
        cli.run_config(config)
    assert [path.name for path in existing.iterdir()] == ["notes.txt"]


def test_overflowing_weight_exit_code(tmp_path, capsys):
    """A limit-cycle ensemble weight that grows past the float range is a
    numerical failure naming the point and the time, and no file of the
    run holds an infinite weight."""
    config = flow_config(initial=[[[1.5, 0.0]]])
    config["numerics"].update({"dt": 0.05, "t_end": 800.0, "record_every": 1000})
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert validate_config(config) == []
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 2
    err = capsys.readouterr().err
    assert "density weight of point 0" in err and "t=" in err
    for written in out_root.rglob("*"):
        if written.is_file():
            text = written.read_text()
            assert "Infinity" not in text and "inf" not in text


def test_overflowing_field_exit_code(tmp_path, capsys):
    """A shipped flow started where the drift overflows inside ** is a
    numerical failure naming the time and the step, not a traceback."""
    config = json.loads((CONFIG_DIR / "classical_flow.json").read_text())
    config["numerics"].update({"t_end": 1, "initial": [[[1e155, 0]]]})
    path = write_config(tmp_path, config)
    assert validate_config(config) == []
    assert main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "state overflows at t=0.001 (step 1)" in err and "Traceback" not in err


def test_bad_param_value_exit_code(tmp_path):
    config = limit_cycle_config()
    config["params"]["mu"] = -1.0
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 1


def test_seed_override_recorded(tmp_path):
    path = write_config(tmp_path, limit_cycle_config(numerics={"dim": 16, "n_max": 20}))
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root), "--seed", "99"]) == 0
    manifest = json.loads((run_dir_of(out_root) / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_sweep_writes_one_row_per_point(tmp_path):
    config = limit_cycle_config(
        numerics={"dim": 16, "n_max": 30},
        sweep={"params.lambda": [0.5, 1.0, 2.0]},
    )
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    run_dir = run_dir_of(out_root)
    with open(run_dir / "sweep.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "params.lambda"
    assert len(rows) == 4
    q_col = rows[0].index("mandel_q")
    qs = [float(row[q_col]) for row in rows[1:]]
    assert qs[0] < 0 < qs[2]
    assert abs(qs[1]) <= 1e-8


def test_oscillator_time_step_sweep_runs(tmp_path):
    """evolve.dt sets the quantum sample grid and the classical step: a
    coarse 0.1 at d = 40 runs and ends in the state dt = 0.001 reaches."""
    config = json.loads((CONFIG_DIR / "oscillator.json").read_text())
    config["numerics"]["t_end"] = 2.0
    config["sweep"] = {"numerics.evolve.dt": [0.001, 0.1]}
    path = write_config(tmp_path, config)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root)]) == 0
    with open(run_dir_of(out_root) / "sweep.csv") as handle:
        header, *rows = list(csv.reader(handle))
    assert [float(row[0]) for row in rows] == [0.001, 0.1]
    fine, coarse = (float(row[header.index("mean_n_final")]) for row in rows)
    assert abs(fine - coarse) <= 1e-12


def test_sweep_parallel_matches_serial(tmp_path):
    config = limit_cycle_config(
        numerics={"dim": 12, "n_max": 30},
        sweep={"params.lambda": [0.8, 1.2]},
    )
    path = write_config(tmp_path, config)
    serial_root = tmp_path / "serial"
    parallel_root = tmp_path / "parallel"
    assert main(["run", str(path), "--output-dir", str(serial_root)]) == 0
    assert main(["run", str(path), "--output-dir", str(parallel_root), "--jobs", "2"]) == 0
    serial = (run_dir_of(serial_root) / "sweep.csv").read_bytes()
    parallel = (run_dir_of(parallel_root) / "sweep.csv").read_bytes()
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def three_point_sweep(tmp_path):
    config = limit_cycle_config(
        numerics={"dim": 12, "n_max": 30},
        sweep={"params.lambda": [0.8, 1.0, 1.2]},
    )
    return write_config(tmp_path, config)


@pytest.mark.parametrize("jobs, cpus, sizes", [
    (64, 8, [3]),
    (2, 8, [2]),
    (64, 1, []),
    (64, None, []),
    (1, 8, []),
])
def test_jobs_clamped_to_points_and_cpus(tmp_path, monkeypatch, recording_pool, jobs, cpus, sizes):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    path = three_point_sweep(tmp_path)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root), "--jobs", str(jobs)]) == 0
    assert recording_pool.sizes == sizes
    with open(run_dir_of(out_root) / "sweep.csv") as handle:
        assert len(list(csv.reader(handle))) == 4


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected_before_run(tmp_path, capsys, recording_pool, jobs):
    path = three_point_sweep(tmp_path)
    out_root = tmp_path / "runs"
    assert main(["run", str(path), "--output-dir", str(out_root), "--jobs", str(jobs)]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not out_root.exists()
    assert recording_pool.sizes == []
