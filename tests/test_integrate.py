"""The one generated RK4 step on its two state forms.

The classical flows carry one point as a tuple of Python scalars, stepped
by the step generated for the tuple's width.  One oracle is the step that
maps each stage over the components (helpers.rk4_step_by_components);
another runs the same field and initial state through the ndarray form of
rk4_path, so each flow must give the same bits on both forms.  The FAQ
cases are nonlinear: an affine drift, such as the damped oscillator's,
takes the exact flow (integrate._linear_path) and no RK4 step.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import rk4_path_by_components, rk4_step_by_components
import semiq
from semiq import DensityMatrix, FlowDiverged, LindbladModel, evolve, faq, models, number
from semiq.integrate import _expm1, _rk4, rk4_path
from semiq.observables import _column_reads, _compile
from semiq.models import (
    LimitCycleParams,
    RotatorParams,
    limit_cycle_faq,
    rotator_faq,
    rotator_spin_channel,
    rotator_spin_hamiltonian,
)


def array_form(field, y0, *args, **kwargs):
    """rk4_path on the ndarray form: the state is an array, and the tuple
    field is wrapped to read and return arrays."""
    return rk4_path(lambda t, y: np.array(field(t, tuple(y.tolist()))), np.array(y0), *args, **kwargs)


def on_both_forms(monkeypatch, module, run):
    """run() with the module's rk4_path on tuple states, then on arrays."""
    scalar = run()
    monkeypatch.setattr(module, "rk4_path", array_form)
    return scalar, run()


def assert_same_arrays(scalar, array):
    assert len(scalar) == len(array)
    for left, right in zip(scalar, array):
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)


@pytest.mark.parametrize(
    "system, point",
    [
        (limit_cycle_faq(LimitCycleParams(1.0, 0.8, 0.5)), [0.3 + 0.9j]),
        (rotator_faq(RotatorParams(1.1, 0.9, 0.2)), [0.6 + 0.2j, -0.3 + 0.9j]),
    ],
    ids=["limit-cycle", "rotators"],
)
def test_ensemble_weights_scalar_state_matches_array_form(monkeypatch, system, point):
    scalar, array = on_both_forms(
        monkeypatch, faq, lambda: faq.ensemble_weights(system, [point], 4.0, 2e-3, record_every=7)
    )
    [(trajectory, weights)], [(oracle, oracle_weights)] = scalar, array
    assert_same_arrays(
        (trajectory.times, trajectory.states, weights),
        (oracle.times, oracle.states, oracle_weights),
    )


def test_classical_flow_scalar_state_matches_array_form(monkeypatch):
    system = rotator_faq(RotatorParams(1.1, 0.9, 0.2))
    scalar, array = on_both_forms(
        monkeypatch, faq, lambda: faq.classical_flow(system, [0.6 + 0.2j, -0.3 + 0.9j], 4.0, 2e-3)
    )
    assert_same_arrays((scalar.times, scalar.states), (array.times, array.states))


@pytest.mark.parametrize(
    "system, point",
    [
        (limit_cycle_faq(LimitCycleParams(1.0, 0.8, 0.5)), [0.3 + 0.9j]),
    ],
    ids=["limit-cycle"],
)
def test_one_mode_classical_flow_scalar_state_matches_array_form(monkeypatch, system, point):
    """A one-component tuple state against the array form."""
    scalar, array = on_both_forms(monkeypatch, faq, lambda: faq.classical_flow(system, point, 4.0, 2e-3))
    assert_same_arrays((scalar.times, scalar.states), (array.times, array.states))


def test_classical_spin_flow_scalar_state_matches_array_form(monkeypatch):
    params = RotatorParams(1.0, 1.0, 0.3)
    h, r = rotator_spin_hamiltonian(params), rotator_spin_channel(params)
    scalar, array = on_both_forms(
        monkeypatch, models, lambda: models.classical_spin_flow(h, r, [0.3, 0.4, 0.5], 4.0, 2e-3, record_every=3)
    )
    assert_same_arrays((scalar.times, scalar.states), (array.times, array.states))


def test_phase_model_flow_scalar_state_matches_array_form(monkeypatch):
    scalar, array = on_both_forms(
        monkeypatch, models, lambda: models.phase_model_flow(1.2, 1.0, 0.2, [0.3, 0.0], 40.0, 0.01)
    )
    assert_same_arrays((scalar.times, scalar.phases), (array.times, array.phases))
    assert scalar.final_difference_rate == array.final_difference_rate


def test_tuple_state_that_blows_up_raises():
    # dy/dt = y^2 from y = 1 reaches infinity at t = 1
    with pytest.raises(FlowDiverged):
        rk4_path(lambda _t, y: tuple([v * v for v in y]), (1.0, 1.0 + 0j), 5.0, 1e-2)


def test_field_overflow_raises():
    # float ** raises OverflowError where * would give inf
    with pytest.raises(FlowDiverged, match=r"^state overflows at t=0\.1 \(step 1\)"):
        rk4_path(lambda _t, y: tuple([v ** 2 for v in y]), (1e200,), 1.0, 0.1)


def test_array_state_with_array_field():
    """An ndarray y0 with a field on whole arrays, as a caller may pass."""
    times, states = rk4_path(lambda _t, y: -y, np.array([1.0, 0.0]), 1.0, 1e-3, record_every=100)
    assert states.shape == (11, 2) and states.dtype == float
    assert np.max(np.abs(states[:, 0] - np.exp(-times))) <= 1e-12
    assert np.all(states[:, 1] == 0.0)
    _times, scalar = rk4_path(lambda _t, y: tuple([-v for v in y]), (1.0, 0.0), 1.0, 1e-3, record_every=100)
    assert np.array_equal(scalar, states)



# States with signed-zero parts, real, complex and mixed; a width-w state
# takes the first w components.
SIGNED_STATES = {
    "real": (0.7, -0.0, 0.0, -1.3),
    "complex": (complex(-0.0, 0.7), complex(0.0, -0.0), complex(-1.3, 0.0), complex(0.7, -1.3)),
    "mixed": (-0.0, complex(0.7, -0.0), 1.3, complex(-0.0, -0.0)),
}
# Per-component coefficients of linear fields: real, signed-zero and complex.
LINEAR_COEFFS = (-0.5, -0.0, complex(0.0, 1.0), complex(-0.3, -0.0))


def assert_same_values(values, expected):
    """Two tuple states: same width, and per component the same type, ==
    and the same sign of every zero part."""
    assert len(values) == len(expected)
    for value, oracle in zip(values, expected):
        assert type(value) is type(oracle) and value == oracle
        for part in ("real", "imag"):
            assert math.copysign(1.0, getattr(value, part)) == math.copysign(1.0, getattr(oracle, part))


def assert_path_matches_oracle(field, y0, n_steps=40, dt=0.01):
    """rk4_path against the component-mapping oracle, bit for bit: each
    generated step on the oracle's states, and the stacked path."""
    oracle = rk4_path_by_components(field, y0, n_steps, dt)
    step = _rk4(len(y0))[0]
    for index, (before, after) in enumerate(zip(oracle, oracle[1:])):
        assert_same_values(step(field, index * dt, before, dt), after)
        assert_same_values(after, rk4_step_by_components(field, index * dt, before, dt))
    times, states = rk4_path(field, y0, n_steps * dt, dt)
    expected = np.array(oracle)
    assert len(times) == n_steps + 1
    assert states.dtype == expected.dtype and states.shape == expected.shape
    assert states.tobytes() == expected.tobytes()


def random_field(rng, width, real):
    """A field of `width` random polynomials of total degree at most 3 in
    the components, generated by observables._compile."""
    maps = []
    for _ in range(width):
        keys = [tuple(int(e) for e in rng.integers(0, 3, size=width)) for _ in range(4)]
        maps.append({key: complex(rng.standard_normal(), rng.standard_normal()) for key in keys if sum(key) <= 3})
    values = _compile(tuple(maps), _column_reads(width), real=real)
    return lambda _t, y: values(y)


@pytest.mark.parametrize("width", range(5))
@pytest.mark.parametrize("kind", sorted(SIGNED_STATES))
def test_generated_step_matches_component_oracle_bitwise(width, kind):
    y0 = SIGNED_STATES[kind][:width]
    coeffs = LINEAR_COEFFS[:width]
    assert_path_matches_oracle(lambda _t, y: tuple([c * v for c, v in zip(coeffs, y)]), y0)
    assert_path_matches_oracle(lambda t, y: tuple([c * v - t for c, v in zip(coeffs, y)]), y0)
    assert_path_matches_oracle(lambda _t, y: tuple([-0.0 * v for v in y]), y0)
    # a positive scale keeps a -0.0 part -0.0 through every stage
    assert_path_matches_oracle(lambda _t, y: tuple([0.5 * v for v in y]), y0)


@pytest.mark.parametrize("width", range(1, 5))
def test_generated_step_matches_oracle_on_polynomial_fields(width):
    rng = np.random.default_rng(200 + width)
    parts = (0.0, -0.0, 0.4, -0.7)
    for _ in range(4):
        complex_y0 = tuple(complex(*rng.uniform(-0.7, 0.7, size=2)) for _ in range(width))
        signed_y0 = tuple(complex(*rng.choice(parts, size=2)) for _ in range(width))
        real_y0 = tuple(float(v) for v in rng.choice(parts, size=width))
        for y0 in (complex_y0, signed_y0):
            assert_path_matches_oracle(random_field(rng, width, real=False), y0)
        assert_path_matches_oracle(random_field(rng, width, real=True), real_y0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_last_component_raises(bad):
    """A width-4 state whose last component alone turns non-finite, from
    the field's value at t >= 0.25: the step starting at t = 0.2 ends it."""
    def field(t, y):
        return (-y[0], 1j * y[1], 0.0 * y[2], bad if t >= 0.25 else 1.0)

    with pytest.raises(FlowDiverged, match=r"^non-finite state at t=0\.3 \(step 3\)$"):
        rk4_path(field, (0.5, 1j, -0.0, 1.0), 1.0, 0.1)


def test_overflow_in_third_stage_raises():
    """An OverflowError from the field's third call of a step (the second
    step here) ends the path in FlowDiverged naming that step."""
    calls = []

    def field(_t, y):
        calls.append(y)
        if len(calls) == 7:
            return tuple([v * 10.0 ** 400 for v in y])
        return tuple([-v for v in y])

    with pytest.raises(FlowDiverged, match=r"^state overflows at t=0\.2 \(step 2\): ") as info:
        rk4_path(field, (1.0, 2.0 + 0j), 1.0, 0.1)
    assert isinstance(info.value.__cause__, OverflowError)
    assert len(calls) == 7


def step_code(y0):
    """The code object of the step that calls the field on a path from y0."""
    codes = set()

    def field(_t, y):
        codes.add(sys._getframe(1).f_code)
        return tuple([-v for v in y])

    rk4_path(field, y0, 0.05, 0.01)
    [code] = codes
    return code


def test_one_cached_step_per_width():
    pair = step_code((1.0, 2.0))
    assert step_code((0.5j, -1.0)) is pair
    assert _rk4(2)[0].__code__ is pair
    assert step_code((1.0, 2.0, 3.0)) is not pair
    assert step_code((1.0,)) is not pair


def test_no_step_is_generated_at_import():
    """A fresh interpreter, since this process has generated steps already."""
    src = str(Path(semiq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import semiq, semiq.cli; from semiq.integrate import _rk4; print(_rk4.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        (math.inf, 0.1, "t_end must be finite"),
        (math.nan, 0.1, "t_end must be finite"),
        (1.0, math.nan, "dt must be finite"),
        (1.0, math.inf, "dt must be finite"),
        (1e300, 1e-300, "not a finite step count"),
    ],
)
def test_non_finite_time_grid_raises(t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        rk4_path(lambda _t, y: y, (1.0,), t_end, dt)
    with pytest.raises(ValueError, match=message):
        rk4_path(lambda _t, y: y, np.array([1.0]), t_end, dt)
    with pytest.raises(ValueError, match=message):
        evolve(LindbladModel(number(3)), DensityMatrix.fock_state(3, 1), t_end, dt)


@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.3, 4.0, 60.0])
def test_expm1_matches_scipy(norm):
    """The scaled and squared Taylor series of exp(a) - I against scipy, on
    a random real 5x5 matrix of 1-norm 0 to 60 (0 to 7 squarings).  The
    oracle is a phi_1(a), phi_1(a) = sum a^k / (k + 1)! the top right block
    of expm([[a, I], [0, 0]]), which keeps its relative accuracy at small
    norms where expm(a) - I would cancel."""
    from scipy.linalg import expm

    a = np.random.default_rng(61).standard_normal((5, 5))
    a *= norm / np.max(np.sum(np.abs(a), axis=0))
    augmented = np.zeros((10, 10))
    augmented[:5, :5], augmented[:5, 5:] = a, np.eye(5)
    exact = a @ expm(augmented)[:5, 5:]
    assert np.max(np.abs(_expm1(a) - exact)) <= 1e-13 * np.max(np.abs(exact))
