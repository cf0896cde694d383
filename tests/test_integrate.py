"""The one RK4 on its two state forms.

The classical flows carry one point as a tuple of Python scalars.  The
oracle runs the same field and initial state through the ndarray form of
rk4_path, so each flow must give the same bits on both forms.
"""

import numpy as np
import pytest

from semiq import FlowDiverged, faq, models
from semiq.integrate import rk4_path
from semiq.models import (
    LimitCycleParams,
    OscillatorParams,
    RotatorParams,
    limit_cycle_faq,
    oscillator_faq,
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
        (oscillator_faq(OscillatorParams(1.0, 0.3, 0.7)), [1.2 - 0.4j]),
        (limit_cycle_faq(LimitCycleParams(1.0, 0.8, 0.5)), [0.3 + 0.9j]),
        (rotator_faq(RotatorParams(1.1, 0.9, 0.2)), [0.6 + 0.2j, -0.3 + 0.9j]),
    ],
    ids=["oscillator", "limit-cycle", "rotators"],
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

