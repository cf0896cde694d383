"""Fixed-step classical Runge-Kutta integration.

Deliberately minimal: RK4 with a fixed step and no adaptivity, so repeated
runs are bit-reproducible and regression tests stay byte-stable.

The one RK4 takes a state in either of two forms, and its field returns
the same form:

- a tuple of Python scalars, one point's coordinates (the classical flows
  of faq and models);
- an ndarray of any shape (the matrix oracles of the tests).

Each stage applies the same expression, y + c k and then
(2 k2 + k1 + 2 k3 + k4)(h/6) + y, component by component on a tuple or to
the whole array at once.  A one-point state has two to four components,
where every numpy call costs about a microsecond of dispatch whatever its
size; Python's scalar arithmetic rounds exactly as numpy's element-wise
arithmetic does, so the two forms give the same bits.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import FlowDiverged

__all__ = ["rk4_step", "rk4_path"]


def _each(expr, *states):
    """expr applied component by component to tuple states."""
    return tuple(map(expr, *states))


def _whole(expr, *states):
    """expr applied to whole array states."""
    return expr(*states)


def rk4_step(field, t: float, y, h: float):
    """One classical RK4 step, y + (h/6) (k1 + 2 k2 + 2 k3 + k4).

    y is a tuple of Python scalars or an ndarray (see the module notes).
    The field returns the derivative in y's form.  The combination is
    summed as (2 k2 + k1 + 2 k3 + k4)(h/6) + y; floating-point addition and
    multiplication commute, so it pairs the same values as the plain
    expression.
    """
    apply = _each if isinstance(y, tuple) else _whole
    half = 0.5 * h
    sixth = h / 6.0
    k1 = field(t, y)
    k2 = field(t + half, apply(lambda y, k: y + half * k, y, k1))
    k3 = field(t + half, apply(lambda y, k: y + half * k, y, k2))
    k4 = field(t + h, apply(lambda y, k: y + h * k, y, k3))
    return apply(
        lambda y, k1, k2, k3, k4: (2.0 * k2 + k1 + 2.0 * k3 + k4) * sixth + y,
        y, k1, k2, k3, k4,
    )


def _step_count(t_end: float, dt: float) -> int:
    """The time-grid rule shared by every integrator: round(t_end / dt)
    steps of size dt, so the final time is within dt of t_end."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    return int(round(t_end / dt))


def rk4_path(field, y0, t_end: float, dt: float, record_every: int = 1):
    """Integrate dy/dt = field(t, y) from 0 to (approximately) t_end.

    y0 is a tuple of Python scalars or an array (see the module notes); the
    field returns y's form.  The time grid follows _step_count.  Returns
    (times, states) with states stacked along axis 0 as an array, recorded
    every `record_every` steps plus the final state.  Raises FlowDiverged
    as soon as a non-finite state appears, or as soon as the field raises
    OverflowError: Python's `**` raises it on a float or complex result
    past the float range, where numpy and the other operators give inf.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    n_steps = _step_count(t_end, dt)
    scalar = isinstance(y0, tuple)
    y = y0 if scalar else np.array(y0)
    times = [0.0]
    states = [y]  # every step makes a new state, so none is copied
    for step in range(1, n_steps + 1):
        try:
            y = rk4_step(field, (step - 1) * dt, y, dt)
        except OverflowError as exc:
            raise FlowDiverged(f"state overflows at t={step * dt:.6g} (step {step}): {exc}") from exc
        if not (all(map(cmath.isfinite, y)) if scalar else np.all(np.isfinite(y))):
            raise FlowDiverged(f"non-finite state at t={step * dt:.6g} (step {step})")
        if step % record_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(y)
    return np.array(times), np.array(states)
