"""Fixed-step classical Runge-Kutta integration.

Deliberately minimal: RK4 with a fixed step and no adaptivity, so repeated
runs are bit-reproducible and regression tests stay byte-stable.
"""

from __future__ import annotations

import numpy as np

from .errors import FlowDiverged

__all__ = ["rk4_step", "rk4_path"]


def rk4_step(field, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step, y + (h/6) (k1 + 2 k2 + 2 k3 + k4).

    The stages add into one buffer in place.  Each addition and product
    pairs the same two values as the plain expression does (floating-point
    addition and multiplication commute), so the step is bit for bit that
    expression.  The field returns arrays of y's dtype.
    """
    k1 = field(t, y)
    k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = field(t + h, y + h * k3)
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= h / 6.0
    acc += y
    return acc


def _step_count(t_end: float, dt: float) -> int:
    """The time-grid rule shared by every integrator: round(t_end / dt)
    steps of size dt, so the final time is within dt of t_end."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    return int(round(t_end / dt))


def rk4_path(field, y0: np.ndarray, t_end: float, dt: float, record_every: int = 1):
    """Integrate dy/dt = field(t, y) from 0 to (approximately) t_end.

    The time grid follows _step_count.  Returns (times, states) with states
    stacked along axis 0, recorded every `record_every` steps plus the final
    state.  Raises FlowDiverged as soon as a non-finite state appears.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    n_steps = _step_count(t_end, dt)
    y = np.array(y0)
    times = [0.0]
    states = [y.copy()]
    for step in range(1, n_steps + 1):
        y = rk4_step(field, (step - 1) * dt, y, dt)
        if not np.all(np.isfinite(y)):
            raise FlowDiverged(f"non-finite state at t={step * dt:.6g} (step {step})")
        if step % record_every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(y.copy())
    return np.array(times), np.stack(states, axis=0)
