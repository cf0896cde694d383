"""Fixed-step classical Runge-Kutta integration, and the exact flow of a
linear field on the same time grid.

Deliberately minimal: RK4 with a fixed step and no adaptivity, so repeated
runs are bit-reproducible and regression tests stay byte-stable; the
worked models are smooth at desk scale.

A state is a tuple of Python scalars, one point's coordinates (the
classical flows of faq and models), and its field returns a tuple of the
same width.  The one RK4 step is generated per state width, on the first
path of that width, with the components unpacked into names: for width 2,

    y0, y1, = y
    a0, a1, = field(t, y)
    b0, b1, = field(t + half, (y0 + half * a0, y1 + half * a1, ))
    ...
    return ((2.0 * b0 + a0 + 2.0 * c0 + d0) * sixth + y0, ...)

A one-point state has one to four components, where a loop or a map over
them costs more than the field itself.  An ndarray state of any shape (the
matrix oracles of the tests) runs through the width-1 step as the one
component of a tuple; Python's scalar arithmetic rounds exactly as numpy's
element-wise arithmetic does, so a point gives the same bits either way.

A linear field dy/dt = A y with a constant real matrix A needs no steps:
_linear_path computes E = exp(tau A) - I once per interval length tau and
sets y <- y + E y once per record interval.  E is a Taylor series of
_EXPM_TERMS terms on X = A tau / 2^s, s the least count with ||X||_1 <=
1/2, then s doublings exp(2X) - I = 2E + E^2 (Moler and Van Loan, SIAM
Rev. 45, 3 (2003)); the first term left out is at most ||X||_1 (1/2)^18 /
19! < 4e-23 ||X||_1.  E keeps no rounded identity: a rounded exp(tau A),
applied once per interval, repeats the same rounding of its diagonal every
time, and over the 250 intervals of 2 steps of 1e-3 of a damped
oscillator it drifted 5.7e-14 from the closed form, against 1.6e-15 for
y + E y and 7.7e-15 for RK4.

The time grid is round(t_end / dt) steps of dt: dt <= 0, t_end < 0 and a
non-finite t_end, dt or step count are rejected with ValueError, where
they would otherwise surface as a raw OverflowError or, for dt = inf, as
a path of no steps.  Both paths here and lindblad.evolve record at t = 0
and after every k steps and the last, at the times step * dt
(_record_grid); k is a whole number of at least 1, or a ValueError names
its parameter, since an interval such as 2.5 or nan would record off the
dt grid or fail later under a misleading name.  evolve's default k is
max(1, n_steps // 200), about 200 samples a run (_default_sample_every).
The oscillator run works out its k once and passes it to both evolve and
faq.ensemble_weights, so its Ehrenfest check compares the two at the same
times.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache

import numpy as np

from .errors import FlowDiverged

__all__ = ["rk4_path"]

_EXPM_TERMS = 18


@lru_cache(maxsize=32)
def _rk4(width: int):
    """The RK4 step(field, t, y, h) and the check finite(y) for tuple states
    of `width` components, generated once per width.

    The step sums y + (h/6) (k1 + 2 k2 + 2 k3 + k4) component by component
    as (2 k2 + k1 + 2 k3 + k4)(h/6) + y; floating-point addition and
    multiplication commute, so it pairs the same values as the plain
    expression.
    """
    def unpack(k):  # "k0, k1, = ", or "() = " for the empty state
        return ("".join(f"{k}{i}, " for i in range(width)) or "() ") + "= "

    def each(expr):  # the tuple of expr over the components
        return "(" + "".join(expr.format(i=i) + ", " for i in range(width)) + ")"

    finite = " and ".join(f"isfinite(y{i})" for i in range(width)) or "True"
    source = "\n".join([
        "def step(field, t, y, h):",
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        f"    {unpack('y')}y",
        f"    {unpack('a')}field(t, y)",
        f"    {unpack('b')}field(t + half, {each('y{i} + half * a{i}')})",
        f"    {unpack('c')}field(t + half, {each('y{i} + half * b{i}')})",
        f"    {unpack('d')}field(t + h, {each('y{i} + h * c{i}')})",
        f"    return {each('(2.0 * b{i} + a{i} + 2.0 * c{i} + d{i}) * sixth + y{i}')}",
        "def finite(y):",
        f"    {unpack('y')}y",
        f"    return {finite}\n",
    ])
    namespace = {"isfinite": cmath.isfinite}
    exec(compile(source, f"<rk4 width {width}>", "exec"), namespace)
    return namespace["step"], namespace["finite"]


def _step_count(t_end: float, dt: float) -> int:
    """The time-grid rule shared by every integrator: round(t_end / dt)
    steps of size dt, so the final time is within dt of t_end."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} is not a finite step count")
    return int(round(ratio))


def _record_grid(t_end: float, dt: float, every, name: str) -> tuple[list[int], np.ndarray]:
    """The record grid of a path (see the module notes): the steps after
    which it records, every `every` steps and the last, and the times of
    its records, 0 and then step * dt.  `name` is the parameter that gave
    `every`, for the error."""
    if not (isinstance(every, numbers.Real) and math.isfinite(every) and every >= 1 and every == int(every)):
        raise ValueError(f"{name} must be a whole number of at least 1, got {every!r}")
    n_steps = _step_count(t_end, dt)
    steps = [*range(int(every), n_steps, int(every)), n_steps] if n_steps else []
    return steps, dt * np.array([0, *steps], dtype=float)


def _default_sample_every(t_end: float, dt: float) -> int:
    """evolve's sample interval when none is given: about 200 samples a run."""
    return max(1, _step_count(t_end, dt) // 200)


def rk4_path(field, y0, t_end: float, dt: float, record_every: int = 1):
    """Integrate dy/dt = field(t, y) from 0 to (approximately) t_end.

    y0 is a tuple of Python scalars, with a field returning a tuple of its
    width, or an array, with a field returning an array (see the module
    notes).  Returns (times, states) on the record grid, with states
    stacked along axis 0 as an array.  Raises FlowDiverged as soon
    as a non-finite state appears, or as soon as the field raises
    OverflowError: Python's `**` raises it on a float or complex result
    past the float range, where numpy and the other operators give inf.
    """
    steps, times = _record_grid(t_end, dt, record_every, "record_every")
    scalar = isinstance(y0, tuple)
    if scalar:
        advance, finite = _rk4(len(y0))
        y, stage_field = y0, field
    else:  # the array is the one component of a width-1 state
        advance = _rk4(1)[0]
        y = (np.array(y0),)

        def stage_field(t, y):
            return (field(t, y[0]),)

        def finite(y):
            return np.all(np.isfinite(y[0]))

    states = [y]  # every step makes a new state, so none is copied
    for start, stop in zip((0, *steps), steps):
        for step in range(start + 1, stop + 1):
            try:
                y = advance(stage_field, (step - 1) * dt, y, dt)
            except OverflowError as exc:
                raise FlowDiverged(f"state overflows at t={step * dt:.6g} (step {step}): {exc}") from exc
            if not finite(y):
                raise FlowDiverged(f"non-finite state at t={step * dt:.6g} (step {step})")
        states.append(y)
    return times, np.array(states if scalar else [y for (y,) in states])


def _expm1(a: np.ndarray) -> np.ndarray:
    """exp(a) - I of a small real square matrix by scaling and squaring a
    Taylor series (see the module notes), with no identity rounded into it.
    A non-finite a gives a non-finite result."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = max(0, math.frexp(norm)[1] + 1) if math.isfinite(norm) else 0
    scaled = np.ldexp(a, -squarings)
    term = result = scaled
    for k in range(2, _EXPM_TERMS + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):  # exp(2x) - 1 = 2 (exp(x) - 1) + (exp(x) - 1)^2
        result = 2.0 * result + result @ result
    return result


def _linear_path(generator: np.ndarray, y0: np.ndarray, t_end: float, dt: float, record_every: int):
    """The exact flow of dy/dt = generator @ y on rk4_path's grid.

    generator is a constant real square matrix and y0 a real vector;
    returns (times, states) as rk4_path does.  exp(k dt generator) - I is
    computed once per interval length of k steps and applied once per
    record interval (see the module notes).  A non-finite state raises
    FlowDiverged, naming the time and the step of the record that first
    holds one.
    """
    steps, times = _record_grid(t_end, dt, record_every, "record_every")
    flows = {}  # interval length in steps -> exp of the generator over it, minus I
    states = [y0]
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state is raised below
        for start, stop in zip((0, *steps), steps):
            if stop - start not in flows:
                flows[stop - start] = _expm1(((stop - start) * dt) * generator)
            y = y + flows[stop - start] @ y
            if not np.all(np.isfinite(y)):
                raise FlowDiverged(f"non-finite state at t={stop * dt:.6g} (step {stop})")
            states.append(y)
    return times, np.array(states)
