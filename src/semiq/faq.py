"""Classical side of the quantization correspondence.

A classical open system is supplied in FAQ form (the form allowing
quantization): a real Hamiltonian function H(z, z*) plus dissipation
channels R_j(z, z*), generating the drift

    dz_a/dt = -i dH/dz*_a + sum_j (R~_j dR_j/dz*_a - R_j dR~_j/dz*_a),

where R~ denotes the structural conjugate of R.  This module evaluates the
drift, checks that a user-supplied vector field admits a given FAQ
decomposition, integrates characteristics, and provides the phase-space
divergence of the drift together with ensemble weights for the transported
phase-space density.

The FAQ decomposition is always taken as input; no attempt is made to
discover H and R from a raw vector field.

A system checks that H is real from its term map, and builds its
polynomials once, on first use: the per-mode drift, and the divergence of
the drift, itself a real polynomial.  Every numeric value comes from the
generated code of observables.  drift and phase_divergence evaluate on
Python-scalar columns, and the FAQ check evaluates once over the columns
of all its sample points.  Array products round at the last bit unlike
scalar ones, so the check's max error moves at rounding level against a
point-by-point loop, which the tests keep in tests/helpers.py and compare
with it.  The two flows share one body, _flow, over the
drift for classical_flow and the drift and the negated divergence for
ensemble_weights, and record on the grid of integrate.  A nonlinear drift
is one generated function of those polynomials that reads the coordinates
from the RK4 state, a tuple of Python scalars (see integrate).  A drift of
degree at most 1, such as the damped oscillator's, has a constant
divergence and an exact flow: _flow builds its real affine generator A
over (Re z_a, Im z_a, 1) from the term maps and sets y <- y + (exp(tau A)
- I) y once per record interval (integrate._linear_path), with the log
weight -div t.  The shipped oscillator (20 000 steps of 1e-3, recorded
every 100) so takes 200 products of 3x3 matrices, and lies 2.2e-15 from
the closed form.  A phase point is a PhasePoint or a sequence of
mode_count complex coordinates, such as a row of the array that
sample_phase_points returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._csv import write_csv
from .errors import FlowDiverged
from .integrate import _linear_path, rk4_path
from .observables import Polynomial, _as_coords, _columns, _compile, _coordinate_reads

__all__ = [
    "FaqSystem",
    "Trajectory",
    "FaqCheck",
    "drift",
    "verify_faq",
    "classical_flow",
    "phase_divergence",
    "ensemble_weights",
    "sample_phase_points",
    "export_trajectory_csv",
]

_REALITY_TOL = 1e-12


@dataclass(frozen=True)
class FaqSystem:
    """A classical open system in FAQ form: mode count, H, and channels R_j."""

    mode_count: int
    hamiltonian: Polynomial
    channels: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if self.hamiltonian.mode_count != self.mode_count:
            raise ValueError("hamiltonian mode_count does not match system")
        for j, channel in enumerate(channels):
            if channel.mode_count != self.mode_count:
                raise ValueError(f"channel {j} mode_count does not match system")
        # H is real when each coefficient equals that of its structural conjugate
        terms, conjugate = self.hamiltonian.terms, self.hamiltonian.conjugate().terms
        deviations = [abs(terms.get(key, 0) - conjugate.get(key, 0)) for key in terms.keys() | conjugate.keys()]
        worst = max(deviations, default=0.0)
        if worst > _REALITY_TOL:
            raise ValueError(
                f"hamiltonian is not a real observable: a coefficient differs from its conjugate's by {worst:.3e}"
            )

    @cached_property
    def drift_polynomials(self) -> tuple[Polynomial, ...]:
        """The per-mode drift as exact polynomials in (z, z*); built on first use."""
        polys = []
        conjugates = [channel.conjugate() for channel in self.channels]
        for mode in range(self.mode_count):
            poly = (-1j) * self.hamiltonian.partial(mode, "zc")
            for channel, conj in zip(self.channels, conjugates):
                poly = poly + conj * channel.partial(mode, "zc")
                poly = poly - channel * conj.partial(mode, "zc")
            polys.append(poly)
        return tuple(polys)

    @cached_property
    def divergence_polynomial(self) -> Polynomial:
        """The phase-space divergence of the drift as one real polynomial,
        sum over channels j and modes a of 2 (P P~ - Q Q~) with
        P = dR_j/dz*_a and Q = dR_j/dz_a; built on first use."""
        total = Polynomial.zero(self.mode_count)
        for channel in self.channels:
            for mode in range(self.mode_count):
                p = channel.partial(mode, "zc")
                q = channel.partial(mode, "z")
                total = total + 2.0 * (p * p.conjugate() - q * q.conjugate())
        return total


@dataclass(frozen=True)
class Trajectory:
    """Characteristic curve: times paired with phase points."""

    times: np.ndarray
    states: np.ndarray  # shape (n_times, mode_count), complex

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or len(times) != states.shape[0]:
            raise ValueError("times and states must have matching leading length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise ValueError("trajectory entries must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FaqCheck:
    """Result of checking a vector field against an FAQ decomposition."""

    max_abs_error: float
    tol: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.max_abs_error <= self.tol


def sample_phase_points(mode_count: int, n: int, radius: float = 3.0, seed: int = 0) -> np.ndarray:
    """Seeded sample, uniform over a complex disc of given radius per mode:
    an (n, mode_count) complex array with one phase point per row."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=(n, mode_count)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, mode_count))
    return r * np.exp(1j * theta)


def drift(system: FaqSystem, point) -> np.ndarray:
    """dz_a/dt for each mode at the given phase point."""
    columns = _columns(_as_coords(point, system.mode_count).tolist())
    return np.array([poly._evaluate_coords(columns) for poly in system.drift_polynomials], dtype=complex)


def verify_faq(
    system: FaqSystem,
    field: Callable,
    samples: Sequence,
    tol: float,
) -> FaqCheck:
    """Max deviation between the FAQ drift and a claimed vector field.

    `samples` holds N phase points as the rows of an (N, mode_count) array,
    as sample_phase_points returns them.  `field` takes the coordinate
    columns, a (mode_count, N) array with the modes on axis 0, and returns
    the velocities in the same shape (the column contract of the model
    fields).  The field is called once and each drift polynomial evaluated
    once over all N points.  The report carries the verdict; nothing is
    raised on failure.
    """
    if len(samples) == 0:
        raise ValueError("verify_faq needs at least one sample point")
    columns = np.asarray(samples, dtype=complex).T
    if columns.ndim != 2 or columns.shape[0] != system.mode_count:
        raise ValueError(
            f"samples must be an (N, {system.mode_count}) array of phase points, got shape {columns.T.shape}"
        )
    reference = np.asarray(field(columns), dtype=complex)
    if reference.shape != columns.shape:
        raise ValueError(f"field returned shape {reference.shape} for coordinate columns of shape {columns.shape}")
    variables = _columns(columns)
    difference = np.empty_like(columns)
    for mode, poly in enumerate(system.drift_polynomials):
        difference[mode] = poly._evaluate_coords(variables)
    difference -= reference
    return FaqCheck(max_abs_error=float(np.max(np.abs(difference))), tol=float(tol), n_samples=columns.shape[1])


def _flow(system: FaqSystem, extra: tuple, y0: tuple, t_end: float, dt: float, record_every: int):
    """Path of the field whose components are the drift polynomials and then
    the `extra` polynomials, from the tuple state y0 that holds z_a at
    y0[a] and the extra components after them; returns (times, states) as
    rk4_path does.

    A drift of degree at most 1 with constant extras is affine, and its
    exact flow is taken (_affine_flow).  Any other field is compiled once
    into one generated function that reads z_a and z*_a from the first
    mode_count entries of the tuple state, and stepped by rk4_path.
    """
    drift = system.drift_polynomials
    if all(poly.degree() <= 1 for poly in drift) and all(poly.degree() <= 0 for poly in extra):
        return _affine_flow(drift, extra, y0, t_end, dt, record_every)
    polys = (*drift, *extra)
    values = _compile(tuple(poly.terms for poly in polys), _coordinate_reads(system.mode_count))
    return rk4_path(lambda _t, y: values(y), y0, t_end, dt, record_every=record_every)


def _affine_flow(drift: tuple, extra: tuple, y0: tuple, t_end: float, dt: float, record_every: int):
    """_flow of an affine drift and constant extras, through _linear_path.

    The generator is a real matrix over u = (x_1, y_1, ..., x_m, y_m, 1)
    with z_a = x_a + i y_a, so z*_a stays exactly the conjugate of z_a:
    a term c z_b adds c to dz_a/dt per unit x_b and i c per unit y_b, a
    term c z*_b adds c and -i c, and a constant adds c on the last column;
    row 2a is the real part of dz_a/dt and row 2a + 1 its imaginary part.
    An extra component with the constant value c is y0 + c t.
    """
    m = len(drift)
    rates = np.zeros((m, 2 * m + 1), dtype=complex)  # dz_a/dt over u
    for a, poly in enumerate(drift):
        for key, coeff in poly.terms.items():
            if any(key):
                position = key.index(1)  # of z_b at 2b, of z*_b at 2b + 1
                x = position - position % 2
                rates[a, x] += coeff
                rates[a, x + 1] += (-1j if position % 2 else 1j) * coeff
            else:
                rates[a, 2 * m] += coeff
    generator = np.zeros((2 * m + 1, 2 * m + 1))
    generator[0:2 * m:2] = rates.real
    generator[1:2 * m:2] = rates.imag
    u0 = np.array([*(part for z in y0[:m] for part in (z.real, z.imag)), 1.0])
    times, path = _linear_path(generator, u0, t_end, dt, record_every)
    states = np.empty((len(times), m + len(extra)), dtype=complex)
    states[:, :m] = path[:, 0:2 * m:2] + 1j * path[:, 1:2 * m:2]
    for e, poly in enumerate(extra):
        states[:, m + e] = y0[m + e] + sum(poly.terms.values(), 0j) * times
    return times, states


def classical_flow(system: FaqSystem, z0, t_end: float, dt: float, record_every: int = 1) -> Trajectory:
    """Trajectory of the FAQ drift from z0 on the grid of _step_count: the
    exact flow of an affine drift, RK4 steps of any other (see _flow)."""
    z0 = tuple(_as_coords(z0, system.mode_count).tolist())
    return Trajectory(*_flow(system, (), z0, t_end, dt, record_every))


def phase_divergence(system: FaqSystem, point) -> float:
    """Divergence of the drift field in the real coordinates.

    Hamiltonian motion is divergence-free; each channel contributes
    2 (|dR/dz*_a|^2 - |dR/dz_a|^2) per mode, which is the closed-form
    divergence of the dissipative part of the drift.  It is the value of
    FaqSystem.divergence_polynomial.
    """
    return system.divergence_polynomial.evaluate(point).real


# A weight must lie strictly between tiny and 1/tiny, tiny the smallest
# normal float, so that it is never written as inf, 0 or a subnormal and
# summary.json stays standard JSON.
_LOG_WEIGHT_LIMIT = -float(np.log(np.finfo(float).tiny))


def ensemble_weights(
    system: FaqSystem,
    points: Sequence,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> list[tuple[Trajectory, np.ndarray]]:
    """Carry each initial point along the flow with its density weight.

    Along a characteristic the transported density obeys
    d(log f)/dt = -div v, so the returned weight array is
    exp(-integral of phase_divergence) sampled at the trajectory times: the
    state carries log f beside the coordinates, and the field is the drift
    polynomials plus the negated divergence polynomial; for an affine drift
    the divergence is constant and log f is -div t (see _flow).  Weights are
    strictly positive and finite: a recorded log weight of magnitude
    _LOG_WEIGHT_LIMIT or more raises FlowDiverged, before exp is taken.
    """
    m = system.mode_count
    log_rate = (-system.divergence_polynomial,)
    results = []
    for index, initial in enumerate(points):
        coords = _as_coords(initial, m)
        times, states = _flow(system, log_rate, (*coords.tolist(), 0.0), t_end, dt, record_every)
        log_weights = states[:, m].real
        bad = np.flatnonzero(np.abs(log_weights) >= _LOG_WEIGHT_LIMIT)
        if len(bad):
            raise FlowDiverged(
                f"density weight of point {index} {coords.tolist()} is exp({log_weights[bad[0]]:.6g}), "
                f"outside the normal float range, at t={times[bad[0]]:.6g}"
            )
        results.append((Trajectory(times, states[:, :m]), np.exp(log_weights)))
    return results


def export_trajectory_csv(trajectory: Trajectory, path, weights: np.ndarray | None = None):
    """Write `t, re(z1), im(z1), ..., weight` rows; weight defaults to 1."""
    if weights is None:
        weights = np.ones(len(trajectory))
    if len(weights) != len(trajectory):
        raise ValueError("weights length does not match trajectory")
    header = ["t"]
    columns = [trajectory.times]
    for a in range(trajectory.states.shape[1]):
        header.extend([f"re(z{a + 1})", f"im(z{a + 1})"])
        columns.extend([trajectory.states[:, a].real, trajectory.states[:, a].imag])
    header.append("weight")
    columns.append(weights)
    write_csv(path, header, [np.asarray(column, dtype=float) for column in columns])
