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

Every drift polynomial is evaluated by the compiled evaluator of
observables.  Single-point work (drift, classical_flow, phase_divergence,
ensemble_weights) runs it on Python-scalar columns, and the two flows carry
their RK4 state as a tuple of those scalars (see integrate); the FAQ check
runs it once over the columns of all its sample points.  A phase point is a
PhasePoint or a sequence of mode_count complex coordinates, such as a row
of the array that sample_phase_points returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._csv import write_csv
from .integrate import rk4_path
from .observables import PhasePoint, Polynomial, _as_coords, _columns

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
_REALITY_SAMPLES = 16


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
        samples = sample_phase_points(self.mode_count, _REALITY_SAMPLES, radius=1.0, seed=20260127)
        worst = float(np.max(np.abs(np.imag(self.hamiltonian._evaluate_coords(_columns(samples.T))))))
        if worst > _REALITY_TOL:
            raise ValueError(
                f"hamiltonian is not a real observable: |Im H| = {worst:.3e} at a sample point"
            )
        object.__setattr__(self, "_drift_polys", self._build_drift_polys())

    def _build_drift_polys(self) -> tuple[Polynomial, ...]:
        polys = []
        conjugates = [channel.conjugate() for channel in self.channels]
        for mode in range(self.mode_count):
            poly = (-1j) * self.hamiltonian.partial(mode, "zc")
            for channel, conj in zip(self.channels, conjugates):
                poly = poly + conj * channel.partial(mode, "zc")
                poly = poly - channel * conj.partial(mode, "zc")
            polys.append(poly)
        return tuple(polys)

    @property
    def drift_polynomials(self) -> tuple[Polynomial, ...]:
        """The per-mode drift as exact polynomials in (z, z*)."""
        return self._drift_polys

    @cached_property
    def _channel_partials(self) -> tuple[tuple[Polynomial, Polynomial], ...]:
        """(dR/dz*_a, dR/dz_a) for every channel R and mode a, channel-major;
        built on first use, for phase_divergence and ensemble_weights."""
        return tuple(
            (channel.partial(mode, "zc"), channel.partial(mode, "z"))
            for channel in self.channels
            for mode in range(self.mode_count)
        )


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

    def point(self, index: int) -> PhasePoint:
        return PhasePoint(self.states[index])

    @property
    def final(self) -> PhasePoint:
        return PhasePoint(self.states[-1])


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


def classical_flow(system: FaqSystem, z0, t_end: float, dt: float, record_every: int = 1) -> Trajectory:
    """Fixed-step RK4 trajectory of the FAQ drift from z0."""
    polys = system.drift_polynomials

    def field(_t, zs):
        columns = _columns(zs)
        return tuple([poly._evaluate_coords(columns) for poly in polys])

    z0 = tuple(_as_coords(z0, system.mode_count).tolist())
    times, states = rk4_path(field, z0, t_end, dt, record_every=record_every)
    return Trajectory(times, states)


def _divergence(partials: Sequence[tuple[Polynomial, Polynomial]], columns: list) -> float:
    """Sum of 2 (|dR/dz*_a|^2 - |dR/dz_a|^2) at one point's scalar columns."""
    total = 0.0
    for d_conj, d_plain in partials:
        total += 2.0 * (abs(d_conj._evaluate_coords(columns)) ** 2 - abs(d_plain._evaluate_coords(columns)) ** 2)
    return total


def phase_divergence(system: FaqSystem, point) -> float:
    """Divergence of the drift field in the real coordinates.

    Hamiltonian motion is divergence-free; each channel contributes
    2 (|dR/dz*_a|^2 - |dR/dz_a|^2) per mode, which is the closed-form
    divergence of the dissipative part of the drift.
    """
    columns = _columns(_as_coords(point, system.mode_count).tolist())
    return _divergence(system._channel_partials, columns)


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
    exp(-integral of phase_divergence) sampled at the trajectory times.
    Weights are strictly positive.
    """
    m = system.mode_count
    polys = system.drift_polynomials
    partials = system._channel_partials

    def field(_t, y):
        columns = _columns(y[:m])
        out = [poly._evaluate_coords(columns) for poly in polys]
        out.append(-_divergence(partials, columns))  # d(log f)/dt
        return tuple(out)

    results = []
    for initial in points:
        y0 = (*_as_coords(initial, m).tolist(), 0.0)
        times, states = rk4_path(field, y0, t_end, dt, record_every=record_every)
        trajectory = Trajectory(times, states[:, :m])
        weights = np.exp(states[:, m].real)
        results.append((trajectory, weights))
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
