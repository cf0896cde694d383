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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._csv import write_csv
from .integrate import rk4_path
from .observables import PhasePoint, Polynomial, _as_coords

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
        for point in sample_phase_points(self.mode_count, _REALITY_SAMPLES, radius=1.0, seed=20260127):
            value = self.hamiltonian.evaluate(point)
            if abs(value.imag) > _REALITY_TOL:
                raise ValueError(
                    f"hamiltonian is not a real observable: Im H = {value.imag:.3e} at a sample point"
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


def sample_phase_points(mode_count: int, n: int, radius: float = 3.0, seed: int = 0) -> list[PhasePoint]:
    """Seeded sample, uniform over a complex disc of given radius per mode."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=(n, mode_count)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, mode_count))
    zs = r * np.exp(1j * theta)
    return [PhasePoint(row) for row in zs]


def drift(system: FaqSystem, point) -> np.ndarray:
    """dz_a/dt for each mode at the given phase point."""
    coords = _as_coords(point, system.mode_count)
    conj = coords.conjugate()
    return np.array(
        [poly._evaluate_coords(coords, conj) for poly in system.drift_polynomials],
        dtype=complex,
    )


def verify_faq(
    system: FaqSystem,
    field: Callable,
    samples: Sequence,
    tol: float,
) -> FaqCheck:
    """Max deviation between the FAQ drift and a claimed vector field.

    `field` maps a PhasePoint to a length-mode_count complex vector.  The
    report carries the verdict; nothing is raised on failure.
    """
    if len(samples) == 0:
        raise ValueError("verify_faq needs at least one sample point")
    worst = 0.0
    for sample in samples:
        point = sample if isinstance(sample, PhasePoint) else PhasePoint(sample)
        difference = drift(system, point) - np.asarray(field(point), dtype=complex)
        worst = max(worst, float(np.max(np.abs(difference))))
    return FaqCheck(max_abs_error=worst, tol=float(tol), n_samples=len(samples))


def classical_flow(system: FaqSystem, z0, t_end: float, dt: float, record_every: int = 1) -> Trajectory:
    """Fixed-step RK4 trajectory of the FAQ drift from z0."""
    coords = _as_coords(z0, system.mode_count)
    polys = system.drift_polynomials

    def field(_t, zs):
        conj = zs.conjugate()
        return np.array([poly._evaluate_coords(zs, conj) for poly in polys], dtype=complex)

    times, states = rk4_path(field, coords, t_end, dt, record_every=record_every)
    return Trajectory(times, states)


def phase_divergence(system: FaqSystem, point) -> float:
    """Divergence of the drift field in the real coordinates.

    Hamiltonian motion is divergence-free; each channel contributes
    2 (|dR/dz*_a|^2 - |dR/dz_a|^2) per mode, which is the closed-form
    divergence of the dissipative part of the drift.
    """
    coords = _as_coords(point, system.mode_count)
    conj = coords.conjugate()
    total = 0.0
    for channel in system.channels:
        for mode in range(system.mode_count):
            d_conj = channel.partial(mode, "zc")._evaluate_coords(coords, conj)
            d_plain = channel.partial(mode, "z")._evaluate_coords(coords, conj)
            total += 2.0 * (abs(d_conj) ** 2 - abs(d_plain) ** 2)
    return total


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
    channel_partials = [
        [(channel.partial(mode, "zc"), channel.partial(mode, "z")) for mode in range(m)]
        for channel in system.channels
    ]

    def field(_t, y):
        zs = y[:m]
        conj = zs.conjugate()
        out = np.empty(m + 1, dtype=complex)
        for a in range(m):
            out[a] = polys[a]._evaluate_coords(zs, conj)
        div = 0.0
        for partials in channel_partials:
            for d_conj, d_plain in partials:
                div += 2.0 * (
                    abs(d_conj._evaluate_coords(zs, conj)) ** 2
                    - abs(d_plain._evaluate_coords(zs, conj)) ** 2
                )
        out[m] = -div  # d(log f)/dt
        return out

    results = []
    for initial in points:
        coords = _as_coords(initial, m)
        y0 = np.concatenate([coords, [0.0 + 0j]])
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
