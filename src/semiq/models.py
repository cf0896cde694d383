"""The three worked open-system models and their semi-analytic baselines.

* Damped harmonic oscillator: linear friction, one squeeze-like channel
  parameter u that cancels from the classical drift.
* Limit-cycle oscillator: linear gain plus two-photon loss; its stationary
  number distribution obeys a three-term recurrence whose generating
  function is a ratio of confluent hypergeometric functions, giving the
  mean occupation and the Mandel Q parameter in closed form.
* Synchronized rotators: two weakly coupled auto-oscillators, treated both
  in two-mode form and in the angular-momentum (Schwinger) form, with the
  cumulant-decoupled stationary closure for the quantum noise level.

Every model is provided both as a classical FAQ system and as the matching
Lindblad model, so classical and quantum results can be cross-checked.

The rotators' angular-momentum flow is built like the FAQ flows: its right
hand side is composed once, on the term maps of SpinPolynomial and with the
term-map arithmetic of observables, into three polynomials in
(l_x, l_y, l_z), and each RK4 stage calls one function generated from
them.

The reference fields (oscillator_field, limit_cycle_field, rotator_field)
take coordinate columns: an array with the modes on axis 0, shape (m,) for
one point or (m, N) for N points, and return the velocities in the same
shape.

recurrence_stationary solves the limit cycle's three-term recurrence as a
truncated banded linear system with the normalization row appended:
forward recursion is unstable, and it needs seed values the closed form
does not provide.  A truncation tail that is not negligible is rejected.
The generating-function moments (mean_n, second_factorial_moment) take
the derivatives of Phi by the contiguous identity
Phi'(a, c, x) = (a/c) Phi(a+1, c+1, x), not by finite differences: the
sign of the Mandel Q parameter near nu = 1, where it crosses zero, needs
the extra accuracy.

closure_stationary is the closed-form quadratic reduction of the
cumulant-closed moment system.  The tests keep a damped Newton solve of
the full moment system as its oracle (tests/helpers.py), and the two must
agree to 1e-10, which guards the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cosh, sin, sinh, sqrt
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import SeriesDivergence, TailNotNegligible
from .faq import FaqSystem
from .integrate import rk4_path
from .lindblad import NULL_TOL, POSITIVITY_TOL, LindbladModel, adjoint_rate, expectation, stationary
from .observables import PhasePoint, Polynomial, _accumulate, _column_reads, _compile, _derivative, _product
from .quantize import (
    FockSpace,
    OperatorMatrix,
    SpinRep,
    normal_quantize,
    spin_operators,
    symmetrize_product,
)

__all__ = [
    "OscillatorParams",
    "LimitCycleParams",
    "RotatorParams",
    "MomentState",
    "oscillator_faq",
    "oscillator_field",
    "OSCILLATOR_DIM_MIN",
    "oscillator_lindblad",
    "quantized_lindblad",
    "limit_cycle_faq",
    "limit_cycle_field",
    "LIMIT_CYCLE_DIM_MIN",
    "limit_cycle_lindblad",
    "RECURRENCE_N_MAX_MIN",
    "recurrence_stationary",
    "KUMMER_X_MAX",
    "kummer_phi",
    "generating_function",
    "mean_n",
    "second_factorial_moment",
    "mandel_q",
    "rotator_faq",
    "rotator_field",
    "phase_model_flow",
    "PhaseFlowResult",
    "rotator_spin_operators",
    "rotator_spin_model",
    "SpinPolynomial",
    "rotator_spin_hamiltonian",
    "rotator_spin_channel",
    "classical_spin_flow",
    "SpinTrajectory",
    "spin_components",
    "closure_stationary",
    "ly2_analytic",
    "EXACT_SPIN_L_MAX",
    "closure_vs_exact_report",
    "ClosureComparison",
    "moment_equations_conformance",
    "ConformanceReport",
]


# ---------------------------------------------------------------------------
# Damped harmonic oscillator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscillatorParams:
    """omega0: frequency; lam: damping rate gamma/m; u: channel mixing knob.

    u rotates annihilation into creation inside the channel without changing
    the classical drift; the default 0 gives the plain decay channel
    R = sqrt(lam) a.
    """

    omega0: float
    lam: float
    u: float = 0.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")


def oscillator_faq(params: OscillatorParams) -> FaqSystem:
    """FAQ data: H = omega0 |z|^2 + i lam (z*^2 - z^2)/2,
    R = sqrt(lam) (z cosh u - z* sinh u)."""
    z = Polynomial.z(0, 1)
    zc = Polynomial.zc(0, 1)
    h = params.omega0 * (z * zc) + 0.5j * params.lam * (zc * zc - z * z)
    r = sqrt(params.lam) * (cosh(params.u) * z - sinh(params.u) * zc)
    return FaqSystem(1, h, (r,))


def oscillator_field(params: OscillatorParams) -> Callable[[np.ndarray], np.ndarray]:
    """The damped-oscillator drift -i omega0 z - lam (z - z*), on coordinate
    columns."""

    def field(coords: np.ndarray) -> np.ndarray:
        z = coords[0]
        return np.array([-1j * params.omega0 * z - params.lam * (z - np.conj(z))])

    return field


# Smallest Fock truncation of the quantized oscillator.
OSCILLATOR_DIM_MIN = 2


def quantized_lindblad(system: FaqSystem, space: FockSpace) -> LindbladModel:
    """The Lindblad model of an FAQ system: H and every channel R_j
    quantized in normal order on the given Fock space."""
    return LindbladModel(
        normal_quantize(system.hamiltonian, space),
        tuple(normal_quantize(channel, space) for channel in system.channels),
    )


def oscillator_lindblad(params: OscillatorParams, dim: int) -> LindbladModel:
    """Quantized model with H and R in normal-ordered form."""
    if dim < OSCILLATOR_DIM_MIN:
        raise ValueError(f"dim must be at least {OSCILLATOR_DIM_MIN}")
    return quantized_lindblad(oscillator_faq(params), FockSpace((dim,)))


# ---------------------------------------------------------------------------
# Limit-cycle oscillator (gain + two-photon loss)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitCycleParams:
    """omega: frequency; lam: linear gain; mu: nonlinear damping; nu = lam/mu."""

    omega: float
    lam: float
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")

    @property
    def nu(self) -> float:
        return self.lam / self.mu


def limit_cycle_faq(params: LimitCycleParams) -> FaqSystem:
    """FAQ data: H = omega z* z, R1 = sqrt(lam) z*, R2 = sqrt(mu) z^2."""
    z = Polynomial.z(0, 1)
    zc = Polynomial.zc(0, 1)
    h = params.omega * (zc * z)
    r1 = sqrt(params.lam) * zc
    r2 = sqrt(params.mu) * (z * z)
    return FaqSystem(1, h, (r1, r2))


def limit_cycle_field(params: LimitCycleParams) -> Callable[[np.ndarray], np.ndarray]:
    """The cubic drift -i omega z + lam z - 2 mu z |z|^2, on coordinate
    columns."""

    def field(coords: np.ndarray) -> np.ndarray:
        z = coords[0]
        return np.array([
            -1j * params.omega * z + params.lam * z - 2.0 * params.mu * z * abs(z) ** 2
        ])

    return field


# Smallest Fock truncation of the quantized limit cycle.
LIMIT_CYCLE_DIM_MIN = 4


def limit_cycle_lindblad(params: LimitCycleParams, dim: int) -> LindbladModel:
    """Quantized model: H = omega a+ a, R1 = sqrt(lam) a+, R2 = sqrt(mu) a^2."""
    if dim < LIMIT_CYCLE_DIM_MIN:
        raise ValueError(f"dim must be at least {LIMIT_CYCLE_DIM_MIN} for the two-photon channel")
    return quantized_lindblad(limit_cycle_faq(params), FockSpace((dim,)))


# Smallest truncation n_max of the stationary recurrence.
RECURRENCE_N_MAX_MIN = 10


def recurrence_stationary(nu: float, n_max: int) -> np.ndarray:
    """Stationary number distribution from the three-term recurrence

        nu [n p_{n-1} - (n+1) p_n] + [(n+2)(n+1) p_{n+2} - n(n-1) p_n] = 0,

    truncated at n_max with the normalization row appended and solved as a
    least-squares linear system.  Only nu = lam/mu enters.  The truncation
    must leave a negligible tail: p_{n_max} < 1e-12 * max(p).
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if n_max < RECURRENCE_N_MAX_MIN:
        raise ValueError(f"n_max must be at least {RECURRENCE_N_MAX_MIN}")
    size = n_max + 1
    rows = np.zeros((size + 1, size))
    for n in range(size):
        if n >= 1:
            rows[n, n - 1] += nu * n
        rows[n, n] += -nu * (n + 1) - n * (n - 1)
        if n + 2 < size:
            rows[n, n + 2] += (n + 2) * (n + 1)
    rows[size, :] = 1.0
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    solution, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    peak = float(solution.max())
    if peak <= 0:
        raise TailNotNegligible("recurrence solution has no positive weight")
    if solution[n_max] >= 1e-12 * peak:
        raise TailNotNegligible(
            f"p_{n_max} = {solution[n_max]:.3e} is not negligible; increase n_max"
        )
    if solution.min() < -1e-12 * peak:
        raise TailNotNegligible(
            f"negative weight {solution.min():.3e} in recurrence solution; increase n_max"
        )
    solution = np.clip(solution, 0.0, None)
    return solution / solution.sum()


# Largest |x| at which kummer_phi sums its series.  mean_n and mandel_q
# evaluate Phi at x = 2 nu, so they take nu <= KUMMER_X_MAX / 2.
KUMMER_X_MAX = 200.0


def kummer_phi(a: float, c: float, x: float) -> float:
    """Confluent hypergeometric Phi(a, c, x) = sum_k (a)_k/(c)_k x^k/k!.

    Plain series summation with term-ratio stopping at relative 1e-14,
    valid in the series regime |x| <= KUMMER_X_MAX.  c at a non-positive
    integer is a pole.
    """
    if c <= 0 and c == int(c):
        raise ValueError(f"Phi(a, c, x) has a pole at non-positive integer c={c}")
    if abs(x) > KUMMER_X_MAX:
        raise ValueError(f"|x|={abs(x)} outside the series regime (|x| <= {KUMMER_X_MAX:g})")
    term = 1.0
    total = 1.0
    consecutive_small = 0
    for k in range(10_000):
        term *= (a + k) / (c + k) * x / (k + 1)
        total += term
        if abs(term) <= 1e-14 * abs(total):
            consecutive_small += 1
            if consecutive_small >= 2:
                return total
        else:
            consecutive_small = 0
    raise SeriesDivergence(f"Kummer series did not converge for a={a}, c={c}, x={x}")


def generating_function(nu: float, u: float) -> float:
    """G(u) = Phi(1, nu, nu(1+u)) / Phi(1, nu, 2 nu); G(1) = 1 by construction."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return kummer_phi(1.0, nu, nu * (1.0 + u)) / kummer_phi(1.0, nu, 2.0 * nu)


def mean_n(nu: float) -> float:
    """Stationary mean occupation, dG/du at u=1 via the contiguous identity
    Phi'(a,c,x) = (a/c) Phi(a+1, c+1, x)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return kummer_phi(2.0, nu + 1.0, 2.0 * nu) / kummer_phi(1.0, nu, 2.0 * nu)


def second_factorial_moment(nu: float) -> float:
    """<n(n-1)> in the stationary state, d^2G/du^2 at u=1."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return (
        2.0 * nu / (nu + 1.0)
        * kummer_phi(3.0, nu + 2.0, 2.0 * nu)
        / kummer_phi(1.0, nu, 2.0 * nu)
    )


def mandel_q(nu: float) -> float:
    """Mandel Q = <n(n-1)>/<n> - <n>; zero at nu=1 (Poisson), positive above."""
    nbar = mean_n(nu)
    return second_factorial_moment(nu) / nbar - nbar


# ---------------------------------------------------------------------------
# Two synchronized rotators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotatorParams:
    """Two auto-oscillating rotators with weak coupling lam; delta = omega1 - omega2.

    l fixes the spin representation used for the quantum model; N = 2l is the
    total number of bosonic excitations in the two-mode picture.
    """

    omega1: float
    omega2: float
    lam: float
    l: float = 5.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        two_l = 2 * self.l
        if abs(two_l - round(two_l)) > 1e-12:
            raise ValueError("2l must be integral")
        if self.l < 1:
            raise ValueError("spin l must be at least 1")

    @property
    def delta(self) -> float:
        return self.omega1 - self.omega2

    @property
    def n_excitations(self) -> float:
        return 2 * self.l


def rotator_faq(params: RotatorParams) -> FaqSystem:
    """Two-mode FAQ data for the coupled-rotator drift.

    H = -omega1 |z1|^2 - omega2 |z2|^2
        + (i lam/2)(|z1|^2 - |z2|^2)(z1* z2 - z2* z1),
    R = (sqrt(lam)/2)(|z1|^2 - |z2|^2 + z2* z1 - z2 z1*).
    """
    z1 = Polynomial.z(0, 2)
    z1c = Polynomial.zc(0, 2)
    z2 = Polynomial.z(1, 2)
    z2c = Polynomial.zc(1, 2)
    n1 = z1 * z1c
    n2 = z2 * z2c
    w = z1c * z2 - z2c * z1
    h = (-params.omega1) * n1 + (-params.omega2) * n2 + 0.5j * params.lam * ((n1 - n2) * w)
    r = (sqrt(params.lam) / 2.0) * (n1 - n2 - w)
    return FaqSystem(2, h, (r,))


def rotator_field(params: RotatorParams) -> Callable[[np.ndarray], np.ndarray]:
    """dz1/dt = i omega1 z1 + lam z1 (z1* z2 - z2* z1) and the 1<->2 mirror,
    on coordinate columns."""

    def field(coords: np.ndarray) -> np.ndarray:
        z1, z2 = coords
        w = np.conj(z1) * z2 - np.conj(z2) * z1
        return np.array([
            1j * params.omega1 * z1 + params.lam * z1 * w,
            1j * params.omega2 * z2 - params.lam * z2 * w,
        ])

    return field


@dataclass(frozen=True)
class PhaseFlowResult:
    times: np.ndarray
    phases: np.ndarray  # shape (n, 2)
    locked: bool
    final_difference_rate: float


# Largest |dpsi/dt| at the end of a phase_model_flow run that counts as locked.
LOCK_TOL = 1e-6


def phase_model_flow(
    omega1: float,
    omega2: float,
    coupling: float,
    phi0: Sequence[float],
    t_end: float,
    dt: float,
) -> PhaseFlowResult:
    """Integrate the bare phase model

        dphi1/dt = omega1 + a sin(phi2 - phi1),
        dphi2/dt = omega2 + a sin(phi1 - phi2).

    The difference psi = phi2 - phi1 obeys dpsi/dt = -(omega1 - omega2)
    - 2a sin(psi), so the pair locks when |omega1 - omega2| < 2a.  `locked`
    reports whether |dpsi/dt| fell below LOCK_TOL by the end of the run.
    """

    def field(_t, phi):
        s = sin(phi[1] - phi[0])
        return (omega1 + coupling * s, omega2 - coupling * s)

    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (2,):
        raise ValueError("phi0 must contain two phases")
    times, phases = rk4_path(field, tuple(phi0.tolist()), t_end, dt)
    final = phases[-1]
    rate = (omega2 - omega1) + coupling * np.sin(final[0] - final[1]) - coupling * np.sin(final[1] - final[0])
    return PhaseFlowResult(
        times=times,
        phases=phases,
        locked=bool(abs(rate) <= LOCK_TOL),
        final_difference_rate=float(rate),
    )


def rotator_spin_operators(l: float) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(l_x, l_y, l_z) of the spin rotator model on SpinRep(l).

    These are the matrices (J_x, J_y, J_z) of spin_operators relabelled
    cyclically, (l_x, l_y, l_z) = (J_z, J_x, J_y), so [l_x, l_y] = i l_z
    holds exactly.  In this basis the channel R = sqrt(lam) (l_z - i l_y)
    is -i sqrt(lam) J_+, a single diagonal, and at delta = 0 the Hamiltonian
    moves the basis index by +-2 only: the pi rotation about l_x shows up in
    the sparsity pattern, and the generator splits into the sectors
    i - j even and i - j odd.
    """
    jx, jy, jz = spin_operators(SpinRep(l))
    return jz, jx, jy


def rotator_spin_model(params: RotatorParams) -> LindbladModel:
    """Angular-momentum form on SpinRep(l), with the axes of
    rotator_spin_operators:

    H = -delta l_z - lam (l_y l_z + l_z l_y), R = sqrt(lam) (l_z - i l_y).
    The common-frequency term proportional to the conserved total number is
    dropped.  At delta = 0 the generator has two sectors (see
    rotator_spin_operators); a detuning joins them into one.
    """
    _lx, ly, lz = rotator_spin_operators(params.l)
    h = (-params.delta) * lz + (-2.0 * params.lam) * symmetrize_product([ly, lz])
    r = sqrt(params.lam) * (lz + (-1j) * ly)
    return LindbladModel(h, (r,))


class SpinPolynomial:
    """Polynomial in the real angular-momentum components (l_x, l_y, l_z).

    The terms are keyed by the exponents (i, j, k) of l_x^i l_y^j l_z^k.  The
    first evaluation compiles them, with the generated code of observables
    over the variables (l_x, l_y, l_z).  A point l given as Python floats
    (`l.tolist()`) takes the fast scalar path.
    """

    __slots__ = ("terms", "_function")

    def __init__(self, terms: Mapping[tuple[int, int, int], complex]):
        self.terms = {}
        for key, coeff in terms.items():
            key = tuple(int(e) for e in key)
            if len(key) != 3 or any(e < 0 for e in key):
                raise ValueError(f"bad spin exponent key {key}")
            _accumulate(self.terms, {key: complex(coeff)})
        self._function = None

    def evaluate(self, l: Sequence[float]) -> complex:
        """Value at l = (l_x, l_y, l_z): three scalars, or three columns."""
        if self._function is None:
            self._function = _compile((self.terms,), _column_reads(3))
        return self._function(l)[0]

    def __reduce__(self):
        # A generated function does not pickle; the copy compiles anew.
        return SpinPolynomial, (self.terms,)

    def max_imag_coeff(self) -> float:
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)


def rotator_spin_hamiltonian(params: RotatorParams) -> SpinPolynomial:
    """Classical H(l) = -delta l_z - 2 lam l_y l_z."""
    return SpinPolynomial({(0, 0, 1): -params.delta, (0, 1, 1): -2.0 * params.lam})


def rotator_spin_channel(params: RotatorParams) -> SpinPolynomial:
    """Classical R(l) = sqrt(lam) (l_z - i l_y)."""
    root = sqrt(params.lam)
    return SpinPolynomial({(0, 0, 1): root, (0, 1, 0): -1j * root})


@dataclass(frozen=True)
class SpinTrajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n, 3), real

    def __len__(self):
        return len(self.times)

    def magnitude_squared(self) -> np.ndarray:
        return np.sum(self.states**2, axis=1)


# l_x, l_y and l_z as term maps.
_AXES = tuple({key: 1.0} for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _spin_drift(hamiltonian: SpinPolynomial, channel: SpinPolynomial) -> tuple[dict, dict, dict]:
    """dl/dt as three term maps in (l_x, l_y, l_z) with real coefficients.

    The flow is dl/dt = l x F with the force F_c = -dH/dl_c
    + i (R dR~/dl_c - R~ dR/dl_c), R~ the conjugate of R.  On real l the
    term map of R~ dR/dl_c is the conjugate of that of R dR~/dl_c, so the
    channel part is -2 Im of the latter, coefficient by coefficient.  H
    enters by the real parts of its coefficients.
    """
    minus_h = {key: -coeff.real for key, coeff in hamiltonian.terms.items()}
    r = channel.terms
    r_bar = {key: coeff.conjugate() for key, coeff in r.items()}
    force = [
        _accumulate(
            _derivative(minus_h, axis),
            {key: -2.0 * coeff.imag for key, coeff in _product(r, _derivative(r_bar, axis)).items()},
        )
        for axis in range(3)
    ]
    velocity = (
        _accumulate(
            _product(_AXES[b], force[c]),
            {key: -coeff for key, coeff in _product(_AXES[c], force[b]).items()},
        )
        for b, c in ((1, 2), (2, 0), (0, 1))
    )
    return tuple({key: coeff.real for key, coeff in terms.items()} for terms in velocity)


def classical_spin_flow(
    hamiltonian: SpinPolynomial,
    channel: SpinPolynomial,
    l0: Sequence[float],
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> SpinTrajectory:
    """RK4 integration of the dissipative angular-momentum flow

        dl/dt = -(l x grad H) + i R (l x grad R~) + c.c.

    The right hand side is composed once into three polynomials in
    (l_x, l_y, l_z) with real coefficients, and compiled once into one
    generated function that reads the tuple state and returns the real
    parts of the three values.  It is tangent to the sphere, so |l|^2 is a
    constant of motion.
    """
    if hamiltonian.max_imag_coeff() > 1e-12:
        raise ValueError("spin hamiltonian must have real coefficients")
    velocity = _compile(_spin_drift(hamiltonian, channel), _column_reads(3), real=True)
    l0 = np.asarray(l0, dtype=float)
    if l0.shape != (3,):
        raise ValueError("l0 must be a real 3-vector")
    times, states = rk4_path(lambda _t, l: velocity(l), tuple(l0.tolist()), t_end, dt, record_every=record_every)
    return SpinTrajectory(times, states)


def spin_components(point) -> np.ndarray:
    """Map a two-mode phase point to (l_x, l_y, l_z) via the bilinears."""
    coords = point.coords if isinstance(point, PhasePoint) else np.asarray(point, dtype=complex)
    z1, z2 = coords
    lx = (np.conj(z1) * z2 + np.conj(z2) * z1) / 2.0
    ly = 1j * (np.conj(z2) * z1 - np.conj(z1) * z2) / 2.0
    lz = (abs(z1) ** 2 - abs(z2) ** 2) / 2.0
    return np.array([lx.real, ly.real, lz.real])


# ---------------------------------------------------------------------------
# Moment closure for the synchronized rotators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentState:
    """First and second moments of (l_x, l_y, l_z); sym_xy = <l_x l_y + l_y l_x>."""

    lx: float
    ly: float
    lz: float
    lx2: float
    ly2: float
    lz2: float
    sym_xy: float

    def budget_residual(self, n_excitations: float) -> float:
        """lx2 + ly2 + lz2 minus the Casimir value (N/2)(N/2 + 1)."""
        half = n_excitations / 2.0
        return self.lx2 + self.ly2 + self.lz2 - half * (half + 1.0)


def ly2_analytic(n_excitations: float) -> float:
    """Closed-form quantum noise level: the positive root of

        8 x^2 + (3/2) x - N^2/8 - N/4 = 0,

    x = (1/8) [sqrt(N^2 + 2N + 9/16) - 3/4], approaching N/8 for large N.
    """
    n = float(n_excitations)
    if n <= 0:
        raise ValueError("N must be positive")
    return (sqrt(n * n + 2.0 * n + 9.0 / 16.0) - 0.75) / 8.0


def closure_stationary(n_excitations: float) -> MomentState:
    """Stationary moments of the synchronized rotators under cumulant closure.

    Solves the decoupled moment system together with the angular momentum
    budget lx2 + ly2 + lz2 = (N/2)(N/2+1) by its closed-form quadratic
    reduction, at complete synchronization (delta = 0).
    """
    n = float(n_excitations)
    if n < 2:
        raise ValueError("N must be at least 2")
    x = ly2_analytic(n)
    second = 8.0 * x * x + x
    return MomentState(lx=2.0 * x, ly=0.0, lz=0.0, lx2=second, ly2=x, lz2=second, sym_xy=0.0)


# ---------------------------------------------------------------------------
# Exact-versus-closure and moment-equation conformance reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureRow:
    l: float
    n_excitations: float
    x_closure: float
    x_exact: float
    rel_deviation: float
    lz_exact: float
    ly_exact: complex


@dataclass(frozen=True)
class ClosureComparison:
    rows: tuple[ClosureRow, ...]


# Largest spin size l whose exact stationary state closure_vs_exact_report
# solves: at l = 24 the generator's two parity sectors are solved as four
# real halves of 625, 576, 600 and 600 rows (lindblad.stationary), which
# took 0.31-0.33 s in process on a 2-vCPU VM (numpy 2.4.6).
EXACT_SPIN_L_MAX = 24


def closure_vs_exact_report(
    params: RotatorParams,
    null_tol: float = NULL_TOL,
    pos_tol: float = POSITIVITY_TOL,
) -> ClosureComparison:
    """Closure noise level against the exact stationary state, per spin size.

    For each l of 1, 2, ..., params.l, and params.l itself when it is a
    half-integer, the exact stationary state is solved from the generator
    null space and <l_y^2> is compared with the closed-form closure value.
    params.l must be at most EXACT_SPIN_L_MAX.  The deviation is reported,
    not thresholded: the closure carries no a priori error bound.
    """
    if params.delta != 0.0:
        raise ValueError("the closure comparison applies to delta = 0 only")
    if params.l > EXACT_SPIN_L_MAX:
        raise ValueError(f"exact stationary solve is limited to l <= {EXACT_SPIN_L_MAX}")
    spins = [float(k) for k in range(1, int(params.l) + 1)]
    if params.l != int(params.l):
        spins.append(params.l)
    rows = []
    for l in spins:
        sub = RotatorParams(params.omega1, params.omega2, params.lam, l)
        model = rotator_spin_model(sub)
        _lx, ly, lz = rotator_spin_operators(l)
        state = stationary(model, null_tol=null_tol, pos_tol=pos_tol)
        x_exact = expectation(state, ly @ ly).real
        x_closure = ly2_analytic(2 * l)
        rows.append(
            ClosureRow(
                l=l,
                n_excitations=2 * l,
                x_closure=x_closure,
                x_exact=x_exact,
                rel_deviation=abs(x_closure - x_exact) / abs(x_exact),
                lz_exact=expectation(state, lz).real,
                ly_exact=expectation(state, ly),
            )
        )
    return ClosureComparison(rows=tuple(rows))


@dataclass(frozen=True)
class ConformanceLine:
    observable: str
    max_abs_deviation: float
    agrees: bool


@dataclass(frozen=True)
class ConformanceReport:
    lines: tuple[ConformanceLine, ...]
    n_samples: int
    seed: int
    tol: float

    def line(self, observable: str) -> ConformanceLine:
        for entry in self.lines:
            if entry.observable == observable:
                return entry
        raise KeyError(observable)


def _random_density(rng: np.random.Generator, dim: int) -> OperatorMatrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return OperatorMatrix(rho / np.trace(rho).real)


def moment_equations_conformance(params: RotatorParams, n_samples: int, seed: int, tol: float) -> ConformanceReport:
    """Check the closed-form moment-hierarchy rates against the generator.

    For each first and second order moment equation of the rotator model,
    the rate from the adjoint generator (ground truth, dual to the master
    equation) is compared on random density matrices with the rate assembled
    from the closed-form coefficient formulas used in deriving the
    stationary closure.  Deviations are recorded per equation; nothing is
    asserted here, so coefficient discrepancies in the quoted forms surface
    as data instead of test failures.  At least one sample is required: a
    report over no state would read as agreement.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    lx, ly, lz = rotator_spin_operators(params.l)
    model = rotator_spin_model(params)
    lam = params.lam
    delta = params.delta

    def sym(a, b):
        return a @ b + b @ a

    sym_xy = sym(lx, ly)

    def printed_rates(ex):
        return {
            "lx": -2.0 * lam * ex(lx) + 4.0 * lam * ex(ly @ ly) + delta * ex(ly),
            "ly": -lam * ex(ly) - 2.0 * lam * ex(sym_xy) - delta * ex(lx),
            "lz": -lam * ex(lz),
            "ly^2": 2.0 * lam * (ex(lx @ lx) - ex(lz @ lz)) - delta * ex(sym_xy),
            "lz^2": -2.0 * lam * ex(ly @ sym_xy)
            - 2.0 * lam * ex(sym_xy @ ly)
            + 2.0 * lam * (ex(lx @ lx) - ex(ly @ ly)),
            "sym(lx,ly)": 8.0 * lam * ex(ly @ ly @ ly)
            - 3.0 * lam * ex(sym(ly, lx @ lx))
            - 5.0 * lam * ex(sym_xy)
            - 2.0 * lam * ex(lx @ ly @ lz)
            + 2.0 * delta * (ex(ly @ ly) - ex(lx @ lx))
            - lam * ex(ly),
        }

    observables = {
        "lx": lx,
        "ly": ly,
        "lz": lz,
        "ly^2": ly @ ly,
        "lz^2": lz @ lz,
        "sym(lx,ly)": sym_xy,
    }

    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in observables}
    for _ in range(n_samples):
        rho = _random_density(rng, lx.dim)

        def ex(op, _rho=rho):
            return expectation(_rho, op)

        printed = printed_rates(ex)
        for name, op in observables.items():
            exact = adjoint_rate(op, model, rho)
            worst[name] = max(worst[name], abs(exact - printed[name]))

    lines = tuple(
        ConformanceLine(observable=name, max_abs_deviation=worst[name], agrees=worst[name] <= tol)
        for name in observables
    )
    return ConformanceReport(lines=lines, n_samples=n_samples, seed=seed, tol=tol)
