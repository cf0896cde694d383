"""Lindblad generator, time evolution, stationary states, observable rates.

The generator is used in its unhalved form,

    d rho/dt = -i [H, rho] + sum_j ( [R_j rho, R_j+] + [R_j, rho R_j+] )
             = -i [H, rho] + sum_j ( 2 R_j rho R_j+ - {R_j+ R_j, rho} ),

which is exactly twice the 1/2-normalized dissipator found in most
textbooks: a single channel R = a empties a level at rate 2, not 1.  All
closed-form rates in this package (oscillator decay, rotator moment
equations) assume this normalization; divide channel rates by sqrt(2) to
convert a conventional model.

Every use of the generator goes through the effective Hamiltonian
K = -i H - sum_j R_j+ R_j, built once per model:

    d rho/dt = K rho + rho K+ + 2 sum_j R_j rho R_j+.

With M(X) = K X + sum_j R_j X R_j+ this is L(X) = M(X) + M(X+)+ for any
operator X, and M is the one form of the generator the package applies:
lindblad_rhs takes the two passes M(X) + M(X+)+, and evolve, whose rho is
Hermitian to the last bit, and the stationary residual, on its Hermitized
candidate, the one pass M(X) + M(X)+.  On an exactly Hermitian X the two
agree bit for bit and are Hermitian to the last bit.

M is applied as a shift stencil rather than by matrix products.  Each
operator is a few non-zero diagonals, since every quantized monomial moves
the basis index by a fixed amount.  On the row-major flat view of X,
diagonal k of K contributes (K X)_ij = K_i,i+k X_i+k,j, a read at flat
shift k d, and diagonals k, l of one channel give R X R+ at shift k d + l
with weight v_k[i] conj(v_l[j]).  Terms with the same flat shift are
summed into one weight, which is zero wherever the shift leaves the
matrix, so a read that wraps to another row adds nothing.  Each of the P
distinct shifts costs two element-wise operations on a contiguous slice,
O(P d^2) in all.  A dense operator makes P ~ d^2, so the stencil suits the
banded generators that quantized polynomials give.

The generator L is linear and constant in time, so one RK4 step is the
polynomial rho -> P(hL) rho with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24.
evolve applies it in Horner form, four stages u <- rho + c L(u) with
c = h/4, h/3, h/2, h, starting from u = rho.  A step computes rho/2 once;
each stage copies it into m, adds one pass of the stencil of M with its
weights scaled by c, so that m = rho/2 + c M(u), and then writes
u = m + m+ in place.  Every stage is thus exactly Hermitian, and a step
rounds within 1e-15 relative of the classical four-stage RK4 over M + M+.
The buffers are allocated once per call.  rho and u trade buffers every
step, so the stencil terms, each with its scaled weight and the views it
reads and writes, are built once per call for each of the two roles, and
the step loop slices nothing.  The one-channel oscillator's stencil has 4
terms; a whole evolve run of it, sampled every 100 steps, takes 89-127 us
a step at d = 40, against 112-136 us when each step sliced its stencil
windows and each stage multiplied rho by 1/2.  At d = 80, sampled every 2
steps, it takes about 830 us either way.  (Medians of runs of both loops
alternating in one process, on a 2-core VM whose speed moves between
levels, numpy 2.4 with OpenBLAS.)

Stationary states are solved per sector of the vectorized generator, one
block per mirror pair.  The generator maps rho+ to L(rho)+, so the
transposed positions (i, j) -> (j, i) of a sector form a sector whose block
is the conjugate of the first after permuting rows and columns alike; both
have the same singular values.  The block of a sector that holds diagonal
positions is its own mirror.  A number-covariant model such as the limit
cycle has 2 dim - 1 sectors but dim such pairs, so it takes dim block
inverses.

stationary runs on one thread of numpy's OpenBLAS (_blas.blas_threads) and
restores the thread count after.  A threaded LU or dot product splits its
sums by thread, so the last bits of a threaded solve depend on the thread
count: the spin rotator's x_exact at l = 7..10 (blocks of 221 rows) moved
by up to 5e-15 relative between one and two threads.  A threaded call also
waits for a core whenever another BLAS pool in the process spins, as
scipy's does for a while after its own calls.  On a 2-core VM a whole
rotators.json run, l = 1..10, took 0.065 or 0.145 s with two threads when
it followed scipy calls, against about 0.05 s on one thread either way and
0.04 s on two without them.  Blocks of 441 rows and more invert faster on
two threads (19 against 31 ms at 441), which only spin sizes l >= 15
reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ._blas import blas_threads
from .errors import DegenerateStationaryState, NumericalFailure, PositivityViolation
from .integrate import _step_count
from .quantize import FockSpace, OperatorMatrix

__all__ = [
    "DensityMatrix",
    "LindbladModel",
    "lindblad_rhs",
    "evolve",
    "EvolveResult",
    "liouvillian_matrix",
    "liouvillian_sectors",
    "stationary",
    "expectation",
    "adjoint_generator",
    "adjoint_rate",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


class DensityMatrix:
    """Hermitian, positive, unit-trace operator, validated on construction."""

    __slots__ = ("op",)

    def __init__(
        self,
        op: OperatorMatrix,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        pos_tol: float = POSITIVITY_TOL,
    ):
        if not isinstance(op, OperatorMatrix):
            op = OperatorMatrix(op)
        mat = op.mat
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > herm_tol:
            raise ValueError(f"density matrix is not Hermitian: deviation {herm_dev:.3e}")
        trace_dev = abs(np.trace(mat) - 1.0)
        if trace_dev > trace_tol:
            raise ValueError(f"density matrix trace differs from 1 by {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min())
        if min_eig < -pos_tol:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        self.op = op

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def basis(self):
        return self.op.basis

    def purity(self) -> float:
        return _trace_product(self.mat, self.mat).real

    @classmethod
    def pure_state(cls, vector, basis=None) -> "DensityMatrix":
        vector = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(vector)
        if norm == 0:
            raise ValueError("state vector must be non-zero")
        vector = vector / norm
        return cls(OperatorMatrix(np.outer(vector, vector.conj()), basis))

    @classmethod
    def fock_state(cls, dim: int, n: int) -> "DensityMatrix":
        if not 0 <= n < dim:
            raise ValueError(f"level {n} outside truncation {dim}")
        vector = np.zeros(dim, dtype=complex)
        vector[n] = 1.0
        return cls.pure_state(vector, FockSpace((dim,)))

    @classmethod
    def coherent_state(cls, dim: int, alpha: complex) -> "DensityMatrix":
        """Truncated coherent state |alpha>, renormalized after the cut."""
        ns = np.arange(dim)
        log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim))]))
        amps = np.exp(ns * np.log(complex(alpha)) - 0.5 * log_fact) if alpha != 0 else np.eye(dim)[0].astype(complex)
        return cls.pure_state(amps, FockSpace((dim,)))


@dataclass(frozen=True)
class LindbladModel:
    """Generator data: Hermitian H plus interaction channels R_j."""

    h: OperatorMatrix
    channels: tuple[OperatorMatrix, ...] = ()

    def __post_init__(self):
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if not self.h.is_hermitian(1e-12):
            raise ValueError("H must be Hermitian to 1e-12")
        for j, channel in enumerate(channels):
            if channel.dim != self.h.dim:
                raise ValueError(f"channel {j} dimension does not match H")
        channel_data = tuple((r.mat, r.mat.conj().T) for r in channels)
        k = -1j * self.h.mat
        for r, r_dag in channel_data:
            k = k - r_dag @ r
        object.__setattr__(self, "_channel_data", channel_data)
        object.__setattr__(self, "_k", k)

    @property
    def dim(self) -> int:
        return self.h.dim

    @cached_property
    def _stencil(self) -> tuple:
        return _make_stencil(self)

    def _rhs_mat(self, x: np.ndarray) -> np.ndarray:
        """L(x) = M(x) + M(x+)+ = K x + x K+ + 2 sum_j R_j x R_j+ on any
        operator x; M(x) + M(x)+ on an exactly Hermitian one."""
        m = _apply_stencil(self._stencil, x)
        return m + _apply_stencil(self._stencil, x.conj().T).conj().T


def _diagonals(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k of the non-zero diagonals of mat, ascending, and one row
    v_k per offset with v_k[i] = mat[i, i + k], zero where i + k leaves the
    matrix."""
    rows, cols = np.nonzero(mat)
    offsets, which = np.unique(cols - rows, return_inverse=True)
    vectors = np.zeros((len(offsets), mat.shape[0]), dtype=complex)
    vectors[which, rows] = mat[rows, cols]
    return offsets, vectors


def _make_stencil(model: LindbladModel) -> tuple:
    """Shift stencil of M(X) = K X + sum_j R_j X R_j+ on the row-major flat
    view of X.

    Returns (shift, lo, hi, weight) terms with distinct shifts; a term adds
    weight * X.flat[lo + shift:hi + shift] to out.flat[lo:hi], where
    [lo, hi) spans the non-zero entries of its weight.
    """
    d = model.dim
    offsets, vectors = _diagonals(model._k)
    shifts = [offsets * d]
    weights = [np.repeat(vectors, d, axis=1)]
    for r, _r_dag in model._channel_data:
        offsets, vectors = _diagonals(r)
        shifts.append((offsets[:, None] * d + offsets).ravel())
        pairs = vectors[:, None, :, None] * vectors.conj()[None, :, None, :]
        weights.append(pairs.reshape(-1, d * d))
    shifts = np.concatenate(shifts)
    if not len(shifts):
        return ()
    order = np.argsort(shifts, kind="stable")
    shifts = shifts[order]
    starts = np.flatnonzero(np.diff(shifts, prepend=shifts[0] - 1))
    summed = np.add.reduceat(np.concatenate(weights)[order], starts, axis=0)
    nonzero = summed != 0
    keep = nonzero.any(axis=1)
    summed, nonzero, shifts = summed[keep], nonzero[keep], shifts[starts][keep]
    lo = nonzero.argmax(axis=1)
    hi = d * d - nonzero[:, ::-1].argmax(axis=1)
    return tuple(
        (int(shift), int(a), int(b), weight[a:b])
        for shift, a, b, weight in zip(shifts, lo, hi, summed)
    )


def _apply_stencil(stencil: tuple, rho: np.ndarray) -> np.ndarray:
    flat = np.ravel(rho)
    out = np.zeros(flat.shape, dtype=complex)
    for shift, lo, hi, weight in stencil:
        out[lo:hi] += weight * flat[lo + shift:hi + shift]
    return out.reshape(rho.shape)


def lindblad_rhs(model: LindbladModel, rho: OperatorMatrix | DensityMatrix) -> OperatorMatrix:
    """Apply the generator to rho; traceless and Hermiticity-preserving."""
    op = rho.op if isinstance(rho, DensityMatrix) else rho
    if op.dim != model.dim:
        raise ValueError(f"dimension mismatch: rho {op.dim}, model {model.dim}")
    return OperatorMatrix(model._rhs_mat(op.mat), op.basis)


@dataclass(frozen=True)
class EvolveResult:
    """What evolve returns.  The monitors are taken over the samples.
    top_level_population is the largest total population of the basis
    states that put some mode at the top level of its Fock cut, which a cut
    too small for the state fills; on a basis other than a FockSpace, the
    population of the last basis state.  The basis is that of H, or that
    of the initial state when H has none."""

    final: DensityMatrix
    times: np.ndarray
    expectations: dict[str, np.ndarray]
    max_trace_deviation: float
    max_hermiticity_deviation: float
    min_eigenvalue: float
    top_level_population: float


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    observables: Mapping[str, OperatorMatrix] | None = None,
    sample_every: int | None = None,
    pos_abort_tol: float = 1e-6,
    validate_pos_tol: float = POSITIVITY_TOL,
) -> EvolveResult:
    """Fixed-step RK4 integration of the master equation, each step the
    Horner form of the RK4 polynomial (see the module notes).

    Expectations of the named observables are sampled every `sample_every`
    steps (default: about 200 samples per run; at least 1).  Trace,
    Hermiticity, positivity and the top-level population (EvolveResult) are
    monitored at the samples; an eigenvalue below -pos_abort_tol aborts,
    which signals that the step is too large or the Fock truncation too
    small for this state, and so does a non-finite entry after any step.
    """
    n_steps = _step_count(t_end, dt)
    if rho0.dim != model.dim:
        raise ValueError("initial state dimension does not match model")
    if sample_every is None:
        sample_every = max(1, n_steps // 200)
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every!r}")
    basis = rho0.basis if model.h.basis is None else model.h.basis
    if isinstance(basis, FockSpace):  # the states with some mode at its top level
        levels = np.indices(basis.mode_dims).reshape(basis.n_modes, -1).T
        top_levels = np.flatnonzero((levels == np.array(basis.mode_dims) - 1).any(axis=1))
    else:
        top_levels = [model.dim - 1]
    observables = dict(observables or {})
    for name, op in observables.items():
        if op.dim != model.dim:
            raise ValueError(f"observable {name!r} dimension mismatch")
    # tr(rho A) = rho.ravel() @ A.ravel(order="F"), as in _trace_product
    transposed = {name: op.mat.ravel(order="F") for name, op in observables.items()}

    # The Horner stages u <- rho + c L(u) of the module notes.  A stage
    # copies rho/2, computed once a step, into m, adds c M(u), then writes
    # u = m + m+, which equals rho + c L(u) because rho and u are Hermitian.
    # Each stencil term holds its weight scaled by c, the view of the flat
    # buffer it reads, and the views of the product scratch and of m that it
    # writes.  rho and u swap buffers every step, so the terms are built for
    # both roles here and the step loop slices nothing.
    d = model.dim
    m = np.empty((d, d), dtype=complex)
    mirror = np.empty_like(m)
    scratch = np.empty(d * d, dtype=complex)
    m_flat, m_transposed = m.reshape(-1), m.T
    coefficients = (dt / 4.0, dt / 3.0, dt / 2.0, dt)
    scaled = [[c * weight for *_, weight in model._stencil] for c in coefficients]
    writes = [(lo + shift, hi + shift, scratch[:hi - lo], m_flat[lo:hi]) for shift, lo, hi, _ in model._stencil]

    def stages_from(rho: np.ndarray, u: np.ndarray) -> list[tuple]:
        """The four stages of a step from rho: the first reads rho, the
        others the stage buffer u."""
        sources = (rho.reshape(-1),) + (u.reshape(-1),) * 3
        return [
            tuple((weight, flat[a:b], product, target) for weight, (a, b, product, target) in zip(weights, writes))
            for weights, flat in zip(scaled, sources)
        ]

    rho = (rho0.mat + rho0.mat.conj().T) / 2.0
    u = np.empty_like(rho)
    half = np.empty_like(rho)
    stages, next_stages = stages_from(rho, u), stages_from(u, rho)
    times = [0.0]
    samples: dict[str, list[complex]] = {name: [] for name in observables}
    max_trace_dev = 0.0
    max_herm_dev = 0.0
    min_eig_seen = np.inf
    top_population = 0.0

    def record(t: float, mat: np.ndarray):
        nonlocal max_trace_dev, max_herm_dev, min_eig_seen, top_population
        flat = mat.ravel()
        for name, values in samples.items():
            values.append(complex(flat @ transposed[name]))
        max_trace_dev = max(max_trace_dev, abs(np.trace(mat) - 1.0))
        max_herm_dev = max(max_herm_dev, float(np.max(np.abs(mat - mat.conj().T))))
        top_population = max(top_population, float(mat.diagonal()[top_levels].real.sum()))
        # mat is exactly Hermitian (see above), so it goes to eigvalsh as is.
        min_eig = float(np.linalg.eigvalsh(mat).min())
        min_eig_seen = min(min_eig_seen, min_eig)
        if min_eig < -pos_abort_tol:
            raise PositivityViolation(
                f"eigenvalue {min_eig:.3e} at t={t:.6g}: step too large or truncation too small"
            )

    record(0.0, rho)

    for step in range(1, n_steps + 1):
        np.multiply(rho, 0.5, out=half)
        for stage in stages:
            np.copyto(m, half)
            for weight, source, product, target in stage:
                np.multiply(weight, source, out=product)
                np.add(target, product, out=target)
            np.conjugate(m_transposed, out=mirror)
            np.add(m, mirror, out=u)
        rho, u = u, rho
        stages, next_stages = next_stages, stages
        # sum |rho_ij|^2 is non-finite whenever an entry is, and overflows
        # long before any density matrix could reach it
        if not np.isfinite(np.vdot(rho, rho).real):
            raise PositivityViolation(f"non-finite density matrix at t={step * dt:.6g}")
        if step % sample_every == 0 or step == n_steps:
            times.append(step * dt)
            record(step * dt, rho)

    final = DensityMatrix(OperatorMatrix(rho, rho0.basis), pos_tol=validate_pos_tol)
    return EvolveResult(
        final=final,
        times=np.array(times),
        expectations={name: np.array(values) for name, values in samples.items()},
        max_trace_deviation=float(max_trace_dev),
        max_hermiticity_deviation=float(max_herm_dev),
        min_eigenvalue=float(min_eig_seen),
        top_level_population=top_population,
    )


def liouvillian_sectors(model: LindbladModel) -> list[np.ndarray]:
    """Column-stacked positions of each sector of the vectorized generator.

    A sector is a connected component of the generator's sparsity pattern,
    found from the supports of K and of each R_j without forming the
    matrix; the generator is block diagonal over the sectors.  Positions
    are ascending within a sector and sectors are ordered by their first
    position.  A number-covariant model such as the limit cycle splits
    into the 2 dim - 1 diagonals i - j = s of rho.  A model whose H moves
    the basis index by even amounts only, and each of whose channels moves
    it by amounts of one parity, splits at least into i - j even and i - j
    odd: the oscillator, and the spin rotator model at delta = 0.  A
    symmetry shows only when the basis makes it visible in the sparsity
    pattern.  Since the generator maps rho+ to L(rho)+, the transposed
    positions (i, j) -> (j, i) of a sector form one sector, its mirror.
    """
    return _sectors(model)[0]


def _sectors(model: LindbladModel) -> tuple[list[np.ndarray], np.ndarray]:
    """liouvillian_sectors, and the index of the sector of each position."""
    d = model.dim
    index = np.arange(d)
    k_rows, k_cols = np.nonzero(model._k)
    # K rho joins (i, j) to (k, j) where K_ki != 0; rho K+ joins (i, j) to
    # (i, l) where K_lj != 0; R rho R+ joins (i, j) to (k, l) where R_ki and
    # R_lj are both non-zero.
    src = [(k_cols[:, None] + d * index).ravel(), (index[:, None] + d * k_cols).ravel()]
    dst = [(k_rows[:, None] + d * index).ravel(), (index[:, None] + d * k_rows).ravel()]
    for r, _r_dag in model._channel_data:
        rows, cols = np.nonzero(r)
        src.append((cols[:, None] + d * cols).ravel())
        dst.append((rows[:, None] + d * rows).ravel())
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    # Label propagation with pointer jumping: each label is a position in
    # the same component and only decreases, so it ends at the component's
    # smallest position.
    labels = np.arange(d * d)
    while not np.array_equal(labels[src], labels[dst]):
        low = np.minimum(labels[src], labels[dst])
        np.minimum.at(labels, src, low)
        np.minimum.at(labels, dst, low)
        labels = labels[labels]
    _roots, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1]), inverse


def liouvillian_matrix(model: LindbladModel, positions: np.ndarray | None = None) -> np.ndarray:
    """The generator as a matrix on column-stacked matrices.

    With no positions this is the full dim^2 x dim^2 matrix; otherwise the
    block of rows and columns at the given column-stacked positions
    (i + dim j for rho_ij), e.g. one of liouvillian_sectors.  Entries are

        L[(k,l),(i,j)] = K_ki d_lj + d_ki conj(K_lj) + 2 sum_m (R_m)_ki conj((R_m)_lj)

    with K = -i H - sum_m R_m+ R_m the effective Hamiltonian and d the
    Kronecker delta.
    """
    d = model.dim
    positions = np.arange(d * d) if positions is None else np.asarray(positions)
    cols, rows = np.divmod(positions, d)

    def entries(op, index):  # op[index[a], index[b]]; two takes beat one fancy index
        return op.take(index, 0).take(index, 1)

    out = entries(model._k, rows) * (cols[:, None] == cols)
    out += (rows[:, None] == rows) * entries(model._k.conj(), cols)
    for r, _r_dag in model._channel_data:
        out += entries(r, rows) * entries(2.0 * r.conj(), cols)
    return out


@blas_threads(1)
def stationary(
    model: LindbladModel,
    null_tol: float = 1e-10,
    residual_tol: float = 1e-10,
    pos_tol: float = POSITIVITY_TOL,
) -> DensityMatrix:
    """Unique stationary state from the null space of the vectorized generator.

    The generator is solved per sector (liouvillian_sectors).  Since
    tr L(rho) = 0, the trace functional is a left null vector of every
    sector block that holds diagonal positions of rho; replacing one of its
    diagonal rows by the trace functional gives a bordered block B whose
    solution with unit right-hand side in that row is the unit-trace null
    vector.  A rank-one change moves each singular value at most one place,
    so sigma_2(block) >= sigma_min(B) >= 1 / ||B^-1||_F; a sector without
    diagonal positions bounds sigma_min of its plain block the same way.
    When exactly one sector holds diagonal positions and every bound lies
    above null_tol times the largest singular value (bounded above by the
    largest Frobenius norm of a block), the null space is one-dimensional
    and no SVD is taken.  Otherwise the singular values of every block are
    computed and counted as for one SVD of the whole generator: those at or
    below null_tol relative to the largest count as null directions, and a
    null space of dimension other than one raises DegenerateStationaryState
    with that dimension.  The null vector is Hermitized, trace-normalized and
    validated (residual below residual_tol, eigenvalues above -pos_tol).

    Each block is solved once per mirror pair of sectors.  The block of a
    sector's mirror is the entrywise conjugate of its own after permuting
    rows and columns alike, so it has the same norm, singular values and
    bound; a sector with diagonal positions is its own mirror.  A
    number-covariant model thus takes dim inverses instead of 2 dim - 1.
    A null_tol outside (0, 1) raises ValueError.

    The solve runs on one thread of numpy's OpenBLAS (see the module
    notes), so its result does not depend on the machine's core count.
    """
    if not 0.0 < null_tol < 1.0:
        raise ValueError(f"null_tol must lie in (0, 1), got {null_tol!r}")
    d = model.dim
    sectors, sector_of = _sectors(model)
    cols, rows = np.divmod(np.array([positions[0] for positions in sectors]), d)
    mirrors = sector_of[rows * d + cols]  # the sector of each sector's transpose
    # the first sector of each mirror pair, and how many sectors it stands for
    solved = [
        (positions, 1 if mirrors[k] == k else 2)
        for k, positions in enumerate(sectors) if mirrors[k] >= k
    ]
    norm_bound = 0.0  # largest ||block||_F, at least the largest singular value
    gap_bounds = []  # per solved sector, 1 / ||B^-1||_F, or 0.0 where B is singular
    traced = []  # (positions, null vector) of each sector with diagonal positions
    for positions, _count in solved:
        block = liouvillian_matrix(model, positions)
        norm_bound = max(norm_bound, float(np.linalg.norm(block)))
        diagonal = np.flatnonzero(positions % (d + 1) == 0)
        if diagonal.size:
            row = diagonal[0]
            block[row] = 0.0
            block[row, diagonal] = 1.0
        try:
            inverse = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            gap_bounds.append(0.0)
            continue
        gap_bounds.append(1.0 / float(np.linalg.norm(inverse)))
        if diagonal.size:
            traced.append((positions, inverse[:, row].copy()))

    threshold = null_tol * (norm_bound if norm_bound > 0 else 1.0)
    if len(traced) != 1 or not all(bound > threshold for bound in gap_bounds):
        values = [
            (np.linalg.svd(liouvillian_matrix(model, positions), compute_uv=False), count)
            for positions, count in solved
        ]
        scale = max(s[0] for s, _count in values)
        scale = scale if scale > 0 else 1.0
        null_dim = sum(count * int(np.sum(s <= null_tol * scale)) for s, count in values)
        if null_dim != 1:
            raise DegenerateStationaryState(null_dim)
        if len(traced) != 1:
            raise NumericalFailure("bordered stationary block is singular")
    positions, null = traced[0]
    vector = np.zeros(d * d, dtype=complex)
    vector[positions] = null
    candidate = vector.reshape((d, d), order="F")
    candidate = (candidate + candidate.conj().T) / 2.0
    trace = np.trace(candidate).real
    if abs(trace) < 1e-14:
        raise NumericalFailure("stationary candidate has (near) zero trace")
    candidate = candidate / trace

    # candidate is exactly Hermitian, so one stencil pass m = M(candidate)
    # gives L(candidate) = m + m+ bit for bit as _rhs_mat does with two.
    m = _apply_stencil(model._stencil, candidate)
    residual = float(np.max(np.abs(m + m.conj().T)))
    if residual > residual_tol:
        raise NumericalFailure(
            f"stationary residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(candidate).min())
    if min_eig < -pos_tol:
        raise NumericalFailure(
            f"stationary state has eigenvalue {min_eig:.3e}: truncation too small"
        )
    return DensityMatrix(
        OperatorMatrix(candidate, model.h.basis), pos_tol=pos_tol
    )


def expectation(rho: DensityMatrix | OperatorMatrix, observable: OperatorMatrix) -> complex:
    """tr(rho A); real up to rounding when A is Hermitian."""
    mat = rho.mat
    if mat.shape[0] != observable.dim:
        raise ValueError("dimension mismatch in expectation")
    return _trace_product(mat, observable.mat)


def _trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(a b) as sum_ij a_ij b_ji, in O(dim^2) instead of a matrix product."""
    return complex(a.ravel() @ b.ravel(order="F"))


def adjoint_generator(observable: OperatorMatrix, model: LindbladModel) -> OperatorMatrix:
    """Heisenberg-picture rate operator.

    d<A>/dt = tr(rho L+(A)) with L+(A) = K+ A + A K + 2 sum_j R_j+ A R_j,
    the trace-dual of the generator used by lindblad_rhs; this equals
    -i [A, H] + sum_j ( R_j+ [A, R_j] + [R_j+, A] R_j ).
    """
    if observable.dim != model.dim:
        raise ValueError("observable dimension does not match model")
    a = observable.mat
    out = model._k.conj().T @ a + a @ model._k
    for r, r_dag in model._channel_data:
        out += 2.0 * (r_dag @ a @ r)
    return OperatorMatrix(out, observable.basis if observable.basis == model.h.basis else None)


def adjoint_rate(
    observable: OperatorMatrix,
    model: LindbladModel,
    rho: DensityMatrix | OperatorMatrix,
) -> complex:
    """d<A>/dt for the given state; equals tr(A * lindblad_rhs(rho))."""
    return expectation(rho, adjoint_generator(observable, model))
