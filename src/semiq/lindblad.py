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
agree bit for bit and are Hermitian to the last bit.  The formula
K rho + (K rho)+ + 2 sum_j R_j rho R_j+ is not used: it drops K's damping
of the anti-Hermitian part of rho but keeps the R_j rho R_j+ feed, so
rounding error grows until configs/oscillator.json fails the Hermiticity
check.

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
banded generators that quantized polynomials give.  L's own stencil, built
once per model from M's (LindbladModel._generator), is the one source of
L's entries: its 1-norm, its sectors and the blocks of liouvillian_matrix
are read off it.  evolve and the stationary residual apply M, whose one
pass m gives L = m + m+ exactly Hermitian.

L is linear and constant in time, and evolve needs rho only at its
samples, tau = sample_every dt apart.  So it applies exp(s L) to rho as
truncated Taylor series, each over a span h with h ||L||_1 <= 5, and reads
every sample inside a span off that span's one series (Al-Mohy and Higham,
SIAM J. Sci. Comput. 33, 488 (2011); see also Moler and Van Loan, SIAM
Rev. 45, 3 (2003)).

- A span covers as many whole sample intervals as keep h ||L||_1 <= 5
  (_spans).  An interval longer than that is split into the fewest equal
  substeps within the bound, each a series of its own.  ||L||_1 is the
  largest column sum of |L| as a matrix on the flat view of X, read off
  L's stencil (LindbladModel._norm); no dense generator is built.
- The terms are u_0 = rho and u_k = h L(u_(k-1)), so t_k = u_k / k! is
  the k-th Taylor term at the span's far end.  Each is one pass of the
  stencil with its weights scaled by h, one copy per span: m = h M(u_(k-1)),
  then u_k = m + m+, exactly Hermitian.  The terms u_0 ... u_K, K the
  degree at which the series stops, are kept in one buffer of
  (cap + 1) d^2 entries.
- A series ends when two successive terms t_k fall below the unit roundoff
  times rho, in the Frobenius norm, one np.vdot a pass.  At a point s
  inside the span the terms are (s/h)^k t_k, smaller still.
- t_k is at most (h ||L||_1)^k / k! times rho in the entry-wise 1-norm.
  The bound 5 keeps the largest term, and with it the rounding of the sum,
  below 27 times rho.  It also fixes a degree cap by which the stopping
  test must hold (_degree_cap).  A series that reaches the cap raises
  SeriesDivergence; so does a term that is not finite, whose size fails
  the test.  With a finite 1-norm bound no term can overflow, and a bound
  that is not finite raises PositivityViolation before any series starts.
- Each sample in the span, and the span's end, is read off the stored
  terms as sum_k (s/h)^k / k! u_k: one real matrix product of the
  coefficients with the float view of the terms, at most K + 1 points a
  product.  Each result is Hermitized as (x + x+)/2, so every sample is
  exactly Hermitian whatever order the product sums in, and the span's end
  is the next series' rho.  A series screens its samples (below) only
  after its passes, so its SeriesDivergence comes before the screens of
  the samples it spans.

The views each pass reads and writes are built once per call, and the
scaled weights and read-off coefficients once per distinct span.  The
shipped oscillator (d = 40, tau = 0.1, tau ||L||_1 = 4.15) fits one sample
in a span and takes one series of 16-17 passes a sample, and its samples
agree with scipy's expm of the generator to 5.1e-15.  Sampled every 2
steps of 1e-3 (tau ||L||_1 = 0.17), the d = 80 oscillator fits 29 samples
in a span of 17 passes: 151 passes for 250 samples, where one series per
sample interval took 2000.

evolve holds every sample to lambda_min(rho) >= -pos_tol, but takes an
eigendecomposition only where that is in doubt.  It screens a sample by
one Cholesky factorization of rho + sigma I, with

    sigma = 2 d (d + 1) u ||rho||_F

and u the unit roundoff, rho + sigma I built in one buffer per call.  A
factorization that completes is exact for a positive definite matrix
within ||E||_2 <~ d (d + 1) u ||rho + sigma I||_2 of rho + sigma I
(Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., section 10.1).  ||rho||_F bounds ||rho||_2, and the factor 2
covers the constants of complex arithmetic, so ||E||_2 <= sigma and a pass
certifies lambda_min(rho) > -2 sigma: about -2.9e-12 at d = 80 and unit
purity.  A sample whose screen fails goes to eigvalsh, which raises
PositivityViolation below -pos_tol, and so does the last sample.  So does
every sample where 2 sigma is not below pos_tol, since a pass would prove
nothing there, and a sample that is not finite, whose norm is not finite
either.  min_eigenvalue is thus the smallest eigenvalue computed, and
min_eigenvalue_bound, the lower of it and -2 sigma over the passed
screens, bounds the eigenvalues of every sample.

The sectors of the vectorized generator are the connected components of
its sparsity pattern, read from the non-zero weights of L's stencil
(_sectors); the generator is block diagonal over them, weak symmetries in
the sense of Buca and Prosen (New J. Phys. 14, 073007 (2012)).  A symmetry
shows only where the basis puts exact zeros.  A basis rotated by a
numerical eigensolver would not do: its 1e-17 fill joins every sector into
one.  So the spin rotator's axes are the standard spin
matrices relabelled cyclically (models.rotator_spin_operators): its
channel is one diagonal, its Hamiltonian at delta = 0 moves the index by
+-2, and its generator splits into i - j even and i - j odd.

Stationary states are solved per sector, one block per mirror pair.  The
generator maps rho+ to L(rho)+, so the transposed positions
(i, j) -> (j, i) of a sector form a sector whose block is the conjugate
of the first after permuting rows and columns alike; both have the same
singular values.  The block of a sector that holds diagonal
positions is its own mirror.  A number-covariant model such as the limit
cycle has 2 dim - 1 sectors but dim such pairs, so it takes dim block
inverses.

When every entry of L is exactly real, L maps conj X to conj L(X), so it
commutes with the entrywise conjugation, an antiunitary weak symmetry,
and, with X -> X+, with the transpose.  L's stencil is then float64, and
so is its matrix.  A mirror pair's block is inverted in float64, and a
self-mirror sector splits into its symmetric and antisymmetric halves, two
real blocks of about half its size (see stationary).  Each half is built
from the sector's block by adding and subtracting the rows and columns of
each pair (p, mirror p), O(n^2) against the O(n^3) inverse.  A complex
flop costs about four real ones, so the two real halves together take
about a sixteenth of the flops of the complex inverse.  The spin rotator
model has a real L at any detuning, and keeps it with a multiple of 1
added to H, which makes K complex: at l = 10 its parity sectors of 221 and
220 positions give halves of 121, 100, 110 and 110 rows.  The oscillator
and the limit cycle at omega != 0 do not, and keep their complex blocks.

stationary and evolve run on one thread of numpy's OpenBLAS
(_blas.blas_threads) and restore the thread count after.  A threaded LU or
dot product splits its sums by thread, so the last bits of a threaded solve
depend on the thread count: the inverses of the spin rotator's bordered
halves at l = 10 differ by up to 8e-15 relative between one and two
threads.  A threaded call also waits for a core whenever another BLAS pool
in the process spins, as scipy's does for a while after its own calls.  On
a 2-core VM a whole rotators.json run, l = 1..10, took 0.09 s (0.02 to
0.14 s) with two threads when it followed scipy calls, against 0.02-0.025 s
on one thread either way and on two without them (medians of 15 runs).
Complex blocks of 441 rows inverted faster on two threads (19 against 31
ms); real ones gain less (13 against 16 ms at 441 rows), and the spin
model's halves reach that size only at l = 20.
evolve's screen is one small factorization a sample, which threads only
slow down: on the same VM (numpy 2.4.6, OpenBLAS 0.3.31) the Cholesky
factor of a d = 80 oscillator sample took 69 us on one thread and 111 us
on two, and its eigvalsh about 300 us on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ._blas import blas_threads
from .errors import DegenerateStationaryState, NumericalFailure, PositivityViolation, SeriesDivergence
from .integrate import _default_sample_every, _record_grid
from .quantize import FockSpace, OperatorMatrix

__all__ = [
    "DensityMatrix",
    "LindbladModel",
    "lindblad_rhs",
    "evolve",
    "EvolveResult",
    "liouvillian_matrix",
    "stationary",
    "expectation",
    "adjoint_generator",
    "adjoint_rate",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8
NULL_TOL = 1e-10  # relative to the largest singular value; see stationary
RESIDUAL_TOL = 1e-10
UNIT_ROUNDOFF = 2.0**-53
SUBSTEP_NORM = 5.0  # the largest h ||L||_1 of an evolve substep


def _check_pos_tol(pos_tol: float):
    if not 0.0 < pos_tol < math.inf:
        raise ValueError(f"pos_tol must be a finite positive number, got {pos_tol!r}")


class DensityMatrix:
    """Hermitian, positive, unit-trace operator, validated on construction."""

    __slots__ = ("op",)

    def __init__(self, op: OperatorMatrix, pos_tol: float = POSITIVITY_TOL):
        _check_pos_tol(pos_tol)
        self._hold(op)
        mat = self.op.mat
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min())
        if min_eig < -pos_tol:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    def _hold(self, op: OperatorMatrix):
        """Check Hermiticity and unit trace, then hold op."""
        if not isinstance(op, OperatorMatrix):
            op = OperatorMatrix(op)
        mat = op.mat
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian: deviation {herm_dev:.3e}")
        trace_dev = abs(np.trace(mat) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"density matrix trace differs from 1 by {trace_dev:.3e}")
        self.op = op

    @classmethod
    def _spectrum_checked(cls, op: OperatorMatrix) -> "DensityMatrix":
        """A density matrix whose eigenvalues the caller has just checked
        (evolve's last sample, stationary's candidate): Hermiticity and
        trace are checked, and no second eigvalsh runs."""
        out = cls.__new__(cls)
        out._hold(op)
        return out

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
        if not self.h.is_hermitian():
            raise ValueError("H must be Hermitian to 1e-12")
        for j, channel in enumerate(channels):
            if channel.dim != self.h.dim:
                raise ValueError(f"channel {j} dimension does not match H")
        channel_mats = tuple(r.mat for r in channels)
        k = -1j * self.h.mat
        for r in channel_mats:
            k = k - r.conj().T @ r
        object.__setattr__(self, "_channel_mats", channel_mats)
        object.__setattr__(self, "_k", k)

    @property
    def dim(self) -> int:
        return self.h.dim

    @cached_property
    def _stencil(self) -> tuple:
        return _make_stencil(self)

    @cached_property
    def _generator(self) -> tuple[np.ndarray, np.ndarray]:
        """L on the row-major flat view of X as (shifts, weights), weights of
        shape (P, d^2): L(X).flat[q] = sum_p weights[p, q] X.flat[q + shifts[p]],
        float64 when every entry of L is exactly real.  L(X) = M(X) + M'(X)
        with M'(X) = M(X+)+, whose entry at flat (q, p) is the conjugate of
        the entry of M at the transposed positions.  An entry of M at shift
        s = a d + b (0 <= b < d) moves (i, j) by (a, b), or by (a + 1, b - d)
        where j + b passes the row end, so M' holds it at shift b d + a or
        (b - d) d + a + 1."""
        d = self.dim
        transposed = np.arange(d * d).reshape(d, d).T.ravel()  # flat (i, j) -> flat (j, i)
        by_shift: dict[int, np.ndarray] = {}

        def add(shift, rows, values):
            if rows.size:
                by_shift.setdefault(shift, np.zeros(d * d, dtype=complex))[rows] += values

        for shift, lo, hi, weight in self._stencil:
            rows = np.arange(lo, hi)
            add(shift, rows, weight)
            a, b = divmod(shift, d)
            carry = rows % d >= d - b
            add(b * d + a, transposed[rows[~carry]], weight[~carry].conj())
            add((b - d) * d + a + 1, transposed[rows[carry]], weight[carry].conj())
        real = not any(np.any(values.imag) for values in by_shift.values())
        weights = np.array([values.real if real else values for values in by_shift.values()])
        return np.array(list(by_shift), dtype=np.intp), weights.reshape(-1, d * d)

    @cached_property
    def _norm(self) -> float:
        """||L||_1: the largest column sum of |L| as a matrix on the flat
        view of X, read off _generator."""
        d = self.dim
        sums = np.zeros(d * d)
        for shift, values in zip(self._generator[0].tolist(), self._generator[1]):
            sums[max(0, shift):d * d + min(0, shift)] += np.abs(values[max(0, -shift):d * d - max(0, shift)])
        return float(sums.max())

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
    for r in model._channel_mats:
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
    """What evolve returns.  The monitors are taken over the samples, but
    max_hermiticity_deviation is that of the final state: every sample is
    Hermitian to the last bit by construction (see the module notes), so
    it reads 0.0.  min_eigenvalue is the smallest eigenvalue computed: that
    of the last sample and of every sample whose Cholesky screen failed (see
    the module notes).  min_eigenvalue_bound is at most min_eigenvalue and
    bounds the eigenvalues of every sample, screened or not.
    top_level_population is the largest total population of the basis
    states that put some mode at the top level of its Fock cut, which a cut
    too small for the state fills; on a basis other than a FockSpace, the
    population of the last basis state.  The basis is that of H, or that of
    the initial state when H has none.  stencil_passes counts the passes of
    every series."""

    final: DensityMatrix
    times: np.ndarray
    expectations: dict[str, np.ndarray]
    max_trace_deviation: float
    max_hermiticity_deviation: float
    min_eigenvalue: float
    min_eigenvalue_bound: float
    top_level_population: float
    stencil_passes: int


@blas_threads(1)
def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    observables: Mapping[str, OperatorMatrix] | None = None,
    sample_every: int | None = None,
    pos_tol: float = POSITIVITY_TOL,
) -> EvolveResult:
    """The master equation from rho0, sampled every `sample_every` steps of
    dt on the record grid of integrate (default interval there): rho at each
    sample is read off a truncated Taylor series of exp(s L) that covers as
    many whole sample intervals as its bound allows, or the last substep of
    a longer interval (see the module notes).  Expectations of the named
    observables are taken, and trace, positivity and the top-level
    population (EvolveResult) monitored, at every sample, t = 0 and the last
    included; an eigenvalue below -pos_tol raises PositivityViolation.  A
    sample is certified by a Cholesky screen and goes to eigvalsh only when
    the screen fails, when it is the last sample, or when pos_tol is too
    tight for the screen to decide (see the module notes).  The truncated
    generator keeps Lindblad form, so its exact flow keeps rho positive:
    such an eigenvalue is rounding beyond pos_tol or a broken model, and a
    Fock cut too small shows in top_level_population instead.
    A non-finite generator raises PositivityViolation before any series
    starts.  A series that does not converge within its degree cap raises
    SeriesDivergence, before the samples it spans are screened.
    A pos_tol that is not a finite positive number raises ValueError.  The
    run takes one thread of numpy's OpenBLAS, as stationary does.
    """
    _check_pos_tol(pos_tol)
    if sample_every is None:
        sample_every = _default_sample_every(t_end, dt)
    steps, times = _record_grid(t_end, dt, sample_every, "sample_every")
    if rho0.dim != model.dim:
        raise ValueError("initial state dimension does not match model")
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
    # terms[k] holds u_k = h^k L^k rho, so t_k = u_k / k!.  Pass k reads
    # u_(k-1) and writes m = h M(u_(k-1)), then u_k = m + m+ into terms[k].
    # The stencil term of the shift nearest 0 writes its slice of m
    # directly, its weight padded with zeros over every position whose read
    # stays inside the matrix (all of m at shift 0); the others add theirs
    # through the product scratch.  Only the part of m that the first term
    # does not reach is zeroed.  A model with no stencil terms gets one zero
    # term.  Each distinct span gets its degree cap, its weights scaled by
    # h and the read-off coefficients (s/h)^j / j!, j <= cap, of its points
    # s.  Rows of terms and of readoff that a run never reaches are never
    # written, so they take no memory.
    d = model.dim
    stencil = sorted(model._stencil, key=lambda entry: abs(entry[0])) or [(0, 0, d * d, np.zeros(d * d))]
    shift, lo, hi, weight = stencil[0]
    a, b = max(0, -shift), d * d - max(0, shift)
    padded = np.zeros(b - a, dtype=complex)
    padded[lo - a:hi - a] = weight
    spans = _spans(steps, dt, model._norm)
    plans = {}  # (length, parts, offsets) -> (cap, weights scaled by h, read-off coefficients)
    for length, parts, offsets, _start in spans:
        if (length, parts, offsets) not in plans:
            h = length * dt / parts
            cap = _degree_cap(length * dt * model._norm / parts, d)
            fractions = np.array(offsets, dtype=float)[:, None] / length
            plans[length, parts, offsets] = (
                cap,
                h * padded,
                [h * weight for *_, weight in stencil[1:]],
                np.cumprod(np.hstack([np.ones_like(fractions), fractions / np.arange(1.0, cap + 1)]), axis=1),
            )
    rows = max((plan[0] for plan in plans.values()), default=0) + 1
    terms = np.empty((rows, d, d), dtype=complex)
    readoff = np.empty_like(terms)
    m = np.empty((d, d), dtype=complex)
    sample = np.empty_like(m)
    scratch = np.empty(d * d, dtype=complex)
    terms_flat, m_flat, m_transposed = terms.reshape(rows, -1), m.reshape(-1), m.T
    terms_real, readoff_real = terms_flat.view(float), readoff.reshape(rows, -1).view(float)
    first_target = m_flat[a:b]
    reads = [  # per pass k: the reads of u_(k-1), with the scratch and the slice of m of each
        (term[a + shift:b + shift], [
            (term[lo + shift:hi + shift], scratch[:hi - lo], m_flat[lo:hi]) for shift, lo, hi, _ in stencil[1:]
        ])
        for term in terms_flat[:-1]
    ]
    zeroed = [part for part in (m_flat[:a], m_flat[b:]) if part.size]

    samples: dict[str, list[complex]] = {name: [] for name in observables}
    max_trace_dev = 0.0
    min_eig_seen = np.inf
    max_shift = 0.0  # the largest sigma of a passed screen
    top_population = 0.0
    passes = 0
    shifted = np.empty_like(m)  # rho + sigma I, for the screen
    shifted_diagonal = shifted.reshape(-1)[::d + 1]

    def record(t: float, mat: np.ndarray, last: bool):
        nonlocal max_trace_dev, min_eig_seen, max_shift, top_population
        flat = mat.ravel()
        for name, values in samples.items():
            values.append(complex(flat @ transposed[name]))
        max_trace_dev = max(max_trace_dev, abs(np.trace(mat) - 1.0))
        top_population = max(top_population, float(mat.diagonal()[top_levels].real.sum()))
        # The screen of the module notes; a shift that is not finite fails
        # the comparison.  mat is exactly Hermitian (see above), so it goes
        # to cholesky and eigvalsh as is.
        shift = 2.0 * d * (d + 1) * UNIT_ROUNDOFF * math.sqrt(np.vdot(mat, mat).real)
        if not last and 2.0 * shift < pos_tol:
            np.copyto(shifted, mat)
            np.add(shifted_diagonal, shift, out=shifted_diagonal)
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                pass
            else:
                max_shift = max(max_shift, shift)
                return
        min_eig = float(np.linalg.eigvalsh(mat).min())
        min_eig_seen = min(min_eig_seen, min_eig)
        if min_eig < -pos_tol:
            raise PositivityViolation(
                f"eigenvalue {min_eig:.3e} at t={t:.6g}: rounding beyond pos_tol {pos_tol:.1e} or a broken model"
            )

    np.add(rho0.mat, rho0.mat.conj().T, out=terms[0])
    terms[0] *= 0.5
    record(0.0, terms[0], last=not steps)
    sampled = 0  # samples recorded after t = 0

    for length, parts, offsets, start in spans:
        cap, first_weight, rest, coefficients = plans[length, parts, offsets]
        for part in range(parts):
            limit = UNIT_ROUNDOFF**2 * np.vdot(terms[0], terms[0]).real
            previous = math.inf
            factorial = 1.0
            for k in range(1, cap + 1):
                first_source, views = reads[k - 1]
                for zero in zeroed:
                    zero.fill(0.0)
                np.multiply(first_weight, first_source, out=first_target)
                for weight, (source, product, target) in zip(rest, views):
                    np.multiply(weight, source, out=product)
                    np.add(target, product, out=target)
                term = terms[k]
                np.conjugate(m_transposed, out=term)
                np.add(term, m, out=term)
                # the size of t_k; a non-finite one fails the test, so the
                # cap catches it
                factorial *= k
                size = np.vdot(term, term).real / factorial**2
                if size <= limit and previous <= limit:
                    break
                previous = size
            else:
                raise SeriesDivergence(
                    f"Taylor series of exp(hL) not converged in {cap} terms at t={start * dt:.6g}"
                )
            passes += k
            # rho at each read-off point s is sum_j (s/h)^j / j! u_j, j <= k,
            # in products of at most k + 1 points; the last point is the end
            # of the series, which Hermitized becomes the next one's t_0
            for first in range(0, len(offsets), k + 1):
                chunk = coefficients[first:first + k + 1, :k + 1]
                np.matmul(chunk, terms_real[:k + 1], out=readoff_real[:len(chunk)])
                for index, value in enumerate(readoff[:len(chunk)], start=first):
                    target = terms[0] if index == len(offsets) - 1 else sample
                    np.conjugate(value.T, out=target)
                    np.add(target, value, out=target)
                    target *= 0.5
                    if part == parts - 1:
                        sampled += 1
                        record(times[sampled], target, last=sampled == len(steps))

    rho = terms[0].copy()
    final = DensityMatrix._spectrum_checked(OperatorMatrix(rho, rho0.basis))  # record checked it
    return EvolveResult(
        final=final,
        times=times,
        expectations={name: np.array(values) for name, values in samples.items()},
        max_trace_deviation=float(max_trace_dev),
        max_hermiticity_deviation=float(np.max(np.abs(rho - rho.conj().T))),
        min_eigenvalue=float(min_eig_seen),
        min_eigenvalue_bound=float(min(min_eig_seen, -2.0 * max_shift) if max_shift else min_eig_seen),
        top_level_population=top_population,
        stencil_passes=passes,
    )


def _spans(steps: list[int], dt: float, norm: float) -> list[tuple[int, int, tuple[int, ...], int]]:
    """The Taylor series of evolve, in order, as (length, parts, offsets,
    start): `parts` series of h = length dt / parts each cover the steps
    from `start` on, and the last reads off the samples `offsets` steps past
    `start`, the last of them at `length`.  Successive sample intervals
    share one series while their whole span keeps h ||L||_1 <= SUBSTEP_NORM;
    an interval longer than that is split into the fewest equal substeps
    within the bound.  A bound that is not finite raises PositivityViolation."""
    spans = []
    for prev, stop in zip((0, *steps), steps):
        beta = (stop - prev) * dt * norm
        if not math.isfinite(beta):
            raise PositivityViolation(f"non-finite generator: 1-norm bound {norm:.3e}")
        if spans and spans[-1][1] == 1 and (stop - spans[-1][3]) * dt * norm <= SUBSTEP_NORM:
            span = spans[-1]
            span[0] = stop - span[3]
            span[2].append(span[0])
        else:
            spans.append([stop - prev, max(1, math.ceil(beta / SUBSTEP_NORM)), [stop - prev], prev])
    return [(length, parts, tuple(offsets), start) for length, parts, offsets, start in spans]


def _degree_cap(b: float, dim: int) -> int:
    """Degree by which a substep with h ||L||_1 = b must meet the stopping
    test: the smallest k with k - 1 >= b and dim b^(k-1) / (k-1)! <= the
    unit roundoff.  Term t_j is at most b^j / j! times rho in the entry-wise
    1-norm, which is at most dim times the Frobenius norm, and the bound
    falls from j = k - 1 on, so t_(k-1) and t_k both pass."""
    degree, bound = 1, b  # bound = b^degree / degree!
    while not (degree >= b and dim * bound <= UNIT_ROUNDOFF):
        degree += 1
        bound *= b / degree
    return degree + 1


def _sectors(model: LindbladModel) -> tuple[list[np.ndarray], np.ndarray]:
    """Column-stacked positions of each sector of the vectorized generator,
    and the index of the sector of each position.

    A sector is a connected component of the generator's sparsity pattern,
    read from the non-zero weights of L's stencil (LindbladModel._generator);
    the generator is block diagonal over the sectors.  Positions are
    ascending within a sector and sectors are ordered by their first
    position.  A number-covariant model such as the limit cycle splits
    into the 2 dim - 1 diagonals i - j = s of rho.  A model whose H moves
    the basis index by even amounts only, and each of whose channels moves
    it by amounts of one parity, splits at least into i - j even and i - j
    odd: the oscillator, and the spin rotator model at delta = 0.  A
    symmetry shows only when the basis makes it visible in the sparsity
    pattern.  Since the generator maps rho+ to L(rho)+, the transposed
    positions (i, j) -> (j, i) of a sector form one sector, its mirror.
    """
    d = model.dim
    shifts, weights = model._generator
    which, rows = np.nonzero(weights)
    stacked = np.arange(d * d).reshape(d, d).T.ravel()  # row-major flat (i, j) -> i + d j
    src, dst = stacked[rows + shifts[which]], stacked[rows]
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
    (i + dim j for rho_ij), e.g. one sector of the generator.  Entries are

        L[(k,l),(i,j)] = K_ki d_lj + d_ki conj(K_lj) + 2 sum_m (R_m)_ki conj((R_m)_lj)

    with K = -i H - sum_m R_m+ R_m the effective Hamiltonian and d the
    Kronecker delta.  They are read off L's stencil
    (LindbladModel._generator): float64 when all are real, else complex.
    """
    d = model.dim
    shifts, weights = model._generator
    positions = np.arange(d * d) if positions is None else np.asarray(positions)
    flat = positions % d * d + positions // d  # the row-major flat index of each position
    index = np.full(d * d, -1)
    index[flat] = np.arange(len(flat))  # the block row of each flat position, -1 outside
    which, row = np.nonzero(weights[:, flat])
    col = index[flat[row] + shifts[which]]
    inside = col >= 0
    out = np.zeros((len(flat), len(flat)), dtype=weights.dtype)
    out[row[inside], col[inside]] = weights[which[inside], flat[row[inside]]]
    return out


def _stationary_blocks(model: LindbladModel):
    """The blocks stationary solves, each as (block, count, positions,
    diagonal, lift): the generator on the sector at positions, or on one
    half of it; the number of sectors whose singular values it stands for;
    the rows of block that belong to diagonal positions of rho; and lift,
    which maps a vector x of the block to the values at positions of the
    sector vector it stands for.

    One liouvillian_matrix block stands for each mirror pair of sectors.
    When every entry of L is real, it is float64, and a self-mirror sector
    gives its symmetric and its antisymmetric half (see stationary), with
    the rows and columns of each pair (p, mirror p) combined.  The
    symmetric half orders the diagonal positions first, then the pairs.
    """
    d = model.dim
    sectors, sector_of = _sectors(model)
    for k, positions in enumerate(sectors):
        cols, rows = np.divmod(positions, d)
        mirrored = rows * d + cols
        mirror = sector_of[mirrored[0]]
        if mirror < k:
            continue
        block = liouvillian_matrix(model, positions)
        diagonal = np.flatnonzero(rows == cols)
        if mirror != k or block.dtype != np.float64:
            yield block, (1 if mirror == k else 2), positions, diagonal, np.copy
            continue
        partner = np.searchsorted(positions, mirrored)  # the index of each position's mirror
        first = np.flatnonzero(partner > np.arange(len(positions)))
        second = partner[first]
        r = math.sqrt(0.5)
        plus = np.concatenate([block[diagonal], r * (block[first] + block[second])])
        symmetric = np.concatenate([plus[:, diagonal], r * (plus[:, first] + plus[:, second])], axis=1)

        def lift(x, diagonal=diagonal, first=first, second=second):
            values = np.empty(len(diagonal) + 2 * len(first))
            values[diagonal] = x[:len(diagonal)]
            values[first] = values[second] = r * x[len(diagonal):]
            return values

        yield symmetric, 1, positions, np.arange(len(diagonal)), lift
        if first.size:
            minus = r * (block[first] - block[second])
            yield r * (minus[:, first] - minus[:, second]), 1, positions, np.arange(0), None


@blas_threads(1)
def stationary(model: LindbladModel, null_tol: float = NULL_TOL, pos_tol: float = POSITIVITY_TOL) -> DensityMatrix:
    """Unique stationary state from the null space of the vectorized generator.

    The generator is solved per block of its sectors (_sectors,
    _stationary_blocks).  Since tr L(rho) = 0, the trace functional is a
    left null vector of every block that holds diagonal positions of rho;
    replacing one of its diagonal rows by the trace functional gives a
    bordered block B whose solution with unit right-hand side in that row
    is the unit-trace null vector.  A rank-one change moves each singular
    value at most one place, so sigma_2(block) >= sigma_min(B) >=
    1 / ||B^-1||_F; a block without diagonal positions bounds sigma_min of
    itself the same way.  When exactly one block holds diagonal positions
    and every bound lies above null_tol times the largest singular value
    (bounded above by the largest Frobenius norm of a block), the null
    space is one-dimensional and no SVD is taken.  Otherwise the singular
    values of every block are computed and counted as for one SVD of the
    whole generator: those at or below null_tol relative to the largest
    count as null directions, and a null space of dimension other than one
    raises DegenerateStationaryState with that dimension.  The null vector
    is Hermitized, trace-normalized and validated: a residual above
    RESIDUAL_TOL, or an eigenvalue below -pos_tol (rounding or a broken
    model, as in evolve), raises NumericalFailure.

    One block, one liouvillian_matrix call, is solved per mirror pair of
    sectors.  The block of a sector's mirror is the entrywise conjugate of
    its own after permuting rows and columns alike, so it has the same
    norm, singular values and bound; a sector with diagonal positions is
    its own mirror.  A
    number-covariant model thus takes dim inverses instead of 2 dim - 1.

    When every entry of L is exactly real, L(conj X) = conj L(X), so L
    commutes with X -> conj X and, since it maps X+ to L(X)+, with the
    transpose X -> X^T: every block is real and solved in float64.  A
    self-mirror sector splits further.  In the orthonormal basis {e_ii, (e_ij + e_ji) /
    sqrt 2} of its symmetric and {(e_ij - e_ji) / sqrt 2} of its
    antisymmetric matrices, its block is the direct sum of two real blocks
    of about half its size, each solved as a block of its own.  The
    diagonal positions, the trace row and the null vector lie in the
    symmetric half; the antisymmetric half gives only its bound.  The basis
    is orthonormal, so the two halves' singular values are the sector's
    and each half's bound is one of its own.

    A null_tol outside (0, 1), or a pos_tol that is not a finite positive
    number, raises ValueError.  The solve runs on one thread of numpy's
    OpenBLAS (see the module notes), so its result does not depend on the
    machine's core count.
    """
    if not 0.0 < null_tol < 1.0:
        raise ValueError(f"null_tol must lie in (0, 1), got {null_tol!r}")
    _check_pos_tol(pos_tol)
    d = model.dim
    norm_bound = 0.0  # largest ||block||_F, at least the largest singular value
    gap_bounds = []  # per block, 1 / ||B^-1||_F, or 0.0 where B is singular
    traced = []  # (positions, null vector) of each block with diagonal positions
    for block, _count, positions, diagonal, lift in _stationary_blocks(model):
        norm_bound = max(norm_bound, float(np.linalg.norm(block)))
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
            traced.append((positions, lift(inverse[:, row])))

    threshold = null_tol * (norm_bound if norm_bound > 0 else 1.0)
    if len(traced) != 1 or not all(bound > threshold for bound in gap_bounds):
        values = [
            (np.linalg.svd(block, compute_uv=False), count)
            for block, count, *_rest in _stationary_blocks(model)
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
    if residual > RESIDUAL_TOL:
        raise NumericalFailure(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    min_eig = float(np.linalg.eigvalsh(candidate).min())
    if min_eig < -pos_tol:
        raise NumericalFailure(
            f"stationary state has eigenvalue {min_eig:.3e}: rounding beyond pos_tol {pos_tol:.1e} or a broken model"
        )
    return DensityMatrix._spectrum_checked(OperatorMatrix(candidate, model.h.basis))


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
    for r in model._channel_mats:
        out += 2.0 * (r.conj().T @ a @ r)
    return OperatorMatrix(out, observable.basis if observable.basis == model.h.basis else None)


def adjoint_rate(
    observable: OperatorMatrix,
    model: LindbladModel,
    rho: DensityMatrix | OperatorMatrix,
) -> complex:
    """d<A>/dt for the given state; equals tr(A * lindblad_rhs(rho))."""
    return expectation(rho, adjoint_generator(observable, model))
