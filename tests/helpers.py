"""Shared test utilities: seeded random inputs with exact arithmetic, and
independent oracles for closed forms computed by the library."""

import csv
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import expm

from semiq import DegenerateStationaryState, DensityMatrix, NumericalFailure, OperatorMatrix, Polynomial
from semiq.lindblad import NULL_TOL, POSITIVITY_TOL, RESIDUAL_TOL, _apply_stencil, _sectors, liouvillian_matrix
from semiq.models import MomentState, SpinPolynomial


def random_polynomial(rng, mode_count, max_degree, n_terms=6, integer=True):
    """Random polynomial; integer (Gaussian-integer) coefficients keep the
    bracket algebra exact in double precision."""
    terms = {}
    for _ in range(n_terms):
        while True:
            key = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=2 * mode_count))
            if sum(key) <= max_degree:
                break
        if integer:
            coeff = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        else:
            coeff = complex(rng.standard_normal(), rng.standard_normal())
        if coeff != 0:
            terms[key] = terms.get(key, 0) + coeff
    return Polynomial(mode_count, {k: c for k, c in terms.items() if c != 0})


def magnitude_polynomial(poly):
    """The polynomial with every coefficient replaced by its modulus.  At the
    moduli of a point it gives the sum of the absolute term values, the
    scale that rounding errors of an evaluation are measured against."""
    return Polynomial(poly.mode_count, {key: abs(coeff) for key, coeff in poly.terms.items()})


def evaluate_by_terms(poly, coords):
    """Oracle for the compiled evaluator: the term-map loop at one point,
    numpy coordinates, z* factors from the conjugate coordinate."""
    zs = np.asarray(coords, dtype=complex)
    zcs = zs.conjugate()
    total = 0j
    for key, coeff in poly.terms.items():
        value = coeff
        for a in range(poly.mode_count):
            k = key[2 * a]
            l = key[2 * a + 1]
            if k:
                value *= zs[a] ** k
            if l:
                value *= zcs[a] ** l
        total += value
    return total


def compile_terms(terms):
    """Oracle form for the generated evaluator: one (coefficient,
    ((variable, exponent), ...)) pair per term, non-zero exponents only,
    variables numbered by their position in the key."""
    return tuple(
        (coeff, tuple((var, exponent) for var, exponent in enumerate(key) if exponent))
        for key, coeff in terms.items()
    )


def evaluate_compiled(compiled, columns):
    """Oracle for the generated evaluator: the term loop over the pairs of
    compile_terms, columns[v] the value of variable v.  Factors multiply in
    variable order, then the terms add in order, from 0j."""
    total = 0j
    for coeff, factors in compiled:
        value = coeff
        for var, exponent in factors:
            value *= columns[var] ** exponent
        total += value
    return total


def rk4_step_by_components(field, t, y, h):
    """Oracle for the generated RK4 step of integrate: each stage maps its
    expression over the components of tuple states, y + c k and then
    (2 k2 + k1 + 2 k3 + k4)(h/6) + y."""
    half = 0.5 * h
    sixth = h / 6.0
    k1 = field(t, y)
    k2 = field(t + half, tuple(map(lambda y, k: y + half * k, y, k1)))
    k3 = field(t + half, tuple(map(lambda y, k: y + half * k, y, k2)))
    k4 = field(t + h, tuple(map(lambda y, k: y + h * k, y, k3)))
    return tuple(map(
        lambda y, k1, k2, k3, k4: (2.0 * k2 + k1 + 2.0 * k3 + k4) * sixth + y,
        y, k1, k2, k3, k4,
    ))


def rk4_path_by_components(field, y0, n_steps, dt):
    """Oracle path: y0 and the state after each of n_steps oracle steps."""
    states = [y0]
    for step in range(n_steps):
        states.append(rk4_step_by_components(field, step * dt, states[-1], dt))
    return states


def verify_faq_by_point(system, field, samples):
    """Oracle for verify_faq's max_abs_error: one sample point at a time,
    the drift from evaluate_by_terms and the field called on one point."""
    worst = 0.0
    for row in np.asarray(samples, dtype=complex):
        velocity = np.array([evaluate_by_terms(poly, row) for poly in system.drift_polynomials])
        worst = max(worst, float(np.max(np.abs(velocity - np.asarray(field(row), dtype=complex)))))
    return worst


def divergence_by_partials(system, coords):
    """Oracle for phase_divergence: the sum over channels R and modes a of
    2 (|dR/dz*_a|^2 - |dR/dz_a|^2), each partial evaluated at the point."""
    total = 0.0
    for channel in system.channels:
        for mode in range(system.mode_count):
            d_conj = channel.partial(mode, "zc").evaluate(coords)
            d_plain = channel.partial(mode, "z").evaluate(coords)
            total += 2.0 * (abs(d_conj) ** 2 - abs(d_plain) ** 2)
    return total


def random_spin_polynomial(rng, max_degree, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        key = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=3))
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return SpinPolynomial(terms)


def spin_evaluate_by_terms(poly, l):
    """Oracle for SpinPolynomial.evaluate: the term-map loop."""
    lx, ly, lz = l
    total = 0j
    for (i, j, k), coeff in poly.terms.items():
        total += coeff * lx**i * ly**j * lz**k
    return total


def weyl_word_average(poly, space):
    """Oracle for Weyl ordering: each monomial z^k z*^l of a mode becomes
    the average of all C(k+l, k) interleavings of k truncated annihilators
    and l creators, and the modes combine by Kronecker products.  Exact on
    the safe subspace only: the top rungs see the truncated a a+."""
    total = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for key, coeff in poly.terms.items():
        factor = np.array([[coeff]], dtype=complex)
        for mode, dim in enumerate(space.mode_dims):
            k, l = key[2 * mode], key[2 * mode + 1]
            a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
            accum = np.zeros((dim, dim), dtype=complex)
            for positions in combinations(range(k + l), k):
                word = np.eye(dim, dtype=complex)
                for slot in range(k + l):
                    word = word @ (a if slot in positions else a.conj().T)
                accum += word
            factor = np.kron(factor, accum / comb(k + l, k))
        total += factor
    return total


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OperatorMatrix(scale * (g + g.conj().T) / 2.0)


def random_operator(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return OperatorMatrix(scale * g)


def random_density_operator(rng, dim):
    """Positive unit-trace matrix as a plain OperatorMatrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return OperatorMatrix(rho / np.trace(rho).real)


def random_density(rng, dim):
    return DensityMatrix(random_density_operator(rng, dim))


def _closure_equations(m: np.ndarray, casimir: float) -> np.ndarray:
    """Stationary cumulant-closed moment system at delta = 0.

    Unknowns m = (lx, ly, lz, lx2, ly2, lz2, sym_xy); pair moments
    <lx ly> = <ly lx> = sym_xy / 2.
    """
    lx, ly, lz, lx2, ly2, lz2, sym = m
    xy = sym / 2.0
    return np.array([
        lz,
        xy + ly / 4.0,
        ly2 - lx / 2.0,
        lx2 - lz2,
        4.0 * (2.0 * ly * xy + lx * ly2 - 2.0 * lx * ly * ly) + (ly2 - lx2),
        8.0 * (3.0 * ly2 * ly - 2.0 * ly**3)
        - 8.0 * (2.0 * xy * lx + ly * lx2 - 2.0 * ly * lx * lx)
        - 10.0 * xy
        - ly,
        lx2 + ly2 + lz2 - casimir,
    ])


def newton_closure(n_excitations: float) -> MomentState:
    """Oracle for models.closure_stationary: a damped Newton solve of the
    full cumulant-closed moment system at delta = 0, with no use of its
    closed-form quadratic reduction."""
    n = float(n_excitations)
    half = n / 2.0
    casimir = half * (half + 1.0)
    x0 = n / 8.0
    m = np.array([2.0 * x0, 0.0, 0.0, (casimir - x0) / 2.0, x0, (casimir - x0) / 2.0, 0.0])
    residual = _closure_equations(m, casimir)
    for _ in range(200):
        norm = np.max(np.abs(residual))
        if norm <= 1e-13 * max(1.0, casimir):
            return MomentState(lx=m[0], ly=m[1], lz=m[2], lx2=m[3], ly2=m[4], lz2=m[5], sym_xy=m[6])
        jac = np.zeros((7, 7))
        for j in range(7):
            h = 1e-7 * max(1.0, abs(m[j]))
            up = m.copy()
            up[j] += h
            down = m.copy()
            down[j] -= h
            jac[:, j] = (_closure_equations(up, casimir) - _closure_equations(down, casimir)) / (2.0 * h)
        step = np.linalg.solve(jac, -residual)
        damping = 1.0
        for _ in range(30):
            trial = m + damping * step
            trial_residual = _closure_equations(trial, casimir)
            if np.max(np.abs(trial_residual)) < norm:
                m, residual = trial, trial_residual
                break
            damping /= 2.0
        else:
            raise RuntimeError("closure Newton iteration stalled")
    raise RuntimeError("closure Newton iteration did not converge")


def commutator_rhs(model, rho):
    """Oracle for the generator: the commutators expanded,
    -i [H, rho] + sum_j (2 R_j rho R_j+ - R_j+ R_j rho - rho R_j+ R_j),
    with no use of the effective Hamiltonian."""
    h = model.h.mat
    out = -1j * (h @ rho - rho @ h)
    for channel in model.channels:
        r = channel.mat
        r_dag = r.conj().T
        rdr = r_dag @ r
        out += 2.0 * (r @ rho @ r_dag) - rdr @ rho - rho @ rdr
    return out


def hermitian_rhs(model, rho):
    """The Hermitian form of the generator, M + M+ with
    M = K rho + sum_j R_j rho R_j+, from the stencil evolve runs.  It equals
    the generator on a Hermitian rho and is exactly Hermitian."""
    m = _apply_stencil(model._stencil, rho)
    return m + m.conj().T


def expm_samples(generator, positions, rho0, taus):
    """Oracle for evolve's samples: rho0, then each state exp(tau L) of the
    one before, for tau in taus, by scipy's expm of the generator's blocks.
    generator(positions) is the block of L at the given column-stacked
    positions of rho, as kron_liouvillian(model)[np.ix_(positions, positions)]
    gives it; positions is a list of index arrays over which L is block diagonal."""
    d = rho0.shape[0]
    propagators = {
        tau: [expm(tau * generator(block)) for block in positions] for tau in set(taus)
    }
    vec = rho0.ravel(order="F").copy()
    states = [rho0]
    for tau in taus:
        for block, propagator in zip(positions, propagators[tau]):
            vec[block] = propagator @ vec[block]
        states.append(vec.reshape((d, d), order="F").copy())
    return states


def kron_liouvillian(model):
    """Oracle for lindblad.liouvillian_matrix: the dim^2 x dim^2 generator on
    column-stacked matrices from Kronecker products of the model's
    operators, I (x) K + conj(K) (x) I + 2 sum_j conj(R_j) (x) R_j with
    K = -i H - sum_j R_j+ R_j, always complex."""
    eye = np.eye(model.dim)
    k = -1j * model.h.mat
    for r in model.channels:
        k = k - r.mat.conj().T @ r.mat
    out = np.kron(eye, k) + np.kron(k.conj(), eye)
    for r in model.channels:
        out += 2.0 * np.kron(r.mat.conj(), r.mat)
    return out


def svd_stationary(model, null_tol=NULL_TOL, pos_tol=POSITIVITY_TOL):
    """Oracle for lindblad.stationary: one full SVD of the whole dim^2 x dim^2
    generator, with no use of its sectors.  Same null-space rule and checks."""
    d = model.dim
    _u, s, vh = np.linalg.svd(kron_liouvillian(model))
    scale = s[0] if s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= null_tol * scale))
    if null_dim != 1:
        raise DegenerateStationaryState(null_dim)
    candidate = vh[-1].conj().reshape((d, d), order="F")
    candidate = (candidate + candidate.conj().T) / 2.0
    trace = np.trace(candidate).real
    if abs(trace) < 1e-14:
        raise NumericalFailure("stationary candidate has (near) zero trace")
    candidate = candidate / trace

    residual = float(np.max(np.abs(commutator_rhs(model, candidate))))
    if residual > RESIDUAL_TOL:
        raise NumericalFailure(
            f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(candidate).min())
    if min_eig < -pos_tol:
        raise NumericalFailure(
            f"stationary state has eigenvalue {min_eig:.3e}: rounding beyond pos_tol {pos_tol:.1e} or a broken model"
        )
    return DensityMatrix(
        OperatorMatrix(candidate, model.h.basis), pos_tol=pos_tol
    )


def liouvillian_sectors(model):
    """Column-stacked positions of each sector of the vectorized generator,
    ascending within a sector, sectors ordered by their first position; the
    generator is block diagonal over them (see lindblad._sectors)."""
    return _sectors(model)[0]


def complex_block_stationary(model, null_tol=NULL_TOL):
    """Oracle for lindblad.stationary: one complex block per mirror pair of
    sectors, whatever the generator, with stationary's bordered inverse, gap
    bounds and singular-value count.  Returns the Hermitized, unit-trace
    null vector as a matrix."""
    d = model.dim
    sectors, sector_of = _sectors(model)
    solved = []
    for k, positions in enumerate(sectors):
        cols, rows = np.divmod(positions, d)
        mirror = sector_of[rows[0] * d + cols[0]]
        if mirror >= k:
            solved.append((positions, 1 if mirror == k else 2))
    norm_bound = 0.0
    gap_bounds = []
    traced = []
    for positions, _count in solved:
        block = liouvillian_matrix(model, positions).astype(complex)
        norm_bound = max(norm_bound, float(np.linalg.norm(block)))
        diagonal = np.flatnonzero(positions % (d + 1) == 0)
        if diagonal.size:
            block[diagonal[0]] = 0.0
            block[diagonal[0], diagonal] = 1.0
        try:
            inverse = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            gap_bounds.append(0.0)
            continue
        gap_bounds.append(1.0 / float(np.linalg.norm(inverse)))
        if diagonal.size:
            traced.append((positions, inverse[:, diagonal[0]]))
    threshold = null_tol * (norm_bound if norm_bound > 0 else 1.0)
    if len(traced) != 1 or not all(bound > threshold for bound in gap_bounds):
        values = [
            (np.linalg.svd(liouvillian_matrix(model, positions).astype(complex), compute_uv=False), count)
            for positions, count in solved
        ]
        scale = max(s[0] for s, _count in values)
        scale = scale if scale > 0 else 1.0
        null_dim = sum(count * int(np.sum(s <= null_tol * scale)) for s, count in values)
        if null_dim != 1:
            raise DegenerateStationaryState(null_dim)
    positions, null = traced[0]
    vector = np.zeros(d * d, dtype=complex)
    vector[positions] = null
    candidate = vector.reshape((d, d), order="F")
    candidate = (candidate + candidate.conj().T) / 2.0
    return candidate / np.trace(candidate).real


def format_cell(cell) -> str:
    """Oracle for the CSV writer's formatters, one cell at a time."""
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return f"{cell:.17g}"
    if isinstance(cell, complex):
        return f"{cell.real:.17g}{'+' if cell.imag >= 0 else '-'}{abs(cell.imag):.17g}i"
    return str(cell)


def write_csv_by_cell(path, header, rows):
    """Oracle for _csv.write_csv: the table row by row, formatted by format_cell."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])
