import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    commutator_rhs,
    expm_samples,
    hermitian_rhs,
    random_density,
    random_density_operator,
    random_hermitian,
    random_operator,
    svd_stationary,
)
from semiq import (
    DegenerateStationaryState,
    DensityMatrix,
    FockSpace,
    LindbladModel,
    OperatorMatrix,
    PositivityViolation,
    SeriesDivergence,
    adjoint_generator,
    adjoint_rate,
    annihilation,
    creation,
    evolve,
    expectation,
    lindblad_rhs,
    liouvillian_matrix,
    liouvillian_sectors,
    number,
    stationary,
)
from semiq import _blas, lindblad
from semiq.models import (
    LimitCycleParams,
    OscillatorParams,
    RotatorParams,
    limit_cycle_lindblad,
    oscillator_lindblad,
    quantized_lindblad,
    recurrence_stationary,
    closure_vs_exact_report,
    rotator_faq,
    rotator_spin_model,
    rotator_spin_operators,
)


REPO = Path(__file__).resolve().parent.parent


def decay_model(dim):
    return LindbladModel(OperatorMatrix(np.zeros((dim, dim))), (annihilation(dim),))


# -- generator ---------------------------------------------------------------


def test_rhs_without_channels_is_commutator():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 6)
    model = LindbladModel(h)
    rho = random_density_operator(rng, 6)
    expected = -1j * (h.mat @ rho.mat - rho.mat @ h.mat)
    assert np.max(np.abs(lindblad_rhs(model, rho).mat - expected)) <= 1e-13


def test_rhs_single_quantum_decay():
    model = decay_model(4)
    rho = DensityMatrix.fock_state(4, 1)
    out = lindblad_rhs(model, rho).mat
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 2.0
    expected[1, 1] = -2.0
    assert np.max(np.abs(out - expected)) == 0.0


def test_rhs_is_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(32)
    model = limit_cycle_lindblad(LimitCycleParams(1.0, 0.7, 0.4), 8)
    for _ in range(100):
        rho = random_hermitian(rng, 8)
        out = lindblad_rhs(model, rho).mat
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def rotators_fock_model(mode_dims):
    """The normal-quantized coupled rotators on unequal mode sizes: shifts of
    the flat view cross row boundaries."""
    return quantized_lindblad(rotator_faq(RotatorParams(1.0, 0.8, 0.3, l=4)), FockSpace(mode_dims))


def two_channel_model(dim):
    rng = np.random.default_rng(34)
    return LindbladModel(
        random_hermitian(rng, dim), (random_operator(rng, dim, 0.5), random_operator(rng, dim, 0.3))
    )


RHS_CASES = {
    "oscillator-d40": lambda: oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 40),
    "oscillator-d80": lambda: oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 80),
    "limit-cycle-d30": lambda: limit_cycle_lindblad(LimitCycleParams(1.0, 0.7, 0.4), 30),
    "spin-l4": lambda: rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=4)),
    "rotators-fock-4x5": lambda: rotators_fock_model((4, 5)),
    # dense: corner entries put different (row, column) shifts on one flat shift
    "random-two-channel-d12": lambda: two_channel_model(12),
}


@pytest.mark.parametrize("case", sorted(RHS_CASES))
def test_rhs_forms_match_commutator_oracle(case):
    model = RHS_CASES[case]()
    rng = np.random.default_rng(35)
    for _ in range(3):
        rho = random_density_operator(rng, model.dim).mat
        expected = commutator_rhs(model, rho)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(model._rhs_mat(rho) - expected)) <= 1e-12 * scale
        assert np.max(np.abs(hermitian_rhs(model, rho) - expected)) <= 1e-12 * scale
        # on an exactly Hermitian input, M(X) + M(X+)+ is the one-pass form
        # evolve runs, bit for bit, and so exactly Hermitian
        exact = (rho + rho.conj().T) / 2.0
        out = lindblad_rhs(model, OperatorMatrix(exact)).mat
        assert np.max(np.abs(out - out.conj().T)) == 0.0
        assert np.array_equal(out, hermitian_rhs(model, exact))
        # the generator stays linear off the Hermitian operators
        op = random_operator(rng, model.dim).mat
        expected = commutator_rhs(model, op)
        assert np.max(np.abs(model._rhs_mat(op) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(decay_model(4), DensityMatrix.fock_state(5, 0))


# -- evolution ----------------------------------------------------------------


def test_unitary_evolution_conserves_purity():
    rho0 = DensityMatrix.coherent_state(8, 0.9)
    model = LindbladModel(number(8))
    result = evolve(model, rho0, 5.0, 1e-3)
    assert abs(result.final.purity() - rho0.purity()) <= 1e-8
    assert result.max_trace_deviation <= 1e-8
    assert result.max_hermiticity_deviation <= 1e-10
    assert result.min_eigenvalue >= -1e-8


def check_screened_samples_hermitian(monkeypatch):
    """Run the oscillator with np.linalg.cholesky wrapped: every screened
    matrix, rho + sigma I at each sample but the last, must equal its
    conjugate transpose, and so must the final state."""
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 20)
    cholesky = np.linalg.cholesky
    screened = []

    def checked(mat):
        screened.append(np.array_equal(mat, mat.conj().T))
        return cholesky(mat)

    monkeypatch.setattr(np.linalg, "cholesky", checked)
    result = evolve(model, DensityMatrix.coherent_state(20, 1.5 + 0.5j), 2.5, 1e-3, sample_every=50)
    assert len(result.times) == 2500 // 50 + 1
    assert len(screened) == len(result.times) - 1 and all(screened)
    assert result.max_hermiticity_deviation == 0.0
    assert result.max_trace_deviation <= 1e-12


def test_evolve_stays_exactly_hermitian(monkeypatch):
    """Every sample of the oscillator run is Hermitian to the last bit, as
    each Cholesky screen sees it; a right-hand side that lets rounding feed
    the anti-Hermitian part fails."""
    check_screened_samples_hermitian(monkeypatch)


def test_evolve_hermitizes_each_read_off(monkeypatch):
    """The samples stay exactly Hermitian when the read-off product rounds
    the entries (0, 1) and (1, 0) differently, as a BLAS kernel may; a
    read-off left unsymmetrized fails."""
    matmul = np.matmul

    def skewed_matmul(a, b, out):
        matmul(a, b, out=out)
        out[:, 2] *= 1.0 + 2.0**-52  # the real part of entry (0, 1)
        return out

    monkeypatch.setattr(np, "matmul", skewed_matmul)
    check_screened_samples_hermitian(monkeypatch)


def evolve_against_oracle(model, rho0, t_end, sample_every, observables, generator, positions):
    """evolve's samples and final state against expm_samples over the same
    intervals: sample_every steps of 1e-3 each, and the steps left at the
    end.  Returns the largest deviation of any sampled expectation and of
    the final matrix, and the result."""
    n_steps = round(t_end / 1e-3)
    steps = [sample_every] * (n_steps // sample_every) + [n_steps % sample_every] * (n_steps % sample_every > 0)
    result = evolve(model, rho0, t_end, 1e-3, observables=observables, sample_every=sample_every)
    states = expm_samples(generator, positions, rho0.mat, [count * 1e-3 for count in steps])
    assert len(result.times) == len(states)
    deviation = max(
        np.max(np.abs(result.expectations[name] - [np.trace(state @ op.mat) for state in states]))
        for name, op in observables.items()
    )
    return max(deviation, np.max(np.abs(result.final.mat - states[-1]))), result


EXPM_CASES = {
    # (model, rho0, t_end, sample_every); tau ||L||_1 is 0.95, 2.0 (the
    # last interval half as long), 4.15, 8.4 (two substeps a sample), 65
    # (thirteen), and 0.10 and 0.17, where 49 and 29 samples share one
    # series and the last interval is shorter
    "oscillator-d10": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.0), 10), DensityMatrix.coherent_state(10, 1.0 + 0.5j), 2.0, 100
    ),
    "oscillator-d20": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.0), 20), DensityMatrix.coherent_state(20, 1.5), 2.05, 100
    ),
    "oscillator-d40": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.0), 40), DensityMatrix.coherent_state(40, 2.0 + 0.5j), 2.0, 100
    ),
    "oscillator-u0.2": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 40), random_density(rng, 40), 2.0, 200
    ),
    "limit-cycle": lambda rng: (
        limit_cycle_lindblad(LimitCycleParams(1.0, 0.7, 0.4), 30), random_density(rng, 30), 1.0, 50
    ),
    "shared-oscillator-d20": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.0), 20), DensityMatrix.coherent_state(20, 1.5), 0.503, 5
    ),
    "shared-oscillator-u0.2": lambda rng: (
        oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 40), random_density(rng, 40), 0.302, 4
    ),
}


@pytest.mark.parametrize("case", sorted(EXPM_CASES))
def test_evolve_matches_expm_oracle(case):
    """Every sample is exp(tau L) of the one before, to 1e-12, and exactly
    Hermitian; the oracle exponentiates each sector block of
    liouvillian_matrix with scipy."""
    model, rho0, t_end, sample_every = EXPM_CASES[case](np.random.default_rng(36))
    d = model.dim
    deviation, result = evolve_against_oracle(
        model, rho0, t_end, sample_every, {"a": annihilation(d), "n": number(d)},
        lambda positions: liouvillian_matrix(model, positions), liouvillian_sectors(model),
    )
    if case.startswith("shared"):  # at least 20 samples a series, and a shorter last interval
        assert 20 * sample_every * 1e-3 * model._norm <= lindblad.SUBSTEP_NORM
        assert round(t_end / 1e-3) % sample_every
    assert deviation <= 1e-12
    assert result.max_hermiticity_deviation == 0.0
    assert np.array_equal(result.final.mat, result.final.mat.conj().T)


def test_zero_generator_keeps_every_sample():
    """With ||L||_1 = 0 one series covers the whole run, and every sample is
    rho0 to the last bit: the expectation of each matrix unit E_ji reads
    the entry rho_ij exactly."""
    d = 3
    rho0 = random_density(np.random.default_rng(38), d)
    model = LindbladModel(OperatorMatrix(np.zeros((d, d))))
    units = {}
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[j, i] = 1.0
            units[i, j] = OperatorMatrix(unit)
    result = evolve(model, rho0, 1.0, 0.01, observables=units, sample_every=3)
    start = (rho0.mat + rho0.mat.conj().T) / 2.0
    assert model._norm == 0.0 and len(result.times) == 35
    assert result.stencil_passes == 2
    for (i, j), values in result.expectations.items():
        assert np.all(values == start[i, j])
    assert np.array_equal(result.final.mat, start)


@pytest.mark.parametrize("norm", [np.inf, np.nan])
def test_non_finite_norm_raises_before_any_series(monkeypatch, norm):
    """A 1-norm bound that is not finite is named before any series or
    screen runs: neither takes the np.vdot that each starts with."""
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), 10)
    monkeypatch.setitem(model.__dict__, "_norm", norm)
    vdot = np.vdot
    calls = []
    monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(a.shape) or vdot(a, b))
    with pytest.raises(PositivityViolation, match="non-finite generator"):
        evolve(model, DensityMatrix.coherent_state(10, 1.0), 1.0, 0.1)
    assert calls == []


def test_evolve_matches_commutator_oracle():
    """A dense two-channel generator, every flat shift in its stencil,
    against expm of the generator built column by column from the expanded
    commutators, with no use of the stencil or of liouvillian_matrix.
    tau ||L||_1 is above the substep bound, so a sample takes several
    substeps, and the run ends on a shorter interval."""
    rng = np.random.default_rng(37)
    model = two_channel_model(8)
    d = model.dim
    basis = np.eye(d * d).reshape(d * d, d, d).transpose(0, 2, 1)  # column-stacked units
    dense = np.stack([commutator_rhs(model, unit).ravel(order="F") for unit in basis], axis=1)
    observable = random_hermitian(rng, d)
    deviation, result = evolve_against_oracle(
        model, random_density(rng, d), 1.0, 300, {"x": observable},
        lambda positions: dense[np.ix_(positions, positions)], [np.arange(d * d)],
    )
    assert 0.3 * model._norm > lindblad.SUBSTEP_NORM
    assert deviation <= 1e-12
    assert result.max_hermiticity_deviation == 0.0


@pytest.mark.parametrize("case", sorted(set(RHS_CASES) - {"oscillator-d80"}))
def test_norm_is_liouvillian_one_norm(case):
    """The stencil's 1-norm bound is the largest column sum of |L|."""
    model = RHS_CASES[case]()
    expected = np.abs(liouvillian_matrix(model)).sum(axis=0).max()
    assert abs(model._norm - expected) <= 1e-12 * expected


def test_evolve_pass_counts():
    """The perfbench d = 80 oscillator, sampled every 2 steps, takes at most
    one pass a sample, since about 29 samples share each series; the
    shipped d = 40 run, one series a sample, takes at most the 3 303 passes
    it took with one series per sample interval."""

    def run(path):
        config = json.loads(path.read_text())
        p, n = config["params"], config["numerics"]
        model = oscillator_lindblad(OscillatorParams(p["omega0"], p["lambda"], p["u"]), n["dim"])
        return evolve(model, DensityMatrix.coherent_state(n["dim"], complex(*n["alpha"])), n["t_end"], n["evolve.dt"])

    bench = run(REPO / "perfbench" / "configs" / "oscillator_d80.json")
    assert 0 < bench.stencil_passes <= len(bench.times) - 1
    assert run(REPO / "configs" / "oscillator.json").stencil_passes <= 3303


def test_evolve_time_step_sets_only_the_sample_grid():
    """dt = 0.1 and dt = 0.001 give the same <a> at their shared times."""
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.0), 40)
    rho0 = DensityMatrix.coherent_state(40, 2.0)
    coarse = evolve(model, rho0, 2.0, 0.1, observables={"a": annihilation(40)})
    fine = evolve(model, rho0, 2.0, 0.001, observables={"a": annihilation(40)})
    assert len(coarse.times) == 21 and len(fine.times) == 201
    assert np.allclose(coarse.times, fine.times[::10], rtol=0, atol=1e-12)
    assert np.max(np.abs(coarse.expectations["a"] - fine.expectations["a"][::10])) <= 1e-12


def test_evolve_raises_when_series_misses_degree_cap(monkeypatch):
    """An understated 1-norm bound sets a degree cap that the series cannot
    meet; the substep raises instead of returning a truncated sum."""
    model = decay_model(10)
    monkeypatch.setitem(model.__dict__, "_norm", 1e-6)
    with pytest.raises(SeriesDivergence, match="not converged"):
        evolve(model, DensityMatrix.fock_state(10, 9), 1.0, 0.1)


def test_evolve_reports_top_level_population():
    """The largest population of the last basis state over the samples, as
    the expectation of its projector reads it."""
    dim = 8
    top = np.zeros((dim, dim))
    top[-1, -1] = 1.0
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), dim)
    result = evolve(
        model, DensityMatrix.coherent_state(dim, 2.5), 5.0, 1e-3, observables={"top": OperatorMatrix(top)}
    )
    assert result.top_level_population == np.max(result.expectations["top"].real)
    assert result.top_level_population > 0.1


def check_two_mode_top_level_population(h_basis_given: bool):
    """On two modes, the population of the states with either mode at its
    top level: mode 0 holds a coherent state that reaches its cut while
    mode 1 stays in vacuum, so the last basis state alone holds nothing."""
    space = FockSpace((6, 5))
    levels = np.array([space.occupation(i) for i in range(space.total_dim)])
    h = np.diag(levels.sum(axis=1)).astype(complex)
    model = LindbladModel(OperatorMatrix(h, space if h_basis_given else None))
    amps = DensityMatrix.coherent_state(6, 2.0).mat[:, 0]  # |alpha> up to a positive factor
    rho0 = DensityMatrix.pure_state(np.kron(amps, np.eye(5)[0]), space)
    top = OperatorMatrix(np.diag((levels == [5, 4]).any(axis=1).astype(float)))
    result = evolve(model, rho0, 0.5, 1e-3, observables={"top": top})
    assert abs(result.top_level_population - np.max(result.expectations["top"].real)) <= 1e-15
    assert result.top_level_population > 0.1


def test_evolve_top_level_population_counts_every_mode():
    check_two_mode_top_level_population(h_basis_given=True)


def test_evolve_top_level_states_from_rho0_basis():
    """A model built from bare matrices takes the FockSpace of rho0."""
    check_two_mode_top_level_population(h_basis_given=False)


def test_decay_rate_convention():
    """The unhalved dissipator empties |1> at rate 2: <n>(t) = exp(-2t)."""
    model = decay_model(4)
    result = evolve(model, DensityMatrix.fock_state(4, 1), 3.0, 1e-3, observables={"n": number(4)})
    assert np.max(np.abs(result.expectations["n"].real - np.exp(-2.0 * result.times))) <= 1e-6


def test_evolution_tracks_classical_oscillator():
    """Linear model: <a>(t) follows the classical drift exactly, so a small
    truncated run already matches to high accuracy."""
    dim = 25
    params = OscillatorParams(omega0=1.0, lam=0.1, u=0.0)
    model = oscillator_lindblad(params, dim)
    alpha = 1.5
    result = evolve(
        model,
        DensityMatrix.coherent_state(dim, alpha),
        5.0,
        1e-3,
        observables={"a": annihilation(dim)},
    )

    def field(_t, z):
        return -1j * params.omega0 * z - params.lam * (z - np.conj(z))

    z = np.array([alpha], dtype=complex)
    classical = [z[0]]
    times = result.times
    for i in range(1, len(times)):
        steps = int(round((times[i] - times[i - 1]) / 1e-3))
        for _ in range(steps):
            k1 = field(0, z)
            k2 = field(0, z + 5e-4 * k1)
            k3 = field(0, z + 5e-4 * k2)
            k4 = field(0, z + 1e-3 * k3)
            z = z + (1e-3 / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        classical.append(z[0])
    assert np.max(np.abs(result.expectations["a"] - np.array(classical))) <= 1e-6


def negative_level_state(dim: int, eigenvalue: float) -> DensityMatrix:
    """A valid rho0 (DensityMatrix admits -1e-8) whose top level holds the
    given negative eigenvalue."""
    weights = np.zeros(dim)
    weights[0], weights[-1] = 1.0 - eigenvalue, eigenvalue
    return DensityMatrix(OperatorMatrix(np.diag(weights)))


def test_evolve_aborts_on_instability():
    """The two aborts: an eigenvalue below -pos_tol at a sample, here that
    of a valid rho0, which fails its Cholesky screen and is named by
    eigvalsh, and a generator whose entries overflow."""
    with pytest.raises(PositivityViolation, match=r"eigenvalue -5.000e-09 at t=0: .* pos_tol 1.0e-09"):
        evolve(decay_model(10), negative_level_state(10, -5e-9), 1.0, 0.1, pos_tol=1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        overflowing = LindbladModel(OperatorMatrix(np.zeros((10, 10))), (annihilation(10) * 1e160,))
        with pytest.raises(PositivityViolation, match="non-finite"):
            evolve(overflowing, DensityMatrix.fock_state(10, 9), 1.0, 0.1)


def test_evolve_holds_every_sample_to_pos_tol(monkeypatch):
    """One tolerance bounds every sample.  A Fock state has exact
    eigenvalues, so t = 0 passes a pos_tol of 1e-30; the rounding of the
    first interval then lies below -1e-30, and evolve raises
    PositivityViolation there, never the ValueError of a final check.  At
    the default pos_tol every screen passes, so min_eigenvalue is that of
    the last sample, bit for bit."""
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), 12)
    with pytest.raises(PositivityViolation, match=r"eigenvalue -\S+ at t=0.01:") as caught:
        evolve(model, DensityMatrix.fock_state(12, 1), 2.0, 0.01, pos_tol=1e-30)
    assert "pos_tol 1.0e-30" in str(caught.value)
    rho0 = DensityMatrix.fock_state(12, 1)
    calls = counting_eigvalsh(monkeypatch)
    result = evolve(model, rho0, 2.0, 0.01)
    assert len(calls) == 1
    assert result.min_eigenvalue == np.linalg.eigvalsh(result.final.mat).min()


def counting_eigvalsh(monkeypatch) -> list:
    """Replace np.linalg.eigvalsh with a wrapper that records each call."""
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(mat.shape) or eigvalsh(mat))
    return calls


def test_final_state_is_not_checked_twice(monkeypatch):
    """evolve's last sample and stationary's candidate have had their
    eigenvalues checked at pos_tol; the returned DensityMatrix checks trace
    and Hermiticity but takes no second eigendecomposition.  Every earlier
    sample of this run passes its Cholesky screen, so evolve calls eigvalsh
    once, for its last sample, and stationary once."""
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), 10)
    rho0 = DensityMatrix.coherent_state(10, 1.0)
    calls = counting_eigvalsh(monkeypatch)
    result = evolve(model, rho0, 1.1, 0.1, sample_every=2)
    assert len(result.times) - 1 == 6  # at steps 2, 4, ..., 10 and 11
    assert len(calls) == 1
    calls.clear()
    stationary(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 12))
    assert len(calls) == 1


def test_failed_screen_is_decided_by_eigvalsh(monkeypatch):
    """An eigenvalue of -5e-9 fails the Cholesky screen at t = 0, so that
    sample goes to eigvalsh: it passes the default pos_tol and is reported
    exactly (test_evolve_aborts_on_instability holds it to 1e-9)."""
    rho0 = negative_level_state(10, -5e-9)
    calls = counting_eigvalsh(monkeypatch)
    result = evolve(decay_model(10), rho0, 1.0, 0.1)
    assert len(calls) >= 2  # t = 0 and the last sample
    assert result.min_eigenvalue == pytest.approx(-5e-9, rel=1e-12)
    assert result.min_eigenvalue_bound == result.min_eigenvalue


def test_tight_pos_tol_takes_eigvalsh_at_every_sample(monkeypatch):
    """A pos_tol not above 2 sigma, the most a passed screen certifies, sends
    every sample to eigvalsh, so that run's min_eigenvalue is the minimum
    over all samples.  The screened run gives the same samples, a
    min_eigenvalue no lower, and a bound at most 0 that lies below every
    sample's eigenvalues.  sigma is at least 2 d (d + 1) u / sqrt(d) for a
    unit-trace sample."""
    d = 12
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), d)
    rho0 = DensityMatrix.coherent_state(d, 1.0 + 0.5j)
    tight = 4 * d * (d + 1) * lindblad.UNIT_ROUNDOFF / np.sqrt(d)
    calls = counting_eigvalsh(monkeypatch)
    full = evolve(model, rho0, 2.0, 0.01, sample_every=5, pos_tol=tight)
    assert len(calls) == len(full.times) == 41
    calls.clear()
    screened = evolve(model, rho0, 2.0, 0.01, sample_every=5)
    assert len(calls) == 1
    assert np.array_equal(screened.final.mat, full.final.mat)
    assert screened.min_eigenvalue >= full.min_eigenvalue
    assert screened.min_eigenvalue_bound <= min(0.0, screened.min_eigenvalue, full.min_eigenvalue)
    assert screened.min_eigenvalue_bound >= -4 * d * (d + 1) * lindblad.UNIT_ROUNDOFF * 1.01
    assert full.min_eigenvalue_bound == full.min_eigenvalue


def test_evolve_restores_blas_threads(monkeypatch):
    """evolve screens on one thread of numpy's OpenBLAS and gives the count
    back, whether it returns or raises."""
    calls = _blas._openblas()
    if calls is None:
        pytest.skip("numpy does not call the OpenBLAS of its wheels")
    get, put = calls
    cholesky = np.linalg.cholesky
    threads = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda mat: threads.append(get()) or cholesky(mat))
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), 10)
    before = get()
    try:
        put(2)
        evolve(model, DensityMatrix.coherent_state(10, 1.0), 1.0, 0.1)
        assert get() == 2
        with pytest.raises(PositivityViolation):
            evolve(decay_model(10), negative_level_state(10, -5e-9), 1.0, 0.1, pos_tol=1e-9)
        assert get() == 2
    finally:
        put(before)
    assert threads and set(threads) == {1}


@pytest.mark.parametrize("pos_tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_pos_tol_must_be_finite_and_positive(monkeypatch, pos_tol):
    """A bad pos_tol is a bad argument, named before any eigenvalue is
    taken, not a positivity check switched off or failed at t = 0."""
    rho = DensityMatrix.fock_state(4, 0)
    calls = counting_eigvalsh(monkeypatch)
    with pytest.raises(ValueError, match="pos_tol must be a finite positive number"):
        DensityMatrix(rho.op, pos_tol=pos_tol)
    with pytest.raises(ValueError, match="pos_tol must be a finite positive number"):
        evolve(decay_model(4), rho, 1.0, 0.1, pos_tol=pos_tol)
    with pytest.raises(ValueError, match="pos_tol must be a finite positive number"):
        stationary(decay_model(4), pos_tol=pos_tol)
    assert calls == []


def test_evolve_validates_input():
    with pytest.raises(ValueError):
        evolve(decay_model(4), DensityMatrix.fock_state(4, 0), 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve(decay_model(4), DensityMatrix.fock_state(5, 0), 1.0, 0.1)
    with pytest.raises(ValueError, match="t_end"):
        evolve(decay_model(4), DensityMatrix.fock_state(4, 0), -1.0, 0.1)
    with pytest.raises(ValueError, match="sample_every"):
        evolve(decay_model(4), DensityMatrix.fock_state(4, 0), 1.0, 0.1, sample_every=0)
    with pytest.raises(ValueError, match="sample_every"):
        evolve(decay_model(4), DensityMatrix.fock_state(4, 0), 1.0, 0.1, sample_every=-3)
    for every in (2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="sample_every"):
            evolve(decay_model(4), DensityMatrix.fock_state(4, 0), 1.0, 0.1, sample_every=every)


# -- stationary states -----------------------------------------------------------


def test_stationary_decay_to_vacuum():
    model = LindbladModel(number(8), (annihilation(8),))
    state = stationary(model)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(state.mat - expected)) <= 1e-12


def test_stationary_limit_cycle_poisson():
    state = stationary(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 30))
    poisson = recurrence_stationary(1.0, 40)[:30]
    assert np.max(np.abs(np.diag(state.mat).real - poisson)) <= 1e-8


def test_stationary_spin_model():
    model = rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=5))
    state = stationary(model)
    assert np.max(np.abs(lindblad_rhs(model, state).mat)) <= 1e-10
    _lx, _ly, lz = rotator_spin_operators(5)
    assert abs(expectation(state, lz)) <= 1e-9


def test_stationary_spin_model_l24():
    l = 24
    model = rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=l))
    state = stationary(model)
    assert np.max(np.abs(lindblad_rhs(model, state).mat)) <= 1e-10
    assert np.linalg.eigvalsh(state.mat).min() >= -1e-8
    lx, ly, lz = rotator_spin_operators(l)
    # L+(l_z) = -lam l_z, so <l_z> vanishes in every stationary state
    assert abs(expectation(state, lz)) <= 1e-9
    casimir = expectation(state, lx @ lx + ly @ ly + lz @ lz)
    assert abs(casimir - l * (l + 1)) <= 1e-9 * l * (l + 1)
    rows = closure_vs_exact_report(RotatorParams(1.0, 1.0, 0.3, l=l)).rows
    assert [row.l for row in rows] == list(range(1, l + 1))
    assert all(np.isfinite(row.x_exact) and np.isfinite(row.rel_deviation) for row in rows)


def test_stationary_reports_degeneracy():
    # dephasing in the number basis leaves every diagonal state fixed
    model = LindbladModel(OperatorMatrix(np.zeros((5, 5))), (number(5),))
    with pytest.raises(DegenerateStationaryState) as excinfo:
        stationary(model)
    assert excinfo.value.null_dim == 5


# Weak decay 1 -> 0 beside strong dephasing: the population block's non-zero
# singular value (2 sqrt(2) 1e-5) is below null_tol times the largest one,
# which lies in a coherence block, so the null space counts as two-dimensional.
WEAK_DECAY_STRONG_DEPHASING = LindbladModel(
    OperatorMatrix(np.zeros((2, 2))),
    (OperatorMatrix(np.sqrt(1e-5) * np.array([[0.0, 1.0], [0.0, 0.0]])),
     OperatorMatrix(np.diag([0.0, np.sqrt(1e6)]))),
)


@pytest.mark.parametrize("model, null_dim", [
    (LindbladModel(OperatorMatrix(np.zeros((5, 5))), (number(5),)), 5),
    (limit_cycle_lindblad(LimitCycleParams(1.0, 0.0, 1.0), 12), 2),
    (WEAK_DECAY_STRONG_DEPHASING, 2),
    # sigma_x is a second null vector, in the sector without diagonal positions
    (LindbladModel(OperatorMatrix(np.zeros((2, 2))), (OperatorMatrix([[0, 1], [1, 0]]),)), 2),
    # |0><1| and |1><0| are null vectors in two sectors that mirror each other
    (LindbladModel(OperatorMatrix(np.zeros((3, 3))), (OperatorMatrix(np.diag([0.0, 0.0, 1.0])),)), 5),
], ids=["dephasing", "limit-cycle-zero-gain", "scale-from-another-sector", "sigma-x-traceless-sector",
        "null-mirror-pair"])
def test_stationary_degeneracy_matches_svd_oracle(model, null_dim):
    with pytest.raises(DegenerateStationaryState) as oracle:
        svd_stationary(model)
    with pytest.raises(DegenerateStationaryState) as excinfo:
        stationary(model)
    assert excinfo.value.null_dim == oracle.value.null_dim == null_dim


SECTOR_CASES = {
    "limit-cycle-d12": (lambda: limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 12), 2 * 12 - 1),
    "limit-cycle-d30": (lambda: limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 30), 2 * 30 - 1),
    "oscillator-d12": (lambda: oscillator_lindblad(OscillatorParams(1.0, 0.1), 12), 2),
    "spin-l5": (lambda: rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=5)), 2),
}


@pytest.mark.parametrize("case", sorted(SECTOR_CASES))
def test_stationary_matches_svd_oracle(case):
    build, n_sectors = SECTOR_CASES[case]
    model = build()
    assert len(liouvillian_sectors(model)) == n_sectors
    assert np.max(np.abs(stationary(model).mat - svd_stationary(model).mat)) <= 1e-12


def test_nondegenerate_stationary_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("stationary fell back to an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for model in (
        limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 30),
        rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=10)),
    ):
        assert np.max(np.abs(lindblad_rhs(model, stationary(model)).mat)) <= 1e-10


def test_stationary_counts_singular_values_when_bound_fails(monkeypatch):
    # At null_tol 1e-3 the bound (5e-4 of the largest block norm) cannot rule
    # out a second null direction, but the true gap (1.5e-2 of the largest
    # singular value) does: the count decides, and finds one.
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1), 12)
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
    state = stationary(model, null_tol=1e-3)
    assert len(calls) == len(liouvillian_sectors(model))
    assert np.max(np.abs(state.mat - svd_stationary(model, null_tol=1e-3).mat)) <= 1e-12


MIRROR_CASES = {
    "limit-cycle-d12": lambda: limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 12),
    "oscillator-d12": lambda: oscillator_lindblad(OscillatorParams(1.0, 0.1), 12),
    "spin-l3": lambda: rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=3)),
    "random-two-channel-d6": lambda: two_channel_model(6),
}


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_sector_mirror_block_is_conjugate(case):
    # L(rho+) = L(rho)+: the transposed positions of a sector form one sector,
    # whose block, in the order of the transposed positions, is the conjugate
    # up to the rounding of K's entries
    model = MIRROR_CASES[case]()
    d = model.dim
    sectors = liouvillian_sectors(model)
    as_sets = [set(positions.tolist()) for positions in sectors]
    for positions in sectors:
        cols, rows = np.divmod(positions, d)
        mirrored = rows * d + cols
        assert set(mirrored.tolist()) in as_sets
        block = liouvillian_matrix(model, positions)
        assert np.max(np.abs(liouvillian_matrix(model, mirrored) - block.conj())) <= 1e-14 * np.max(np.abs(block))


def test_stationary_solves_one_block_per_mirror_pair(monkeypatch):
    inv = np.linalg.inv
    calls = []
    monkeypatch.setattr(np.linalg, "inv", lambda block: calls.append(block.shape) or inv(block))
    # 2 d - 1 diagonal sectors, of which d - 1 mirror pairs and the main diagonal
    stationary(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 30))
    assert len(calls) == 30
    calls.clear()
    # the parity sectors are their own mirrors
    stationary(rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=10)))
    assert len(calls) == 2


def test_stationary_independent_of_blas_threads():
    # The l = 10 blocks have 221 rows, where a threaded OpenBLAS splits its
    # sums by thread; stationary solves on one thread and gives the count back.
    calls = _blas._openblas()
    if calls is None:
        pytest.skip("numpy does not call the OpenBLAS of its wheels")
    get, put = calls
    model = rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=10))
    before = get()
    states = []
    try:
        for count in (2, 1):
            put(count)
            states.append(stationary(model).mat)
            assert get() == count
    finally:
        put(before)
    assert np.array_equal(states[0], states[1])


@pytest.mark.parametrize("null_tol", [0.0, -1.0, 1.0, float("nan")])
def test_stationary_rejects_null_tol_outside_unit_interval(null_tol):
    with pytest.raises(ValueError, match="null_tol"):
        stationary(decay_model(4), null_tol=null_tol)


def test_spin_model_sectors_split_by_parity():
    d = 21
    sectors = liouvillian_sectors(rotator_spin_model(RotatorParams(1.0, 1.0, 0.3, l=10)))
    assert [len(positions) for positions in sectors] == [221, 220]
    cols, rows = np.divmod(np.arange(d * d), d)
    assert [set((rows[positions] - cols[positions]) % 2) for positions in sectors] == [{0}, {1}]


def test_limit_cycle_sectors_are_diagonals():
    d = 12
    sectors = liouvillian_sectors(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), d))
    cols, rows = np.divmod(np.arange(d * d), d)
    shifts = [set(rows[positions] - cols[positions]) for positions in sectors]
    assert all(len(shift) == 1 for shift in shifts)
    assert sorted(shift.pop() for shift in shifts) == list(range(-(d - 1), d))


@pytest.mark.parametrize("case", sorted(SECTOR_CASES))
def test_liouvillian_blocks_cover_generator(case):
    model = SECTOR_CASES[case][0]()
    gen = liouvillian_matrix(model)
    sectors = liouvillian_sectors(model)
    assert sorted(np.concatenate(sectors)) == list(range(model.dim**2))
    off_block = gen.copy()
    for positions in sectors:
        block = liouvillian_matrix(model, positions)
        assert np.max(np.abs(block - gen[np.ix_(positions, positions)])) <= 1e-12
        off_block[np.ix_(positions, positions)] = 0.0
    assert not np.any(off_block)


def test_stationary_limit_cycle_d80():
    # out of reach of one full SVD of the 6400 x 6400 generator
    state = stationary(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 80))
    poisson = recurrence_stationary(1.0, 80)[:80]
    assert np.max(np.abs(np.diag(state.mat).real - poisson)) <= 1e-8
    assert not np.any(state.mat - np.diag(np.diag(state.mat)))


def test_liouvillian_matrix_matches_rhs():
    rng = np.random.default_rng(33)
    model = limit_cycle_lindblad(LimitCycleParams(0.5, 0.6, 0.3), 6)
    gen = liouvillian_matrix(model)
    for _ in range(5):
        rho = random_operator(rng, 6)
        direct = lindblad_rhs(model, rho).mat
        via_matrix = (gen @ rho.mat.flatten(order="F")).reshape((6, 6), order="F")
        assert np.max(np.abs(direct - via_matrix)) <= 1e-12


# -- expectations and the adjoint form ----------------------------------------------


def test_expectation_examples():
    rho = DensityMatrix.fock_state(6, 3)
    assert expectation(rho, OperatorMatrix(np.eye(6))) == pytest.approx(1.0)
    assert expectation(rho, number(6)) == pytest.approx(3.0)
    poisson = recurrence_stationary(1.0, 30)
    rho_poisson = DensityMatrix(OperatorMatrix(np.diag(poisson.astype(complex))))
    assert expectation(rho_poisson, number(31)).real == pytest.approx(1.0, abs=1e-8)


def test_expectation_and_purity_match_trace():
    rng = np.random.default_rng(36)
    for dim in (1, 7, 40):
        rho = random_density(rng, dim)
        op = random_operator(rng, dim)
        assert abs(expectation(rho, op) - np.trace(rho.mat @ op.mat)) <= 1e-13
        assert abs(rho.purity() - np.trace(rho.mat @ rho.mat).real) <= 1e-13
    # evolve samples through the same sum
    op = random_operator(rng, 12)
    model = oscillator_lindblad(OscillatorParams(1.0, 0.1, 0.2), 12)
    result = evolve(model, DensityMatrix.coherent_state(12, 0.8), 0.01, 1e-3, observables={"x": op})
    assert result.expectations["x"][-1] == expectation(result.final, op)
    assert abs(result.expectations["x"][-1] - np.trace(result.final.mat @ op.mat)) <= 1e-13


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(DensityMatrix.fock_state(4, 0), number(5))
    with pytest.raises(ValueError):
        adjoint_generator(number(5), decay_model(4))


def test_adjoint_rate_of_identity_vanishes():
    rng = np.random.default_rng(34)
    model = limit_cycle_lindblad(LimitCycleParams(1.0, 0.8, 0.5), 7)
    for _ in range(20):
        rho = random_density_operator(rng, 7)
        assert abs(adjoint_rate(OperatorMatrix(np.eye(7)), model, rho)) <= 1e-12


def test_adjoint_rate_duality():
    """tr(A L(rho)) = tr(rho L+(A)) for every model in the package."""
    rng = np.random.default_rng(35)
    models = [
        oscillator_lindblad(OscillatorParams(1.0, 0.3, 0.4), 9),
        limit_cycle_lindblad(LimitCycleParams(1.0, 0.8, 0.5), 9),
        rotator_spin_model(RotatorParams(1.05, 0.95, 0.3, l=4)),
    ]
    for model in models:
        dim = model.dim
        for _ in range(100):
            rho = random_density_operator(rng, dim)
            a = random_operator(rng, dim)
            lhs = np.trace(a.mat @ lindblad_rhs(model, rho).mat)
            assert abs(lhs - adjoint_rate(a, model, rho)) <= 1e-12


def test_adjoint_generator_spin_identity():
    """For the synchronized rotators the adjoint generator sends l_z to
    -lam l_z as an operator identity."""
    lam = 0.3
    for l in range(1, 11):
        model = rotator_spin_model(RotatorParams(1.0, 1.0, lam, l=l))
        _lx, _ly, lz = rotator_spin_operators(l)
        gap = adjoint_generator(lz, model).mat + lam * lz.mat
        assert np.max(np.abs(gap)) <= 1e-12


def test_adjoint_generator_oscillator_ehrenfest():
    """d<a>/dt = -i omega0 <a> - lam (<a> - <a+>) holds as an operator
    identity away from the truncation edge."""
    dim = 12
    params = OscillatorParams(omega0=1.3, lam=0.25, u=0.6)
    model = oscillator_lindblad(params, dim)
    gen = adjoint_generator(annihilation(dim), model).mat
    expected = (
        -1j * params.omega0 * annihilation(dim).mat
        - params.lam * (annihilation(dim).mat - creation(dim).mat)
    )
    k = dim - 2
    assert np.max(np.abs(gen[:k, :k] - expected[:k, :k])) <= 1e-10


# -- density matrix validation --------------------------------------------------------


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(OperatorMatrix(np.diag([0.5, 0.4]).astype(complex)))  # trace
    with pytest.raises(ValueError):
        DensityMatrix(OperatorMatrix(np.array([[1.0, 0.5], [0.0, 0.0]])))  # hermiticity
    with pytest.raises(ValueError):
        DensityMatrix(OperatorMatrix(np.diag([1.5, -0.5]).astype(complex)))  # positivity


def test_coherent_state_moments():
    dim = 30
    alpha = 1.2 - 0.7j
    rho = DensityMatrix.coherent_state(dim, alpha)
    assert expectation(rho, annihilation(dim)) == pytest.approx(alpha, abs=1e-10)
    assert expectation(rho, number(dim)).real == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_coherent_state_at_zero_is_vacuum():
    rho = DensityMatrix.coherent_state(5, 0.0)
    assert rho.mat[0, 0] == pytest.approx(1.0)
    assert expectation(rho, number(5)) == pytest.approx(0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        LindbladModel(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        LindbladModel(number(4), (annihilation(5),))
