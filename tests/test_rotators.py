from math import factorial

import numpy as np
import pytest

from helpers import newton_closure, random_spin_polynomial, spin_evaluate_by_terms, spin_gradient_by_terms
from semiq import (
    DensityMatrix,
    FockSpace,
    classical_flow,
    expectation,
    lindblad_rhs,
    sample_phase_points,
    schwinger_spin,
    stationary,
    verify_faq,
)
from semiq.models import (
    EXACT_SPIN_L_MAX,
    MomentState,
    _cross,
    RotatorParams,
    SpinPolynomial,
    classical_spin_flow,
    closure_stationary,
    closure_vs_exact_report,
    cumulant_decouple,
    ly2_analytic,
    moment_equations_conformance,
    phase_model_flow,
    rotator_faq,
    rotator_field,
    rotator_spin_channel,
    rotator_spin_hamiltonian,
    rotator_spin_model,
    rotator_spin_operators,
    spin_components,
)

PARAMS = RotatorParams(omega1=1.1, omega2=0.9, lam=0.2, l=5)
SYNC = RotatorParams(omega1=1.0, omega2=1.0, lam=0.2, l=5)


# -- two-mode classical model ---------------------------------------------------


def test_faq_decomposition_passes():
    check = verify_faq(
        rotator_faq(PARAMS),
        rotator_field(PARAMS),
        sample_phase_points(2, 100, seed=63),
        1e-12,
    )
    assert check.passed


def test_weak_coupling_limit_decouples():
    # with lam -> 0 the drift reduces to free rotation +i omega_a z_a
    tiny = RotatorParams(1.3, 0.7, 1e-12)
    field = rotator_field(tiny)
    for point in sample_phase_points(2, 20, seed=64):
        z1, z2 = point
        free = np.array([1.3j * z1, 0.7j * z2])
        assert np.max(np.abs(field(point) - free)) <= 1e-10
        from semiq import drift

        assert np.max(np.abs(drift(rotator_faq(tiny), point) - free)) <= 1e-10


def test_amplitudes_conserved_along_flow():
    trajectory = classical_flow(rotator_faq(PARAMS), [0.8 + 0.2j, 0.5 - 0.4j], 10.0, 1e-3, record_every=100)
    for mode in range(2):
        radii = np.abs(trajectory.states[:, mode]) ** 2
        assert np.max(np.abs(radii - radii[0])) <= 1e-8


# -- bare phase model --------------------------------------------------------------


def test_equal_frequencies_lock_to_zero_difference():
    result = phase_model_flow(1.0, 1.0, 0.15, [2.0, 0.3], 300.0, 0.01)
    assert result.locked
    diff = (result.phases[-1, 1] - result.phases[-1, 0]) % (2 * np.pi)
    assert min(diff, 2 * np.pi - diff) <= 1e-6


def test_adler_locking_threshold():
    locked = phase_model_flow(1.2, 1.0, 0.2, [0.3, 0.0], 400.0, 0.01)
    assert locked.locked
    drifting = phase_model_flow(1.6, 1.0, 0.2, [0.3, 0.0], 400.0, 0.01)
    assert not drifting.locked
    assert abs(drifting.final_difference_rate) > 0.1


def test_uncoupled_phases_advance_linearly():
    result = phase_model_flow(1.3, 0.6, 0.0, [0.2, 1.1], 50.0, 0.01)
    expected = np.stack([0.2 + 1.3 * result.times, 1.1 + 0.6 * result.times], axis=1)
    assert np.max(np.abs(result.phases - expected)) <= 1e-10


# -- spin form ----------------------------------------------------------------------


def test_spin_model_operators():
    lam = 0.3
    params = RotatorParams(1.05, 0.95, lam, l=3)
    model = rotator_spin_model(params)
    lx, ly, lz = rotator_spin_operators(3)
    expected_h = -params.delta * lz.mat - lam * (ly.mat @ lz.mat + lz.mat @ ly.mat)
    expected_r = np.sqrt(lam) * (lz.mat - 1j * ly.mat)
    assert np.max(np.abs(model.h.mat - expected_h)) <= 1e-13
    assert np.max(np.abs(model.channels[0].mat - expected_r)) <= 1e-13


def test_spin_model_stationary_state():
    model = rotator_spin_model(SYNC)
    state = stationary(model)
    assert np.max(np.abs(lindblad_rhs(model, state).mat)) <= 1e-10
    _lx, ly, lz = rotator_spin_operators(SYNC.l)
    assert abs(expectation(state, lz)) <= 1e-9
    assert abs(expectation(state, ly).imag) <= 1e-10


def test_classical_spin_flow_larmor_precession():
    delta = 0.8
    h = SpinPolynomial({(0, 0, 1): -delta})
    r = SpinPolynomial({})
    trajectory = classical_spin_flow(h, r, [0.6, 0.0, 0.5], 20.0, 1e-3, record_every=100)
    transverse = trajectory.states[:, 0] + 1j * trajectory.states[:, 1]
    expected = 0.6 * np.exp(-1j * delta * trajectory.times)
    assert np.max(np.abs(transverse - expected)) <= 1e-8
    assert np.max(np.abs(trajectory.magnitude_squared() - trajectory.magnitude_squared()[0])) <= 1e-10


def test_spin_flow_field_closed_form():
    """For the synchronized pair the flow reduces to
    (4 lam ly^2, -4 lam lx ly, 0); check against the generic evaluation."""
    lam = SYNC.lam
    h = rotator_spin_hamiltonian(SYNC)
    r = rotator_spin_channel(SYNC)
    rng = np.random.default_rng(65)
    for _ in range(20):
        l = rng.uniform(-1, 1, size=3)
        grad_h = h.gradient(l).real
        r_val = r.evaluate(l)
        grad_r = r.gradient(l)
        velocity = -np.cross(l, grad_h) - 2.0 * (r_val * np.cross(l, grad_r.conjugate())).imag
        expected = np.array([4 * lam * l[1] ** 2, -4 * lam * l[0] * l[1], 0.0])
        assert np.max(np.abs(velocity - expected)) <= 1e-12


def test_spin_polynomial_matches_term_loop():
    """The compiled spin polynomial and its compiled partials against the
    term-map loops, at points given as numpy arrays and as Python floats, to
    1e-15 relative to the sum of the absolute term values; evaluate also on
    (3, 20) coordinate columns."""
    rng = np.random.default_rng(67)
    for _ in range(40):
        poly = random_spin_polynomial(rng, 4)
        magnitude = SpinPolynomial({key: abs(coeff) for key, coeff in poly.terms.items()})
        l = rng.uniform(-1.5, 1.5, size=3)
        scale = max(spin_evaluate_by_terms(magnitude, np.abs(l)).real,
                    np.max(spin_gradient_by_terms(magnitude, np.abs(l)).real))
        expected = spin_gradient_by_terms(poly, l)
        for point in (l, l.tolist()):
            assert np.max(np.abs(poly.gradient(point) - expected)) <= 1e-15 * scale
            assert abs(poly.evaluate(point) - spin_evaluate_by_terms(poly, l)) <= 1e-15 * scale
        columns = rng.uniform(-1.5, 1.5, size=(3, 20))
        values = poly.evaluate(columns)
        for j in range(20):
            column_scale = spin_evaluate_by_terms(magnitude, np.abs(columns[:, j])).real
            assert abs(values[j] - spin_evaluate_by_terms(poly, columns[:, j])) <= 1e-15 * column_scale


def test_cross_product_matches_numpy():
    rng = np.random.default_rng(66)
    for _ in range(20):
        u = rng.uniform(-1, 1, size=3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.max(np.abs(_cross(u, v) - np.cross(u, v))) <= 1e-15
        assert np.max(np.abs(_cross(u, v.real) - np.cross(u, v.real))) <= 1e-15


def test_spin_flow_synchronizes():
    trajectory = classical_spin_flow(
        rotator_spin_hamiltonian(SYNC), rotator_spin_channel(SYNC),
        [0.4, 0.7, 0.3], 100.0, 2e-3, record_every=500,
    )
    assert np.max(np.abs(trajectory.magnitude_squared() - trajectory.magnitude_squared()[0])) <= 1e-10
    assert abs(trajectory.states[-1, 1]) <= 1e-10


def test_spin_flow_matches_two_mode_flow():
    z0 = np.array([0.8 + 0.2j, 0.5 - 0.4j])
    two_mode = classical_flow(rotator_faq(PARAMS), z0, 10.0, 1e-3, record_every=100)
    spin = classical_spin_flow(
        rotator_spin_hamiltonian(PARAMS),
        rotator_spin_channel(PARAMS),
        spin_components(z0),
        10.0,
        1e-3,
        record_every=100,
    )
    mapped = np.array([spin_components(two_mode.states[i]) for i in range(len(two_mode))])
    assert np.max(np.abs(mapped - spin.states)) <= 1e-6


def test_spin_flow_rejects_complex_hamiltonian():
    with pytest.raises(ValueError):
        classical_spin_flow(SpinPolynomial({(1, 0, 0): 1j}), SpinPolynomial({}), [1, 0, 0], 1.0, 0.1)


# -- cumulant decoupling --------------------------------------------------------------


def test_decouple_vanishing_singles():
    pairs = {("a", "b"): 0.7, ("b", "c"): -0.2, ("a", "c"): 0.1}
    singles = {"a": 0.0, "b": 0.0, "c": 0.0}
    assert cumulant_decouple(pairs, singles, ("a", "b", "c")) == 0.0


def test_decouple_gaussian_third_moment():
    m, s = 0.8, 1.7
    pairs = {("a", "a"): s}
    singles = {"a": m}
    value = cumulant_decouple(pairs, singles, ("a", "a", "a"))
    assert value == pytest.approx(3 * s * m - 2 * m**3, rel=1e-12)


def test_decouple_missing_moment_is_named():
    with pytest.raises(KeyError, match="ab"):
        cumulant_decouple({}, {"a": 1.0, "b": 1.0, "c": 1.0}, ("a", "b", "c"))


def test_decouple_on_factorized_coherent_state():
    """Product coherent states are nearly Gaussian in the angular-momentum
    bilinears, so the decoupling tracks exact triples to a few percent."""
    d = 25
    space = FockSpace((d, d))
    lx, ly, lz = schwinger_spin(space)
    ops = {"x": lx, "y": ly, "z": lz}
    amps = np.array(
        [2.4**n / np.sqrt(float(factorial(n))) for n in range(d)], dtype=complex
    )
    amps2 = np.array(
        [1.9**n / np.sqrt(float(factorial(n))) for n in range(d)], dtype=complex
    )
    vec = np.kron(amps / np.linalg.norm(amps), amps2 / np.linalg.norm(amps2))
    rho = DensityMatrix.pure_state(vec, space)
    singles = {name: expectation(rho, op) for name, op in ops.items()}
    pairs = {
        (na, nb): expectation(rho, opa @ opb)
        for na, opa in ops.items()
        for nb, opb in ops.items()
    }
    for triple in (("x", "x", "x"), ("z", "z", "z"), ("x", "x", "z")):
        exact = expectation(rho, ops[triple[0]] @ ops[triple[1]] @ ops[triple[2]])
        approx = cumulant_decouple(pairs, singles, triple)
        assert abs(approx - exact) <= 0.05 * abs(exact)


# -- stationary closure ----------------------------------------------------------------


def test_ly2_analytic_values():
    assert ly2_analytic(100.0) == pytest.approx(12.530979266899152, abs=1e-12)
    for n in (2.0, 10.0, 100.0, 1e4):
        x = ly2_analytic(n)
        assert x > 0
        assert abs(8 * x * x + 1.5 * x - n * n / 8 - n / 4) <= 1e-12


def test_ly2_large_n_asymptote():
    for n in (50.0, 200.0, 5000.0):
        assert abs(ly2_analytic(n) - n / 8) / (n / 8) < 0.01
    assert abs(ly2_analytic(1e8) / (1e8 / 8) - 1.0) < 1e-6


def test_closure_stationary_structure():
    state = closure_stationary(10.0)
    x = ly2_analytic(10.0)
    assert state.ly2 == pytest.approx(x, abs=1e-12)
    assert state.lz == 0.0
    assert state.ly == 0.0
    assert state.sym_xy == 0.0
    assert state.lx == pytest.approx(2 * x, abs=1e-12)
    assert state.lx2 == state.lz2
    assert abs(state.budget_residual(10.0)) <= 1e-10


def test_closure_newton_agrees_with_analytic():
    for n in (2.0, 10.0, 100.0, 1e4):
        analytic = closure_stationary(n)
        newton = newton_closure(n)
        for field in ("lx", "ly", "lz", "lx2", "ly2", "lz2", "sym_xy"):
            scale = max(1.0, abs(getattr(analytic, field)))
            assert abs(getattr(analytic, field) - getattr(newton, field)) <= 1e-10 * scale


def test_closure_validation():
    with pytest.raises(ValueError):
        closure_stationary(1.0)
    with pytest.raises(ValueError):
        closure_stationary(10.0, delta=0.1)
    with pytest.raises(ValueError):
        ly2_analytic(0.0)


def test_moment_state_budget():
    state = MomentState(lx=1.0, ly=0.0, lz=0.0, lx2=2.0, ly2=1.0, lz2=2.0, sym_xy=0.0)
    assert state.budget_residual(4.0) == pytest.approx(5.0 - 6.0)


# -- reports ------------------------------------------------------------------------


def test_closure_vs_exact_report():
    report = closure_vs_exact_report(SYNC)
    assert [row.n_excitations for row in report.rows] == [2, 4, 6, 8, 10]
    for row in report.rows:
        assert abs(row.lz_exact) <= 1e-9
        assert abs(row.ly_exact.imag) <= 1e-10
        assert np.isfinite(row.rel_deviation)
    x_values = [row.x_exact for row in report.rows]
    assert all(b > a for a, b in zip(x_values, x_values[1:]))
    closure_values = [row.x_closure for row in report.rows]
    assert all(b > a for a, b in zip(closure_values, closure_values[1:]))


def test_closure_report_validation():
    with pytest.raises(ValueError):
        closure_vs_exact_report(RotatorParams(1.0, 1.0, 0.2, l=EXACT_SPIN_L_MAX + 1))
    with pytest.raises(ValueError):
        closure_vs_exact_report(RotatorParams(1.0, 1.0, 0.2, l=5), l_values=[2, EXACT_SPIN_L_MAX + 1])
    with pytest.raises(ValueError):
        closure_vs_exact_report(RotatorParams(1.2, 1.0, 0.2, l=5))


def test_moment_equation_conformance_report():
    """The generator reproduces the quoted first-moment equations; the quoted
    second-moment equations carry discrepancies, which the report records
    without asserting either way."""
    report = moment_equations_conformance(RotatorParams(1.05, 0.95, 0.3, l=4), n_samples=40, seed=66)
    assert len(report.lines) == 6
    for name in ("lx", "ly", "lz"):
        assert report.line(name).agrees
        assert report.line(name).max_abs_deviation <= 1e-10
    for name in ("ly^2", "lz^2", "sym(lx,ly)"):
        assert np.isfinite(report.line(name).max_abs_deviation)


def test_conformance_needs_samples():
    with pytest.raises(ValueError, match="n_samples"):
        moment_equations_conformance(RotatorParams(1.05, 0.95, 0.3, l=2), n_samples=0)


def test_rotator_parameter_validation():
    with pytest.raises(ValueError):
        RotatorParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        RotatorParams(1.0, 1.0, 0.3, l=0.7)
    with pytest.raises(ValueError):
        RotatorParams(1.0, 1.0, 0.3, l=0.5)
    assert RotatorParams(1.2, 1.0, 0.3).delta == pytest.approx(0.2)
