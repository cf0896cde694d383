import csv
import warnings

import numpy as np
import pytest

from helpers import divergence_by_partials, evaluate_by_terms, verify_faq_by_point
from semiq import (
    DensityMatrix,
    FaqSystem,
    FlowDiverged,
    PhasePoint,
    Polynomial,
    classical_flow,
    drift,
    ensemble_weights,
    evolve,
    export_trajectory_csv,
    phase_divergence,
    sample_phase_points,
    verify_faq,
)
from semiq.integrate import rk4_path
from semiq.observables import _compile, _coordinate_reads
from semiq.models import (
    LimitCycleParams,
    OscillatorParams,
    RotatorParams,
    limit_cycle_faq,
    limit_cycle_field,
    oscillator_faq,
    oscillator_field,
    oscillator_lindblad,
    rotator_faq,
    rotator_field,
)

ROOT2 = np.sqrt(2.0)


def hamiltonian_only(omega=1.0):
    return FaqSystem(1, omega * Polynomial.z(0, 1) * Polynomial.zc(0, 1))


def all_systems():
    """The three worked models with generic parameters."""
    return [
        (oscillator_faq(OscillatorParams(1.0, 0.3, 0.7)), 1),
        (limit_cycle_faq(LimitCycleParams(1.0, 0.8, 0.5)), 1),
        (rotator_faq(RotatorParams(1.1, 0.9, 0.2)), 2),
    ]


# -- drift ----------------------------------------------------------------------


def test_drift_oscillator_closed_form_and_u_independence():
    z0 = 1 + 2j
    expected = -1j * z0 - 0.3 * (z0 - np.conj(z0))
    for u in (-1.0, 0.0, 1.0):
        system = oscillator_faq(OscillatorParams(omega0=1.0, lam=0.3, u=u))
        value = drift(system, [z0])
        assert abs(value[0] - expected) <= 1e-12


def test_drift_zero_system():
    system = FaqSystem(1, Polynomial.zero(1))
    assert drift(system, [0.7 - 0.2j]) == pytest.approx(0.0)


def test_drift_limit_cycle_at_unit_point():
    system = limit_cycle_faq(LimitCycleParams(omega=2.0, lam=1.0, mu=0.5))
    value = drift(system, [1.0])
    assert abs(value[0] - (-2j)) <= 1e-12


def test_drift_equals_real_coordinate_assembly():
    """The complex drift must match (A + iB)/sqrt(2) with A, B assembled from
    x/y partial derivatives of H, R, R~ (chain rule done test-side)."""
    rng_points = sample_phase_points(2, 20, seed=100)
    for system, modes in all_systems():
        points = rng_points if modes == 2 else sample_phase_points(1, 20, seed=100)
        conjugates = [r.conjugate() for r in system.channels]
        for coords in points:

            def dx(poly, mode):
                return (
                    poly.partial(mode, "z").evaluate(coords)
                    + poly.partial(mode, "zc").evaluate(coords)
                ) / ROOT2

            def dy(poly, mode):
                return 1j * (
                    poly.partial(mode, "z").evaluate(coords)
                    - poly.partial(mode, "zc").evaluate(coords)
                ) / ROOT2

            value = drift(system, coords)
            for mode in range(modes):
                a_val = dy(system.hamiltonian, mode)
                b_val = -dx(system.hamiltonian, mode)
                for r, rbar in zip(system.channels, conjugates):
                    r_val = r.evaluate(coords)
                    rbar_val = rbar.evaluate(coords)
                    a_val += 1j * (rbar_val * dy(r, mode) - r_val * dy(rbar, mode))
                    b_val += 1j * (r_val * dx(rbar, mode) - rbar_val * dx(r, mode))
                assert abs(value[mode] - (a_val + 1j * b_val) / ROOT2) <= 1e-10


# -- verify_faq -------------------------------------------------------------------


def test_verify_oscillator_decomposition():
    params = OscillatorParams(1.0, 0.3, 0.7)
    check = verify_faq(
        oscillator_faq(params),
        oscillator_field(params),
        sample_phase_points(1, 100, seed=42),
        1e-12,
    )
    assert check.passed
    assert check.n_samples == 100


def test_verify_rotator_decomposition():
    params = RotatorParams(1.1, 0.9, 0.2)
    check = verify_faq(
        rotator_faq(params),
        rotator_field(params),
        sample_phase_points(2, 100, seed=43),
        1e-12,
    )
    assert check.passed


def test_verify_detects_wrong_field():
    params = OscillatorParams(1.0, 0.3, 0.0)
    samples = sample_phase_points(1, 50, seed=44)

    def wrong_field(coords):
        return np.array([-1j * params.omega0 * coords[0]])

    check = verify_faq(oscillator_faq(params), wrong_field, samples, 1e-12)
    assert not check.passed
    expected = max(abs(params.lam * (z - np.conj(z))) for [z] in samples)
    assert check.max_abs_error == pytest.approx(expected, rel=1e-12)


def test_verify_invariant_under_channel_phase():
    params = LimitCycleParams(1.0, 0.8, 0.5)
    base = limit_cycle_faq(params)
    rotated = FaqSystem(
        1, base.hamiltonian, tuple(np.exp(0.7j) * r for r in base.channels)
    )
    for point in sample_phase_points(1, 40, seed=45):
        assert np.max(np.abs(drift(base, point) - drift(rotated, point))) <= 1e-12


def test_verify_needs_samples():
    params = OscillatorParams(1.0, 0.3, 0.0)
    with pytest.raises(ValueError):
        verify_faq(oscillator_faq(params), oscillator_field(params), [], 1e-12)


def test_verify_rejects_mismatched_shapes():
    params = OscillatorParams(1.0, 0.3, 0.0)
    system = oscillator_faq(params)
    with pytest.raises(ValueError, match="samples"):
        verify_faq(system, oscillator_field(params), sample_phase_points(2, 5, seed=47), 1e-12)
    with pytest.raises(ValueError, match="field returned shape"):
        verify_faq(system, lambda coords: coords[0], sample_phase_points(1, 5, seed=47), 1e-12)


def test_verify_matches_point_by_point_oracle():
    """One pass over all sample columns gives the max deviation of the
    per-point loop, for each model's own field and for a field detuned by
    0.1, to 1e-15 relative to the largest drift component."""
    oscillator = OscillatorParams(1.0, 0.3, 0.7)
    limit_cycle = LimitCycleParams(1.0, 0.8, 0.5)
    rotator = RotatorParams(1.1, 0.9, 0.2)
    cases = [
        (oscillator_faq(oscillator), oscillator_field(oscillator), 1),
        (limit_cycle_faq(limit_cycle), limit_cycle_field(limit_cycle), 1),
        (rotator_faq(rotator), rotator_field(rotator), 2),
    ]
    for system, field, modes in cases:
        samples = sample_phase_points(modes, 100, seed=46)
        scale = max(abs(evaluate_by_terms(poly, row)) for row in samples for poly in system.drift_polynomials)

        def detuned(coords, field=field):
            return field(coords) + 0.1j * coords

        own = verify_faq(system, field, samples, 1e-12)
        off = verify_faq(system, detuned, samples, 1e-12)
        assert own.passed and not off.passed and off.n_samples == 100
        assert abs(own.max_abs_error - verify_faq_by_point(system, field, samples)) <= 1e-15 * scale
        assert abs(off.max_abs_error - verify_faq_by_point(system, detuned, samples)) <= 1e-15 * scale


# -- classical flow ---------------------------------------------------------------


def test_flow_oscillator_decays():
    system = oscillator_faq(OscillatorParams(1.0, 0.1, 0.0))
    trajectory = classical_flow(system, [1.0], 20.0, 1e-3, record_every=100)
    assert abs(trajectory.states[-1, 0]) < 1.5 * np.exp(-0.1 * 20.0)


def test_flow_hamiltonian_circle_preserves_modulus():
    trajectory = classical_flow(hamiltonian_only(1.0), [1.0], 100.0, 0.01, record_every=100)
    moduli = np.abs(trajectory.states[:, 0])
    assert np.max(np.abs(moduli - 1.0)) <= 1e-10


def test_flow_limit_cycle_attractor():
    params = LimitCycleParams(omega=1.0, lam=0.5, mu=0.5)
    trajectory = classical_flow(limit_cycle_faq(params), [0.1], 60.0, 1e-3, record_every=1000)
    assert abs(abs(trajectory.states[-1, 0]) ** 2 - params.lam / (2 * params.mu)) <= 1e-6


def test_flow_rejects_bad_steps():
    system = hamiltonian_only()
    with pytest.raises(ValueError):
        classical_flow(system, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        classical_flow(system, [1.0], -1.0, 0.1)
    with pytest.raises(ValueError, match="record_every"):
        classical_flow(system, [1.0], 1.0, 0.1, record_every=0)
    # an interval is a whole number of steps on both paths: the exact flow
    # of hamiltonian_only and the RK4 steps of the limit cycle
    for flow_system in (system, limit_cycle_faq(LimitCycleParams(1.0, 0.5, 0.5))):
        for every in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="record_every"):
                classical_flow(flow_system, [1.0], 1.0, 0.1, record_every=every)


def test_flow_divergence_aborts():
    """Pure gain (R = z*, dz/dt = z): |z| grows as e^t and overflows near
    t = 709.8; the exact flow names the time and the step, with no numpy
    warning."""
    gain = FaqSystem(1, Polynomial.zero(1), (Polynomial.zc(0, 1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowDiverged, match=r"^non-finite state at t=709\.8 \(step 7098\)$"):
            classical_flow(gain, [1.0], 800.0, 0.1)


def test_flow_overflow_in_field_aborts():
    """R = z*^2 drives |z| to infinity in finite time, and Python's ** raises
    OverflowError before any state is non-finite; both flows name it as
    FlowDiverged with the time and the step."""
    blow_up = FaqSystem(1, Polynomial.zero(1), (Polynomial.zc(0, 1) ** 2,))
    with pytest.raises(FlowDiverged, match=r"^state overflows at t=0\.27 \(step 27\): complex exponentiation$"):
        classical_flow(blow_up, [1.0], 10.0, 0.01)
    with pytest.raises(FlowDiverged, match=r"^state overflows at t=0\.27 \(step 27\)"):
        ensemble_weights(blow_up, [[1.0]], 10.0, 0.01)


# -- exact flow of an affine drift ------------------------------------------------


def rk4_reference(system, y0, t_end, dt, record_every, extra=()):
    """The RK4 path of the drift and the extra polynomials, as _flow takes it
    for a nonlinear field."""
    polys = (*system.drift_polynomials, *extra)
    values = _compile(tuple(poly.terms for poly in polys), _coordinate_reads(system.mode_count))
    return rk4_path(lambda _t, y: values(y), y0, t_end, dt, record_every=record_every)


def oscillator_closed_form(params, z0, times):
    """dx/dt = omega0 y, dy/dt = -omega0 x - 2 lam y for z = x + i y, at
    every u: exp(-lam t) (cos(W t) + sin(W t) N / W) with W^2 = omega0^2 -
    lam^2 and N = [[lam, omega0], [-omega0, -lam]]."""
    omega, lam = params.omega0, params.lam
    w = np.sqrt(omega**2 - lam**2)
    x0, y0 = z0.real, z0.imag
    cos, sin, decay = np.cos(w * times), np.sin(w * times) / w, np.exp(-lam * times)
    x = decay * (cos * x0 + sin * (lam * x0 + omega * y0))
    y = decay * (cos * y0 - sin * (omega * x0 + lam * y0))
    return x + 1j * y


@pytest.mark.parametrize("record_every", [1, 100])
@pytest.mark.parametrize("u", [0.0, 0.7])
def test_affine_flow_oscillator_closed_form(u, record_every):
    """The damped oscillator's drift is linear with divergence -2 lam, so
    its flow and weights are the closed forms to rounding: 4e-15 over
    20 000 intervals, where applying a rounded exp(tau A) rather than
    y + (exp(tau A) - I) y drifted by 2e-13."""
    params = OscillatorParams(1.0, 0.1, u)
    system = oscillator_faq(params)
    z0 = 2.0 + 0.5j
    [(trajectory, weights)] = ensemble_weights(system, [[z0]], 20.0, 1e-3, record_every=record_every)
    flow = classical_flow(system, [z0], 20.0, 1e-3, record_every=record_every)
    exact = oscillator_closed_form(params, z0, trajectory.times)
    assert len(trajectory) == 20_000 // record_every + 1
    assert np.array_equal(flow.times, trajectory.times) and np.array_equal(flow.states, trajectory.states)
    assert np.max(np.abs(trajectory.states[:, 0] - exact)) <= 1e-13
    assert np.max(np.abs(weights / np.exp(2.0 * params.lam * trajectory.times) - 1.0)) <= 1e-13


def test_affine_flow_two_modes_matches_rk4():
    """Two modes whose drift mixes z_1, z*_2 and a constant drive, against
    RK4 at dt = 1e-4: the generator's layout over (x_1, y_1, x_2, y_2, 1)."""
    z1, z1c, z2, z2c = (Polynomial.z(0, 2), Polynomial.zc(0, 2), Polynomial.z(1, 2), Polynomial.zc(1, 2))
    hamiltonian = 1.3 * z1 * z1c + 0.7 * z2 * z2c + 0.4 * (z1 * z2c + z1c * z2) + 0.25 * (z1 + z1c)
    channels = (np.sqrt(0.3) * (np.cosh(0.5) * z1 - np.sinh(0.5) * z2c), np.sqrt(0.2) * z2)
    system = FaqSystem(2, hamiltonian, channels)
    assert {sum(key) for poly in system.drift_polynomials for key in poly.terms} == {0, 1}
    z0 = [0.6 + 0.2j, -0.3 + 0.9j]
    [(trajectory, weights)] = ensemble_weights(system, [z0], 2.0, 1e-4, record_every=100)
    times, states = rk4_reference(system, (*z0, 0.0), 2.0, 1e-4, 100, (-system.divergence_polynomial,))
    assert np.array_equal(trajectory.times, times)
    assert np.max(np.abs(trajectory.states - states[:, :2])) <= 1e-12
    assert np.max(np.abs(weights / np.exp(states[:, 2].real) - 1.0)) <= 1e-12


def test_affine_flow_grid_matches_rk4_with_short_last_interval():
    """333 steps recorded every 10: the last interval is 3 steps, and the
    times are rk4_path's bit for bit, and evolve's on the quantized model.
    So are they for an interval longer than the run and for t_end = 0."""
    params = OscillatorParams(1.0, 0.3, 0.2)
    system = oscillator_faq(params)
    model = oscillator_lindblad(params, 6)
    rho0 = DensityMatrix.coherent_state(6, 1.0 - 0.5j)
    trajectory = classical_flow(system, [1.0 - 0.5j], 1.0, 0.003, record_every=10)
    times, states = rk4_reference(system, (1.0 - 0.5j,), 1.0, 0.003, 10)
    assert len(times) == 35 and times[-1] - times[-2] == pytest.approx(0.009)
    assert np.array_equal(trajectory.times, times)
    assert np.max(np.abs(trajectory.states - states)) <= 1e-11
    for t_end, every, n_records in ((1.0, 10, 35), (1.0, 1000, 2), (0.0, 10, 1)):
        times = rk4_reference(system, (1.0 - 0.5j,), t_end, 0.003, every)[0]
        assert len(times) == n_records
        assert np.array_equal(classical_flow(system, [1.0 - 0.5j], t_end, 0.003, record_every=every).times, times)
        assert np.array_equal(evolve(model, rho0, t_end, 0.003, sample_every=every).times, times)


# -- phase-space divergence --------------------------------------------------------


def test_divergence_hamiltonian_only_is_zero():
    assert phase_divergence(hamiltonian_only(), [0.4 + 0.9j]) == 0.0


def test_divergence_oscillator_constant():
    system = oscillator_faq(OscillatorParams(1.0, 0.3, 0.9))
    for point in sample_phase_points(1, 10, seed=3):
        assert phase_divergence(system, point) == pytest.approx(-0.6, abs=1e-12)


def test_divergence_matches_partials_oracle():
    """The divergence polynomial against the per-channel partials, each
    |dR/dz*_a|^2 - |dR/dz_a|^2 evaluated at the point."""
    for system, modes in all_systems():
        for coords in sample_phase_points(modes, 50, seed=53):
            expected = divergence_by_partials(system, coords)
            assert abs(phase_divergence(system, coords) - expected) <= 1e-14 * max(1.0, abs(expected))


def test_divergence_polynomial_oscillator_is_constant():
    """2 lam (sinh^2 u - cosh^2 u) = -2 lam: no term but the constant."""
    lam = 0.3
    divergence = oscillator_faq(OscillatorParams(1.0, lam, 0.3)).divergence_polynomial
    [(key, coeff)] = divergence.terms.items()
    assert key == (0, 0)
    assert abs(coeff - (-2.0 * lam)) <= 1e-15


def test_divergence_matches_finite_difference():
    h = 1e-5
    for system, modes in all_systems():
        for coords in sample_phase_points(modes, 50, seed=50):
            fd = 0.0
            for mode in range(modes):
                dx = np.zeros(modes, complex)
                dx[mode] = h / ROOT2
                dy = np.zeros(modes, complex)
                dy[mode] = 1j * h / ROOT2
                fd += ROOT2 * np.real(
                    (drift(system, coords + dx)[mode] - drift(system, coords - dx)[mode]) / (2 * h)
                )
                fd += ROOT2 * np.imag(
                    (drift(system, coords + dy)[mode] - drift(system, coords - dy)[mode]) / (2 * h)
                )
            assert abs(phase_divergence(system, coords) - fd) <= 1e-6


def test_divergence_matches_transport_coefficient():
    """div v must equal the closed-form transport coefficient
    2i sum (dR/dy dR~/dx - dR/dx dR~/dy) assembled from x/y partials."""
    for system, modes in all_systems():
        conjugates = [r.conjugate() for r in system.channels]
        for coords in sample_phase_points(modes, 50, seed=51):
            total = 0j
            for r, rbar in zip(system.channels, conjugates):
                for mode in range(modes):
                    rx = (r.partial(mode, "z").evaluate(coords) + r.partial(mode, "zc").evaluate(coords)) / ROOT2
                    ry = 1j * (r.partial(mode, "z").evaluate(coords) - r.partial(mode, "zc").evaluate(coords)) / ROOT2
                    bx = (rbar.partial(mode, "z").evaluate(coords) + rbar.partial(mode, "zc").evaluate(coords)) / ROOT2
                    by = 1j * (rbar.partial(mode, "z").evaluate(coords) - rbar.partial(mode, "zc").evaluate(coords)) / ROOT2
                    total += 2j * (ry * bx - rx * by)
            assert abs(total.imag) <= 1e-10
            assert abs(phase_divergence(system, coords) - total.real) <= 1e-10


# -- ensemble weights ---------------------------------------------------------------


def test_weights_hamiltonian_only_are_unity():
    [(trajectory, weights)] = ensemble_weights(hamiltonian_only(), [PhasePoint([1.0])], 10.0, 1e-2)
    assert np.max(np.abs(weights - 1.0)) <= 1e-10


def test_weights_oscillator_grow_exponentially():
    lam = 0.3
    system = oscillator_faq(OscillatorParams(1.0, lam, 0.0))
    [(trajectory, weights)] = ensemble_weights(system, [PhasePoint([1.0])], 5.0, 1e-3, record_every=100)
    expected = np.exp(2 * lam * trajectory.times)
    assert np.max(np.abs(weights / expected - 1.0)) <= 1e-6


def test_weights_beyond_float_range_raise():
    """Growing weights (limit cycle, contracting near the cycle) and
    shrinking ones (pure gain, div = 2) both end in FlowDiverged naming the
    point and the time, before exp could overflow or underflow."""
    limit_cycle = limit_cycle_faq(LimitCycleParams(1.0, 0.5, 0.5))
    with pytest.raises(FlowDiverged, match=r"point 0 \[\(1\.5\+0j\)\] is exp\(753\.\d+\), outside .* at t=750$"):
        ensemble_weights(limit_cycle, [[1.5]], 800.0, 0.05, record_every=1000)
    gain = FaqSystem(1, Polynomial.zero(1), (Polynomial.zc(0, 1),))
    with pytest.raises(FlowDiverged, match=r"point 0 .* is exp\(-720\).* at t=360$"):
        ensemble_weights(gain, [[1.0]], 400.0, 0.1, record_every=100)


def test_channel_partials_built_once(monkeypatch):
    """phase_divergence and ensemble_weights share the partials a system
    builds on first use: one dR/dz*_a and one dR/dz_a per channel and mode
    for the divergence, once the drift is built."""
    calls = []
    partial = Polynomial.partial

    def counting(self, mode, kind):
        calls.append((mode, kind))
        return partial(self, mode, kind)

    system = rotator_faq(RotatorParams(1.0, 0.8, 0.3))
    system.drift_polynomials
    monkeypatch.setattr(Polynomial, "partial", counting)
    points = sample_phase_points(2, 3, seed=52)
    for point in points:
        phase_divergence(system, point)
    ensemble_weights(system, [PhasePoint(list(points[0]))], 0.01, 1e-3)
    assert len(calls) == 2 * len(system.channels) * system.mode_count


def test_weight_rate_sign_tracks_divergence():
    """d(weight)/dt = -div * weight: the sign flips where the divergence of
    the cubic field changes sign (|z|^2 = lam/(4 mu)), and the limit cycle
    radius |z|^2 = lam/(2 mu) sits in the contracting region."""
    params = LimitCycleParams(omega=1.0, lam=0.8, mu=0.5)
    system = limit_cycle_faq(params)
    flip = params.lam / (4 * params.mu)
    cycle = params.lam / (2 * params.mu)
    for r2, expect_growing in ((0.5 * flip, False), (1.5 * flip, True), (cycle, True)):
        z0 = np.sqrt(r2)
        div = phase_divergence(system, [z0])
        assert (div < 0) == expect_growing
        [(_, weights)] = ensemble_weights(system, [PhasePoint([z0])], 0.01, 1e-4)
        assert (weights[-1] > 1.0) == expect_growing
        assert (weights[-1] > 1.0) == (div < 0)


# -- construction and export -------------------------------------------------------


def test_faq_system_rejects_complex_hamiltonian():
    with pytest.raises(ValueError, match="not a real observable"):
        FaqSystem(1, 1j * Polynomial.z(0, 1) * Polynomial.zc(0, 1))
    with pytest.raises(ValueError, match="not a real observable"):
        FaqSystem(1, Polynomial.z(0, 1))
    p = (Polynomial.z(0, 2) + (0.3 - 0.7j) * Polynomial.zc(1, 2)) ** 3 * Polynomial.zc(0, 2)
    FaqSystem(2, p + p.conjugate())


def test_faq_system_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        FaqSystem(2, Polynomial.z(0, 1) * Polynomial.zc(0, 1))
    with pytest.raises(ValueError):
        FaqSystem(1, Polynomial.z(0, 1) * Polynomial.zc(0, 1), (Polynomial.z(0, 2),))


def test_trajectory_csv_round_trip(tmp_path):
    system = oscillator_faq(OscillatorParams(1.0, 0.2, 0.0))
    [(trajectory, weights)] = ensemble_weights(system, [PhasePoint([1 + 1j])], 1.0, 0.01, record_every=10)
    path = tmp_path / "trajectory.csv"
    export_trajectory_csv(trajectory, path, weights)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "re(z1)", "im(z1)", "weight"]
    assert len(rows) - 1 == len(trajectory)
    values = np.array([[float(cell) for cell in row] for row in rows[1:]])
    assert np.allclose(values[:, 0], trajectory.times)
    assert np.allclose(values[:, 1] + 1j * values[:, 2], trajectory.states[:, 0])
    assert np.allclose(values[:, 3], weights)

    plain = tmp_path / "plain.csv"
    export_trajectory_csv(trajectory, plain)
    with open(plain) as handle:
        rows = list(csv.reader(handle))
    assert all(row[-1] == "1" for row in rows[1:])
