"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
configuration.
"""

import hashlib
import json
from math import exp, factorial, sinh

import numpy as np

from helpers import newton_closure, random_density_operator, random_operator
from semiq import (
    FockSpace,
    DensityMatrix,
    Polynomial,
    adjoint_generator,
    adjoint_rate,
    annihilation,
    classical_flow,
    commutator,
    drift,
    evolve,
    expectation,
    lindblad_rhs,
    normal_quantize,
    number,
    phase_divergence,
    poisson_bracket,
    sample_phase_points,
    stationary,
    verify_faq,
    weyl_quantize,
)
from semiq.cli import main as cli_main
from semiq.models import (
    LimitCycleParams,
    OscillatorParams,
    RotatorParams,
    classical_spin_flow,
    closure_stationary,
    closure_vs_exact_report,
    generating_function,
    limit_cycle_faq,
    limit_cycle_field,
    limit_cycle_lindblad,
    ly2_analytic,
    mandel_q,
    mean_n,
    oscillator_faq,
    oscillator_field,
    oscillator_lindblad,
    phase_model_flow,
    recurrence_stationary,
    rotator_faq,
    rotator_field,
    rotator_spin_channel,
    rotator_spin_hamiltonian,
    rotator_spin_model,
    rotator_spin_operators,
    spin_components,
)

ROOT2 = np.sqrt(2.0)


def report(criterion, description, ok):
    print(f"criterion {criterion:02d} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok


def all_model_systems():
    return [
        ("oscillator", oscillator_faq(OscillatorParams(1.0, 0.3, 0.7)), 1),
        ("limit-cycle", limit_cycle_faq(LimitCycleParams(1.0, 0.8, 0.5)), 1),
        ("rotators", rotator_faq(RotatorParams(1.1, 0.9, 0.2)), 2),
    ]


def test_c01_faq_conformance():
    ok = True
    for u in (-1.0, 0.0, 1.0):
        params = OscillatorParams(omega0=1.0, lam=0.3, u=u)
        check = verify_faq(
            oscillator_faq(params),
            oscillator_field(params),
            sample_phase_points(1, 100, seed=1001),
            1e-12,
        )
        ok = ok and check.passed
    params_b = LimitCycleParams(omega=1.0, lam=0.8, mu=0.5)
    ok = ok and verify_faq(
        limit_cycle_faq(params_b),
        limit_cycle_field(params_b),
        sample_phase_points(1, 100, seed=1002),
        1e-12,
    ).passed
    params_c = RotatorParams(omega1=1.1, omega2=0.9, lam=0.2)
    ok = ok and verify_faq(
        rotator_faq(params_c),
        rotator_field(params_c),
        sample_phase_points(2, 100, seed=1003),
        1e-12,
    ).passed
    report(1, "FAQ conformance for the three models", ok)


def test_c02_divergence_identity():
    h = 1e-5
    worst_closed = 0.0
    worst_fd = 0.0
    for _name, system, modes in all_model_systems():
        conjugates = [r.conjugate() for r in system.channels]
        for coords in sample_phase_points(modes, 50, seed=1010):
            div = phase_divergence(system, coords)
            transport = 0j
            for r, rbar in zip(system.channels, conjugates):
                for mode in range(modes):
                    rz = r.partial(mode, "z").evaluate(coords)
                    rc = r.partial(mode, "zc").evaluate(coords)
                    bz = rbar.partial(mode, "z").evaluate(coords)
                    bc = rbar.partial(mode, "zc").evaluate(coords)
                    rx, ry = (rz + rc) / ROOT2, 1j * (rz - rc) / ROOT2
                    bx, by = (bz + bc) / ROOT2, 1j * (bz - bc) / ROOT2
                    transport += 2j * (ry * bx - rx * by)
            worst_closed = max(worst_closed, abs(div - transport.real), abs(transport.imag))
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
            worst_fd = max(worst_fd, abs(div - fd))
    report(2, "divergence identity (closed form and finite differences)", worst_closed <= 1e-10 and worst_fd <= 1e-6)


def test_c03_quadratic_correspondence():
    dim = 20
    space = FockSpace((dim,))
    z = Polynomial.z(0, 1)
    zc = Polynomial.zc(0, 1)
    quadratics = {"z": z, "zc": zc, "z2": z * z, "zc2": zc * zc, "zzc": z * zc}
    margin = 4
    k = dim - margin
    worst = 0.0
    worst_shifted = 0.0
    for name_a, pa in quadratics.items():
        for name_b, pb in quadratics.items():
            bracket_image = 1j * weyl_quantize(poisson_bracket(pa, pb), space).mat
            for quantizer in (weyl_quantize, normal_quantize):
                lhs = commutator(quantizer(pa, space), quantizer(pb, space)).mat
                worst = max(worst, float(np.max(np.abs(lhs[:k, :k] - bracket_image[:k, :k]))))
            # same-variant normal check: discrepancy confined to an identity
            # shift, nonzero only for the (z^2, zc^2) pair
            lhs_n = commutator(normal_quantize(pa, space), normal_quantize(pb, space)).mat
            rhs_n = 1j * normal_quantize(poisson_bracket(pa, pb), space).mat
            gap = lhs_n[:k, :k] - rhs_n[:k, :k]
            if {name_a, name_b} == {"z2", "zc2"}:
                shift = 2.0 if name_a == "z2" else -2.0
                worst_shifted = max(worst_shifted, float(np.max(np.abs(gap - shift * np.eye(k)))))
            else:
                worst_shifted = max(worst_shifted, float(np.max(np.abs(gap))))
    report(3, "quadratic correspondence, both ordering variants", worst <= 1e-12 and worst_shifted <= 1e-12)


def test_c04_poisson_point():
    weights = recurrence_stationary(1.0, 30)
    poisson = np.array([exp(-1.0) / factorial(n) for n in range(31)])
    ok = np.max(np.abs(weights - poisson)) <= 1e-10
    ok = ok and abs(mean_n(1.0) - 1.0) <= 1e-8
    ok = ok and abs(mandel_q(1.0)) <= 1e-8
    state = stationary(limit_cycle_lindblad(LimitCycleParams(1.0, 1.0, 1.0), 30))
    diag = np.diag(state.mat).real
    off = state.mat - np.diag(np.diag(state.mat))
    ok = ok and np.max(np.abs(diag - poisson[:30])) <= 1e-6
    ok = ok and np.max(np.abs(off)) <= 1e-8
    report(4, "Poisson point nu=1 (recurrence, moments, Liouvillian)", ok)


def test_c05_generating_function_closed_form():
    worst = 0.0
    for u in np.arange(0.0, 1.0001, 0.25):
        closed = (2.0 / sinh(2.0)) * (sinh(1.0 + u) / (1.0 + u)) * exp(u - 1.0)
        worst = max(worst, abs(generating_function(2.0, u) - closed))
    ok = worst <= 1e-10
    for nu in (0.3, 1.0, 2.0, 5.0):
        ok = ok and abs(generating_function(nu, 1.0) - 1.0) <= 1e-12
    report(5, "closed-form generating function at nu=2 and G(1)=1", ok)


def test_c06_mandel_q_regimes():
    ok = mandel_q(2.0) > 0.0 and mandel_q(0.5) < 0.0
    ok = ok and mandel_q(1.0 - 1e-3) < 0.0 < mandel_q(1.0 + 1e-3)
    ok = ok and abs(mandel_q(1.0)) <= 1e-8
    report(6, "Mandel Q regimes and sign change at nu=1", ok)


def test_c07_decay_convention():
    dim = 4
    model_h = np.zeros((dim, dim), dtype=complex)
    from semiq import LindbladModel, OperatorMatrix

    model = LindbladModel(OperatorMatrix(model_h), (annihilation(dim),))
    result = evolve(model, DensityMatrix.fock_state(dim, 1), 3.0, 1e-3, observables={"n": number(dim)})
    worst = np.max(np.abs(result.expectations["n"].real - np.exp(-2.0 * result.times)))
    report(7, "factor-2 dissipator normalization, <n> = exp(-2t)", worst <= 1e-6)


def test_c08_ehrenfest_tracking():
    dim = 40
    dt = 1e-3
    t_end = 20.0
    params = OscillatorParams(omega0=1.0, lam=0.1, u=0.0)
    model = oscillator_lindblad(params, dim)
    result = evolve(
        model,
        DensityMatrix.coherent_state(dim, 2.0),
        t_end,
        dt,
        observables={"a": annihilation(dim)},
    )

    # independent classical oracle: plain RK4 on the drift, same grid
    def field(z):
        return -1j * params.omega0 * z - params.lam * (z - np.conj(z))

    z = 2.0 + 0j
    classical = {0.0: z}
    t = 0.0
    for _ in range(int(round(t_end / dt))):
        k1 = field(z)
        k2 = field(z + 0.5 * dt * k1)
        k3 = field(z + 0.5 * dt * k2)
        k4 = field(z + dt * k3)
        z = z + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        classical[round(t, 9)] = z
    worst = max(
        abs(result.expectations["a"][i] - classical[round(result.times[i], 9)])
        for i in range(len(result.times))
    )
    ok = worst <= 1e-4
    ok = ok and result.max_trace_deviation <= 1e-8
    ok = ok and result.max_hermiticity_deviation <= 1e-10
    ok = ok and result.min_eigenvalue >= -1e-8
    report(8, "Ehrenfest tracking of the damped oscillator", ok)


def test_c09_spin_identity_and_duality():
    lam = 0.3
    worst_identity = 0.0
    for l in range(1, 11):
        model = rotator_spin_model(RotatorParams(1.0, 1.0, lam, l=l))
        _lx, _ly, lz = rotator_spin_operators(l)
        gap = adjoint_generator(lz, model).mat + lam * lz.mat
        worst_identity = max(worst_identity, float(np.max(np.abs(gap))))
    rng = np.random.default_rng(1009)
    model = rotator_spin_model(RotatorParams(1.0, 1.0, lam, l=5))
    worst_duality = 0.0
    for _ in range(100):
        rho = random_density_operator(rng, model.dim)
        a = random_operator(rng, model.dim)
        lhs = np.trace(a.mat @ lindblad_rhs(model, rho).mat)
        worst_duality = max(worst_duality, abs(lhs - adjoint_rate(a, model, rho)))
    report(9, "adjoint identity for l_z and generator duality", worst_identity <= 1e-12 and worst_duality <= 1e-12)


def test_c10_closure_quadratic():
    ok = True
    for n in (2.0, 10.0, 100.0, 1e4):
        x = ly2_analytic(n)
        ok = ok and abs(8 * x * x + 1.5 * x - n * n / 8 - n / 4) <= 1e-12
        analytic = closure_stationary(n)
        newton = newton_closure(n)
        for field_name in ("lx", "ly", "lz", "lx2", "ly2", "lz2", "sym_xy"):
            scale = max(1.0, abs(getattr(analytic, field_name)))
            ok = ok and abs(getattr(analytic, field_name) - getattr(newton, field_name)) <= 1e-10 * scale
    for n in (50.0, 100.0, 1000.0):
        ok = ok and abs(ly2_analytic(n) - n / 8) / (n / 8) < 0.01
    report(10, "closure quadratic: roots, Newton agreement, N/8 asymptote", ok)


def test_c11_exact_stationary_spin_states():
    lam = 0.3
    ok = True
    for l in range(1, 16):
        model = rotator_spin_model(RotatorParams(1.0, 1.0, lam, l=l))
        state = stationary(model)
        residual = np.max(np.abs(lindblad_rhs(model, state).mat))
        _lx, _ly, lz = rotator_spin_operators(l)
        ok = ok and residual <= 1e-10
        ok = ok and abs(expectation(state, lz)) <= 1e-9
    params = RotatorParams(1.0, 1.0, lam, l=15)
    rows = closure_vs_exact_report(params).rows
    ok = ok and len(rows) == 15
    for row in rows:
        ok = ok and np.isfinite(row.rel_deviation)
    print("closure vs exact (N, x_closure, x_exact, deviation):")
    for row in rows:
        print(
            f"  N={row.n_excitations:>4.0f}  x_closure={row.x_closure:.6f}"
            f"  x_exact={row.x_exact:.6f}  dev={row.rel_deviation:.3%}"
        )
    report(11, "exact stationary spin states and closure comparison", ok)


def test_c12_classical_spin_flow():
    params = RotatorParams(1.0, 1.0, 0.2)
    h = rotator_spin_hamiltonian(params)
    r = rotator_spin_channel(params)
    l0 = [0.4, 0.7, 0.3]
    conserving = classical_spin_flow(h, r, l0, 50.0, 1e-3, record_every=500)
    magnitudes = conserving.magnitude_squared()
    ok = np.max(np.abs(magnitudes - magnitudes[0])) <= 1e-10

    z0 = np.array([0.8 + 0.2j, 0.5 - 0.4j])
    pair = RotatorParams(1.1, 0.9, 0.2)
    two_mode = classical_flow(rotator_faq(pair), z0, 10.0, 1e-3, record_every=100)
    spin = classical_spin_flow(
        rotator_spin_hamiltonian(pair),
        rotator_spin_channel(pair),
        spin_components(z0),
        10.0,
        1e-3,
        record_every=100,
    )
    mapped = np.array([spin_components(two_mode.states[i]) for i in range(len(two_mode))])
    ok = ok and np.max(np.abs(mapped - spin.states)) <= 1e-6

    horizon = 50.0 / params.lam
    synchronizing = classical_spin_flow(h, r, l0, horizon, 5e-3, record_every=2000)
    ok = ok and abs(synchronizing.states[-1, 1]) <= 1e-4
    report(12, "classical spin flow: conservation, consistency, synchronization", ok)


def test_c13_phase_model_locking():
    coupling = 0.2
    locked = phase_model_flow(1.0 + 0.5 * 2 * coupling, 1.0, coupling, [0.3, 0.0], 400.0, 0.01)
    drifting = phase_model_flow(1.0 + 1.5 * 2 * coupling, 1.0, coupling, [0.3, 0.0], 400.0, 0.01)
    report(13, "phase-model locking threshold at |delta| = 2a", locked.locked and not drifting.locked)


def test_c14_cli_determinism(tmp_path):
    config = {
        "experiment": "limit-cycle",
        "seed": 2026,
        "params": {"omega": 1.0, "lambda": 1.0, "mu": 1.0},
        "numerics": {"dim": 24, "n_max": 30},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_root = tmp_path / "runs"

    def digest():
        out = {}
        for file in sorted(out_root.rglob("*")):
            if file.is_file():
                out[str(file.relative_to(out_root))] = hashlib.sha256(file.read_bytes()).hexdigest()
        return out

    assert cli_main(["run", str(path), "--output-dir", str(out_root)]) == 0
    first = digest()
    assert cli_main(["run", str(path), "--output-dir", str(out_root)]) == 0
    second = digest()
    csv_files = [name for name in first if name.endswith(".csv")]
    report(14, "CLI determinism: byte-identical reruns", first == second and len(csv_files) >= 1)
