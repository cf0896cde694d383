"""Layer suite for the traced run.

Each item calls one layer's public function at a fixed size, inside a
bench span, while the span recorder is installed; the per-layer metric is
read from the recorded spans of that function below the item's span.
Where the hot call is private (LindbladModel._rhs_mat,
Polynomial._evaluate_coords), the layer is timed through its public
function.  The suite is the same on every workload, so each per-layer
metric means the same thing whichever workload reports it.
"""

from __future__ import annotations

import importlib
from statistics import median

import numpy as np

from tracing import SpanRecorder

# (metric, unit, better) in the order they are reported.
PER_LAYER = [
    ("lindblad.rhs_us.d40", "us", "lower"),
    ("lindblad.rhs_us.d80", "us", "lower"),
    ("lindblad.evolve_self_s.d40", "s", "lower"),
    ("lindblad.liouvillian_ms.d30", "ms", "lower"),
    ("lindblad.liouvillian_ms.d40", "ms", "lower"),
    ("lindblad.stationary_s.d30", "s", "lower"),
    ("lindblad.stationary_s.d40", "s", "lower"),
    ("lindblad.stationary_calls", "count", "lower"),
    ("lindblad.liouvillian_bytes.d40", "bytes", "lower"),
    ("lindblad.expectation_us.d40", "us", "lower"),
    ("faq.ensemble_step_us.1mode", "us", "lower"),
    ("faq.ensemble_step_us.2mode", "us", "lower"),
    ("faq.verify_ms", "ms", "lower"),
    ("observables.evaluate_us", "us", "lower"),
    ("integrate.step_overhead_us", "us", "lower"),
    ("models.spin_step_us", "us", "lower"),
    ("models.recurrence_ms", "ms", "lower"),
    ("models.closure_report_s", "s", "lower"),
    ("quantize.normal_ms.d40", "ms", "lower"),
    ("quantize.weyl_ms.deg8.d40", "ms", "lower"),
    ("faq.self_s", "s", "lower"),
    ("integrate.self_s", "s", "lower"),
    ("quantize.self_s", "s", "lower"),
    ("lindblad.self_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

EVOLVE_STEPS = 1000
ENSEMBLE_STEPS = 1000
LINEAR_STEPS = 10000
SPIN_STEPS = 500


def _item(rec: SpanRecorder, label: str, body, repeat: int = 1) -> int:
    with rec.span(f"bench.suite.{label}") as index:
        for _ in range(repeat):
            body()
    return index


def run_suite(rec: SpanRecorder, points: list[tuple[complex, complex]], seed: int) -> dict[str, float]:
    """Run every layer item under the installed recorder; return the metrics."""
    m = {name: importlib.import_module(f"semiq.{name}")
         for name in ("observables", "faq", "integrate", "quantize", "lindblad", "models")}
    lb, models, faq, quantize = m["lindblad"], m["models"], m["faq"], m["quantize"]
    PhasePoint, Polynomial = m["observables"].PhasePoint, m["observables"].Polynomial
    out: dict[str, float] = {}

    def med_us(name, index):
        return 1e6 * median(rec.durations(name, index))

    oscillator = models.OscillatorParams(omega0=1.0, lam=0.1)
    states = {}
    for dim, calls in ((40, 300), (80, 100)):
        model = models.oscillator_lindblad(oscillator, dim)
        rho = lb.DensityMatrix.coherent_state(dim, 2.0)
        states[dim] = (model, rho)
        index = _item(rec, f"rhs.d{dim}", lambda: lb.lindblad_rhs(model, rho), calls)
        out[f"lindblad.rhs_us.d{dim}"] = med_us("lindblad.lindblad_rhs", index)

    model, rho = states[40]
    index = _item(rec, "evolve.d40", lambda: lb.evolve(model, rho, EVOLVE_STEPS * 0.001, 0.001))
    out["lindblad.evolve_self_s.d40"] = rec.self_times(index)["lindblad"]

    n_op = quantize.number(40)
    index = _item(rec, "expectation.d40", lambda: lb.expectation(rho, n_op), 300)
    out["lindblad.expectation_us.d40"] = med_us("lindblad.expectation", index)

    limit_cycle = models.LimitCycleParams(omega=1.0, lam=1.0, mu=1.0)
    for dim in (30, 40):
        lc_model = models.limit_cycle_lindblad(limit_cycle, dim)
        index = _item(rec, f"stationary.d{dim}", lambda: lb.stationary(lc_model))
        out[f"lindblad.liouvillian_ms.d{dim}"] = 1e3 * median(rec.durations("lindblad.liouvillian_matrix", index))
        out[f"lindblad.stationary_s.d{dim}"] = median(rec.durations("lindblad.stationary", index))
    # The vectorized generator is a dense complex d^2 x d^2 matrix: computed, not measured.
    out["lindblad.liouvillian_bytes.d40"] = 16.0 * 40**4

    flow_system = models.limit_cycle_faq(models.LimitCycleParams(omega=1.0, lam=0.5, mu=0.5))
    flow_points = [PhasePoint([z]) for z in (0.1, 1.5, 0.7j)]
    index = _item(rec, "ensemble.1mode",
                  lambda: faq.ensemble_weights(flow_system, flow_points, ENSEMBLE_STEPS * 0.001, 0.001))
    out["faq.ensemble_step_us.1mode"] = (
        1e6 * median(rec.durations("faq.ensemble_weights", index)) / (len(flow_points) * ENSEMBLE_STEPS)
    )

    rotator = models.RotatorParams(omega1=1.0, omega2=1.0, lam=0.3)
    rotator_system = models.rotator_faq(rotator)
    rotator_points = [PhasePoint(list(p)) for p in points[:3]]
    index = _item(rec, "ensemble.2mode",
                  lambda: faq.ensemble_weights(rotator_system, rotator_points, ENSEMBLE_STEPS * 0.002, 0.002))
    out["faq.ensemble_step_us.2mode"] = (
        1e6 * median(rec.durations("faq.ensemble_weights", index)) / (len(rotator_points) * ENSEMBLE_STEPS)
    )

    samples = faq.sample_phase_points(2, 100, seed=seed)
    field = models.rotator_field(rotator)
    index = _item(rec, "verify", lambda: faq.verify_faq(rotator_system, field, samples, 1e-12), 5)
    out["faq.verify_ms"] = 1e3 * median(rec.durations("faq.verify_faq", index))

    drift = rotator_system.drift_polynomials[0]
    eval_points = [PhasePoint(list(p)) for p in points]

    def evaluate_all():
        for point in eval_points:
            with rec.span("observables.Polynomial.evaluate"):
                drift.evaluate(point)

    index = _item(rec, "evaluate", evaluate_all, 10)
    out["observables.evaluate_us"] = med_us("observables.Polynomial.evaluate", index)

    y0 = np.array([1.0, 0.0])
    index = _item(rec, "rk4.linear",
                  lambda: m["integrate"].rk4_path(lambda _t, y: -y, y0, LINEAR_STEPS * 0.001, 0.001))
    out["integrate.step_overhead_us"] = 1e6 * median(rec.durations("integrate.rk4_path", index)) / LINEAR_STEPS

    hamiltonian = models.rotator_spin_hamiltonian(rotator)
    channel = models.rotator_spin_channel(rotator)
    l0 = [0.3, 0.4, 0.5]
    index = _item(rec, "spin",
                  lambda: models.classical_spin_flow(hamiltonian, channel, l0, SPIN_STEPS * 0.002, 0.002))
    out["models.spin_step_us"] = 1e6 * median(rec.durations("models.classical_spin_flow", index)) / SPIN_STEPS

    index = _item(rec, "recurrence", lambda: models.recurrence_stationary(1.0, 40), 20)
    out["models.recurrence_ms"] = 1e3 * median(rec.durations("models.recurrence_stationary", index))

    index = _item(rec, "closure", lambda: models.closure_vs_exact_report(models.RotatorParams(1.0, 1.0, 0.3, 10)))
    out["models.closure_report_s"] = median(rec.durations("models.closure_vs_exact_report", index))

    space = quantize.FockSpace((40,))
    lc_system = models.limit_cycle_faq(limit_cycle)
    polys = [lc_system.hamiltonian, *lc_system.channels]

    def normal_all():
        with rec.span("bench.normal_set"):
            for poly in polys:
                quantize.normal_quantize(poly, space)

    index = _item(rec, "normal.d40", normal_all, 5)
    out["quantize.normal_ms.d40"] = 1e3 * median(rec.durations("bench.normal_set", index))

    weyl_poly = Polynomial.monomial(1, {0: (4, 4)})
    index = _item(rec, "weyl.deg8.d40", lambda: quantize.weyl_quantize(weyl_poly, space), 3)
    out["quantize.weyl_ms.deg8.d40"] = 1e3 * median(rec.durations("quantize.weyl_quantize", index))
    return out
