"""Output checks computed apart from the program.

Every check reads the artifacts a run wrote (or the object a direct call
returned) and compares them with a closed form or a method property that
is computed here with numpy and scipy.  No check compares against a stored
copy of earlier output.  Each function returns a list of problems; an empty
list means the output passed.

The tolerances are set from the numerical method, not from today's
figures: fixed-step RK4 with the step sizes used here has a global error
far below 1e-9 on these smooth flows, and the stationary solves are
accurate to rounding.
"""

from __future__ import annotations

import csv
import json
from math import sqrt
from pathlib import Path

import numpy as np
from scipy.linalg import expm, null_space
from scipy.special import hyp1f1

# RK4 trajectories against closed forms (absolute, scaled by the state size).
FLOW_TOL = 1e-9
# Stationary states against closed forms and generator residuals.
STATE_TOL = 1e-9
# Invariants the program itself guarantees to rounding.
ROUNDING_TOL = 1e-12


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _complex(cell: str) -> complex:
    return complex(cell.replace("i", "j")) if cell.endswith("i") else complex(float(cell))


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text())["config"]


def _summary(run_dir: Path) -> dict:
    return json.loads((run_dir / "summary.json").read_text())


def _compare(problems: list[str], label: str, got, want, tol: float, scale=1.0):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(1.0, np.abs(scale))))
    if not err <= tol:
        problems.append(f"{label}: max deviation {err:.3e} exceeds {tol:.1e}")


# -- oscillator ----------------------------------------------------------------


def _oscillator_moments(omega: float, lam: float, alpha: complex, times: np.ndarray):
    """Exact <a>(t) and <n>(t) of the damped oscillator (u = 0).

    With H = w a+a + (i lam/2)(a+^2 - a^2) and R = sqrt(lam) a in the
    unhalved dissipator, the Heisenberg equations close on
    (<a>, <a+>) and on (<n>, <a^2>, <a+^2>, 1):
      d<a>/dt   = -(i w + lam) <a> + lam <a+>
      d<n>/dt   = -2 lam <n> + lam (<a^2> + <a+^2>)
      d<a^2>/dt = -(2 i w + 2 lam) <a^2> + 2 lam <n> + lam
    """
    first = np.array([[-1j * omega - lam, lam], [lam, 1j * omega - lam]])
    second = np.array([
        [-2.0 * lam, lam, lam, 0.0],
        [2.0 * lam, -2j * omega - 2.0 * lam, 0.0, lam],
        [2.0 * lam, 0.0, 2j * omega - 2.0 * lam, lam],
        [0.0, 0.0, 0.0, 0.0],
    ])
    y1 = np.array([alpha, np.conj(alpha)])
    y2 = np.array([abs(alpha) ** 2, alpha**2, np.conj(alpha) ** 2, 1.0])
    a = np.array([(expm(first * t) @ y1)[0] for t in times])
    n = np.array([(expm(second * t) @ y2)[0] for t in times])
    return a, n


def check_oscillator(run_dir: Path) -> list[str]:
    """quantum.csv and classical.csv against the exact linear moment equations."""
    problems: list[str] = []
    config = _manifest(run_dir)
    p, num = config["params"], config["numerics"]
    if p["u"] != 0.0:
        return [f"closed form needs u = 0, config has u = {p['u']}"]
    omega, lam = p["omega0"], p["lambda"]
    alpha = complex(*num["alpha"])
    scale = max(1.0, abs(alpha) ** 2)

    _header, rows = _read_csv(run_dir / "quantum.csv")
    times = np.array([float(r[0]) for r in rows])
    a_exact, n_exact = _oscillator_moments(omega, lam, alpha, times)
    n_steps = int(round(num["t_end"] / num["evolve.dt"]))
    every = num["sample_every"] or max(1, n_steps // 200)
    expected_samples = 1 + n_steps // every + (1 if n_steps % every else 0)
    if len(rows) != expected_samples:
        problems.append(f"quantum.csv has {len(rows)} samples, expected {expected_samples}")
    if abs(times[-1] - num["t_end"]) > 1e-9 * max(1.0, num["t_end"]):
        problems.append(f"quantum.csv ends at t={times[-1]}, config t_end={num['t_end']}")
    _compare(problems, "quantum <a>", [_complex(r[1]) for r in rows], a_exact, FLOW_TOL, scale)
    _compare(problems, "quantum <n>", [_complex(r[2]) for r in rows], n_exact, FLOW_TOL, scale)

    _header, rows = _read_csv(run_dir / "classical.csv")
    times = np.array([float(r[0]) for r in rows])
    first = np.array([[-1j * omega - lam, lam], [lam, 1j * omega - lam]])
    z_exact = np.array([(expm(first * t) @ [alpha, np.conj(alpha)])[0] for t in times])
    z = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    _compare(problems, "classical z", z, z_exact, FLOW_TOL, scale)
    weight = np.array([float(r[3]) for r in rows])
    # div v = -2 lam for R = sqrt(lam) z, so the density weight is exp(2 lam t)
    _compare(problems, "classical weight", weight / np.exp(2.0 * lam * times), 1.0, FLOW_TOL)

    summary = _summary(run_dir)
    if summary["faq_pass"] is not True:
        problems.append("faq_pass is false")
    if not summary["max_trace_deviation"] <= 1e-10:
        problems.append(f"trace deviation {summary['max_trace_deviation']:.3e} above 1e-10")
    if not summary["max_hermiticity_deviation"] <= 1e-10:
        problems.append(f"hermiticity deviation {summary['max_hermiticity_deviation']:.3e} above 1e-10")
    if not summary["min_eigenvalue"] >= -num["validate.pos_tol"]:
        problems.append(f"min eigenvalue {summary['min_eigenvalue']:.3e} below -pos_tol")
    return problems


# -- limit cycle ---------------------------------------------------------------


def limit_cycle_moments(nu: float) -> tuple[float, float]:
    """<n> and Mandel Q from the generating function, via scipy's 1F1."""
    norm = hyp1f1(1.0, nu, 2.0 * nu)
    mean = hyp1f1(2.0, nu + 1.0, 2.0 * nu) / norm
    factorial2 = 2.0 * nu / (nu + 1.0) * hyp1f1(3.0, nu + 2.0, 2.0 * nu) / norm
    return mean, factorial2 / mean - mean


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def lindblad_apply(h: np.ndarray, channels, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_j (2 R rho R+ - R+R rho - rho R+R)."""
    out = -1j * (h @ rho - rho @ h)
    for r in channels:
        rd = r.conj().T
        out += 2.0 * r @ rho @ rd - rd @ r @ rho - rho @ rd @ r
    return out


def _check_limit_cycle_row(problems, label, row: dict, nu: float):
    mean, q = limit_cycle_moments(nu)
    _compare(problems, f"{label} mean_n", float(row["mean_n"]), mean, STATE_TOL, mean)
    _compare(problems, f"{label} mandel_q", float(row["mandel_q"]), q, STATE_TOL)
    if not float(row["diag_max_error"]) <= STATE_TOL:
        problems.append(f"{label} diag_max_error {row['diag_max_error']} above {STATE_TOL}")
    # The generator commutes with the number superoperator: no coherences.
    if not float(row["offdiag_max"]) <= STATE_TOL:
        problems.append(f"{label} offdiag_max {row['offdiag_max']} above {STATE_TOL}")
    if str(row["faq_pass"]) not in ("1", "True", "true"):
        problems.append(f"{label} faq_pass is false")


def check_limit_cycle(run_dir: Path) -> list[str]:
    """Stationary state (or sweep rows) against the 1F1 closed forms."""
    problems: list[str] = []
    config = _manifest(run_dir)
    p, num = config["params"], config["numerics"]
    if config["sweep"]:
        header, rows = _read_csv(run_dir / "sweep.csv")
        records = [dict(zip(header, r)) for r in rows]
        grid = config["sweep"]["params.lambda"]
        if len(records) != len(grid):
            problems.append(f"sweep.csv has {len(records)} rows, grid has {len(grid)}")
        for record, lam in zip(records, grid):
            nu = lam / p["mu"]
            if abs(float(record["nu"]) - nu) > ROUNDING_TOL:
                problems.append(f"sweep row lambda={lam}: nu {record['nu']} != {nu}")
            _check_limit_cycle_row(problems, f"sweep row lambda={lam}", record, nu)
        return problems

    nu = p["lambda"] / p["mu"]
    dim = num["dim"]
    _check_limit_cycle_row(problems, "summary", _summary(run_dir), nu)
    _header, rows = _read_csv(run_dir / "stationary_state.csv")
    if len(rows) != dim * dim:
        return problems + [f"stationary_state.csv has {len(rows)} entries, expected {dim * dim}"]
    rho = np.zeros((dim, dim), dtype=complex)
    for r in rows:
        rho[int(r[0]), int(r[1])] = complex(float(r[2]), float(r[3]))
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= ROUNDING_TOL:
        problems.append(f"stationary state not Hermitian: {herm:.3e}")
    trace_dev = abs(np.trace(rho) - 1.0)
    if not trace_dev <= ROUNDING_TOL:
        problems.append(f"stationary trace deviation {trace_dev:.3e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if not min_eig >= -num["validate.pos_tol"]:
        problems.append(f"stationary state has eigenvalue {min_eig:.3e}")
    a = _ladder(dim)
    ad = a.conj().T
    h = p["omega"] * ad @ a
    channels = [sqrt(p["lambda"]) * ad, sqrt(p["mu"]) * a @ a]
    residual = float(np.max(np.abs(lindblad_apply(h, channels, rho))))
    if not residual <= STATE_TOL:
        problems.append(f"stationary residual {residual:.3e} under the rebuilt generator")
    diag = np.diag(rho).real
    ns = np.arange(dim)
    mean_state = float(ns @ diag)
    mean, q = limit_cycle_moments(nu)
    _compare(problems, "state <n>", mean_state, mean, STATE_TOL, mean)
    q_state = float((ns * (ns - 1)) @ diag) / mean_state - mean_state
    _compare(problems, "state Mandel Q", q_state, q, STATE_TOL)
    return problems


# -- rotators ------------------------------------------------------------------


def spin_matrices(l: float):
    """l_x, l_y, l_z in the basis m = -l..l (any basis serves the checks)."""
    dim = int(round(2 * l)) + 1
    ms = -l + np.arange(dim)
    lz = np.diag(ms).astype(complex)
    lplus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        lplus[i + 1, i] = sqrt(l * (l + 1) - ms[i] * (ms[i] + 1))
    lminus = lplus.conj().T
    return (lplus + lminus) / 2.0, (lplus - lminus) / 2j, lz


def rotator_stationary_ly2(omega1, omega2, lam, l) -> tuple[float, int]:
    """<l_y^2> in the unique stationary state of the spin rotator model,
    from scipy's null space of the column-stacked generator."""
    lx, ly, lz = spin_matrices(l)
    dim = lx.shape[0]
    h = -(omega1 - omega2) * lz - lam * (ly @ lz + lz @ ly)
    r = sqrt(lam) * (lz - 1j * ly)
    eye = np.eye(dim)
    rdr = r.conj().T @ r
    gen = (
        -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        + 2.0 * np.kron(r.conj(), r) - np.kron(eye, rdr) - np.kron(rdr.T, eye)
    )
    basis = null_space(gen, rcond=1e-10)
    if basis.shape[1] != 1:
        return float("nan"), basis.shape[1]
    rho = basis[:, 0].reshape((dim, dim), order="F")
    rho = rho / np.trace(rho)
    return float(np.trace(rho @ ly @ ly).real), 1


def closure_noise_level(n: float) -> float:
    return (sqrt(n * n + 2.0 * n + 9.0 / 16.0) - 0.75) / 8.0


def check_rotators(run_dir: Path) -> list[str]:
    """closure.csv: exact noise level against our own null vector, and the
    closure value against its closed form."""
    problems: list[str] = []
    p = _manifest(run_dir)["params"]
    header, rows = _read_csv(run_dir / "closure.csv")
    records = [dict(zip(header, r)) for r in rows]
    expected_l = [float(k) for k in range(1, int(p["l"]) + 1)]
    if [float(r["l"]) for r in records] != expected_l:
        problems.append(f"closure.csv rows {[r['l'] for r in records]} do not cover l = 1..{int(p['l'])}")
    for record in records:
        l = float(record["l"])
        x_exact = float(record["x_exact"])
        x_ours, null_dim = rotator_stationary_ly2(p["omega1"], p["omega2"], p["lambda"], l)
        if null_dim != 1:
            problems.append(f"l={l}: our generator has null space dimension {null_dim}")
        else:
            _compare(problems, f"l={l} x_exact", x_exact, x_ours, STATE_TOL, x_ours)
        _compare(problems, f"l={l} x_closure", float(record["x_closure"]),
                 closure_noise_level(2 * l), ROUNDING_TOL)
        if float(record["N"]) != 2 * l:
            problems.append(f"l={l}: N = {record['N']}, expected {2 * l}")
    return problems


def check_conformance(run_dir: Path) -> list[str]:
    """First-order moment rates agree within tol; second-order deviations
    are data, recorded by the program and not judged here."""
    problems: list[str] = []
    tol = _manifest(run_dir)["numerics"]["tol"]
    header, rows = _read_csv(run_dir / "conformance.csv")
    records = {r[0]: dict(zip(header, r)) for r in rows}
    expected = {"lx", "ly", "lz", "ly^2", "lz^2", "sym(lx,ly)"}
    if set(records) != expected:
        problems.append(f"conformance.csv lists {sorted(records)}")
    for name in ("lx", "ly", "lz"):
        record = records.get(name)
        if record is None:
            continue
        deviation = float(record["max_abs_deviation"])
        if not deviation <= tol or record["agrees"] != "1":
            problems.append(f"first-order rate {name}: deviation {deviation:.3e} above tol {tol:.1e}")
    return problems
