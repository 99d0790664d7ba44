"""Reference computations the benchmark checks every program output against.

The oracle shares no code with the program. It rests on excitation-number
conservation: every protocol starts in |100>, the Hamiltonian conserves the
total excitation number and every jump lowers it (or, for spin dephasing,
keeps it), so the state never leaves span{|000>, |100>, |010>, |001>}.

- Energy decay: the single-excitation populations are those of the no-jump
  amplitude psi(t) = exp(-i H_eff t) |100>, with the 3x3
  H_eff = H - (i/2) sum_k 2 pi kappa_k n_k.
- Spin dephasing: the 4x4 density block on that span evolves under its own
  16x16 Lindblad generator.

Each check function raises :class:`CheckFailed` with a reason, or returns the
number of individual comparisons it made.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi
PLANCK_H = 6.62607015e-34
EXACT_TOL = 1e-9
GOLDEN_SLACK = 1e-4     # the program reports the earliest peak within this of the global one
EXPM_CHUNK = 100        # sample times per batched expm, so the oracle's memory stays below the program's
TRAJECTORY_HEADER = "t_s,P_sc,P_p,P_e,F_sc,F_p,F_e,trace_err"


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- dynamics ---------------------------------------------------------------

def _hamiltonian(rates: dict, d_sc: float, d_e: float, d_p: float) -> np.ndarray:
    """Rotating-frame H (angular) on (|000>, |100>, |010>, |001>).

    sigma_z is +1 on an excited qubit, so (delta/2) sigma_z raises it by delta/2.
    """
    h = np.diag([-d_sc / 2 - d_e / 2, d_sc / 2 - d_e / 2, -d_sc / 2 - d_e / 2 + d_p, -d_sc / 2 + d_e / 2])
    h = h.astype(complex)
    h[1, 2] = h[2, 1] = rates["g_scp"]
    h[3, 2] = h[2, 3] = rates["g_pe"]
    return TWO_PI * h


def _no_jump_generator(rates: dict, deltas) -> np.ndarray:
    """-i H_eff on the single-excitation block (|100>, |010>, |001>)."""
    h_eff = _hamiltonian(rates, *deltas)[1:, 1:] - 0.5j * TWO_PI * np.diag(
        [rates["kappa_sc"], rates["kappa_p"], rates["kappa_e"]]
    )
    return -1j * h_eff


def _dephasing_generator(rates: dict, deltas) -> np.ndarray:
    """Row-major vectorized Lindblad generator on the 4x4 block, spin dephasing model."""
    h = _hamiltonian(rates, *deltas)
    eye = np.eye(4)
    lower_sc = np.zeros((4, 4))
    lower_sc[0, 1] = 1.0
    lower_p = np.zeros((4, 4))
    lower_p[0, 2] = 1.0
    sz_e = np.diag([-1.0, -1.0, -1.0, 1.0])
    jumps = [
        (TWO_PI * rates["kappa_sc"], lower_sc),
        (TWO_PI * rates["kappa_p"], lower_p),
        (math.pi * rates["kappa_e"], sz_e),
    ]
    # row-major vec: vec(A X B) = kron(A, B.T) vec(X)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in jumps:
        cdc = c.T @ c
        gen += rate * (np.kron(c, c) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen


class Schedule:
    """Piecewise-constant detunings [(t_start, t_end, (d_sc, d_e, d_p)), ...]."""

    def __init__(self, segments):
        self.segments = list(segments)

    @classmethod
    def for_protocol(cls, kind: str, rates: dict, horizon: float | None = None,
                     delta_p: float | None = None, delta_i: float | None = None) -> "Schedule":
        if kind == "resonant":
            return cls([(0.0, horizon, (0.0, 0.0, 0.0))])
        if kind == "virtual-phonon":
            return cls([(0.0, horizon, (0.0, 0.0, delta_p))])
        t1 = 1.0 / (4.0 * rates["g_scp"])
        t2 = 1.0 / (4.0 * rates["g_pe"])
        return cls([(0.0, t1, (0.0, delta_i, 0.0)), (t1, t1 + t2, (delta_i, 0.0, 0.0))])

    @property
    def duration(self) -> float:
        return self.segments[-1][1]


def populations(rates: dict, schedule: Schedule, times: np.ndarray, decay_model: str = "energy") -> np.ndarray:
    """(len(times), 3) populations of |100>, |010>, |001> at ``times``."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, 3))
    dephasing = decay_model == "dephasing"
    if dephasing:
        state = np.zeros(16, dtype=complex)
        state[1 * 4 + 1] = 1.0
    else:
        state = np.array([1.0, 0.0, 0.0], dtype=complex)
    done = np.zeros(times.size, dtype=bool)
    n_seg = len(schedule.segments)
    for k, (t0, t1, deltas) in enumerate(schedule.segments):
        last = k == n_seg - 1
        gen = _dephasing_generator(rates, deltas) if dephasing else _no_jump_generator(rates, deltas)
        # a sample exactly on a boundary (to rounding) belongs to the earlier segment
        sel = ~done & ((times <= t1 + 1e-9 * (t1 - t0)) | last)
        dts = np.clip(times[sel] - t0, 0.0, None)
        if dts.size:
            states = np.concatenate([expm(gen[None, :, :] * dts[j:j + EXPM_CHUNK, None, None]) @ state
                                     for j in range(0, dts.size, EXPM_CHUNK)])
            out[sel] = states[:, [5, 10, 15]].real if dephasing else np.abs(states) ** 2
        done |= sel
        state = expm(gen * (t1 - t0)) @ state
    return out


def f_e_at(rates: dict, schedule: Schedule, t: float) -> float:
    return float(populations(rates, schedule, np.array([t]))[0, 2])


def _grid(duration: float) -> np.ndarray:
    ts = duration * np.arange(2001) / 2000.0
    ts[-1] = duration
    return ts


def check_trajectory(csv_text: str, case) -> int:
    """Compare every P/F sample of ``trajectory.csv`` with the closed form."""
    lines = csv_text.splitlines()
    _require(lines and lines[0] == TRAJECTORY_HEADER, "trajectory.csv header differs")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    _require(data.shape == (2001, 8), f"trajectory.csv has shape {data.shape}, expected (2001, 8)")
    _require(np.all(np.isfinite(data)), "trajectory.csv holds non-finite values")
    times = data[:, 0]
    rates = case.rates
    if case.kind == "resonant":
        horizon = 1.5 / min(rates["g_scp"], rates["g_pe"])
    elif case.kind == "virtual-phonon":
        h0 = 3.0 * abs(case.delta_p) / (4.0 * rates["g_scp"] * rates["g_pe"])
        horizon = times[-1]
        doublings = math.log2(horizon / h0)
        _require(
            abs(doublings - round(doublings)) < 1e-9 and 0 <= round(doublings) <= 3,
            f"virtual horizon {horizon:.6e} s is not h0 * 2^k (h0 = {h0:.6e} s, k <= 3)",
        )
        horizon = h0 * 2.0 ** round(doublings)
    else:
        horizon = 1.0 / (4.0 * rates["g_scp"]) + 1.0 / (4.0 * rates["g_pe"])
    schedule = Schedule.for_protocol(case.kind, rates, horizon, case.delta_p, case.delta_i)
    grid = _grid(schedule.duration)
    _require(np.abs(times - grid).max() <= 1e-12 * schedule.duration, "sample times differ from the uniform grid")
    ref = populations(rates, schedule, grid, case.decay_model)
    tol = 10.0 * case.rel_tol if case.method == "adaptive-stepper" else EXACT_TOL
    for col, name in ((1, "P_sc"), (2, "P_p"), (3, "P_e"), (4, "F_sc"), (5, "F_p"), (6, "F_e")):
        err = np.abs(data[:, col] - ref[:, (col - 1) % 3])
        k = int(np.argmax(err))
        _require(err[k] <= tol, f"{name} differs from the oracle by {err[k]:.3e} at t = {times[k]:.6e} s")
    _require(data[:, 7].max() <= tol, f"trace_err reaches {data[:, 7].max():.3e}")
    return 6 * 2001 + 1


# --- sweeps -----------------------------------------------------------------

def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _peak_check(rates: dict, kind: str, f_e_max: float, t_opt: float, **kw) -> int:
    """F_e(t_opt) equals f_e_max, and no sampled point of the default horizon beats it."""
    if kind == "resonant":
        h0 = 1.5 / min(rates["g_scp"], rates["g_pe"])
    elif kind == "virtual-phonon":
        h0 = 3.0 * abs(kw["delta_p"]) / (4.0 * rates["g_scp"] * rates["g_pe"])
    else:
        h0 = None
    schedule = Schedule.for_protocol(kind, rates, h0, kw.get("delta_p"), kw.get("delta_i"))
    _require(0.0 <= t_opt, f"t_opt {t_opt} is negative")
    ref = f_e_at(rates, schedule, t_opt)
    _require(abs(ref - f_e_max) <= EXACT_TOL, f"{kind}: f_e_max {f_e_max!r} but F_e(t_opt) = {ref!r}")
    coarse = populations(rates, schedule, _grid(schedule.duration))[:, 2].max()
    _require(
        f_e_max >= coarse - GOLDEN_SLACK - EXACT_TOL,
        f"{kind}: f_e_max {f_e_max!r} is below the sampled maximum {coarse!r}",
    )
    return 2


def check_sweep(out_dir: Path, case) -> int:
    """Check ``sweep.csv`` / ``hierarchy.csv`` rows and the summary against the oracle."""
    if case.kind == "hierarchy":
        return _check_hierarchy(out_dir, case)
    rows = _read_csv(out_dir / "sweep.csv")
    _require(rows[0] == ["param", "f_e_max", "t_opt_s", "protocol"], "sweep.csv header differs")
    rows = rows[1:]
    _require(len(rows) == len(case.values), f"sweep.csv has {len(rows)} rows, expected {len(case.values)}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _require(summary["kind"] == case.kind and len(summary["points"]) == len(rows), "summary.json disagrees with the grid")
    protocol = {"delta-i": "double-rabi", "delta-p": "virtual-phonon", "delta-g": "resonant"}[case.kind]
    checks = 0
    for k, (row, value) in enumerate(zip(rows, case.values)):
        param, f_e_max, t_opt = (float(x) for x in row[:3])
        _require(param == value, f"row {k}: param {param!r} is not the grid value {value!r}")
        point = summary["points"][k]
        if k == case.invalid_index:
            _require(
                math.isnan(f_e_max) and math.isnan(t_opt) and point["error"],
                f"row {k}: g_scp <= 0 should give a recorded NaN row",
            )
            checks += 1
            continue
        _require(row[3] == protocol and point["error"] is None, f"row {k}: unexpected failure {point['error']!r}")
        rates = dict(case.rates)
        kw = {}
        if case.kind == "delta-g":
            rates["g_scp"] = rates["g_pe"] + value
        elif case.kind == "delta-p":
            kw["delta_p"] = value
        else:
            kw["delta_i"] = value
        checks += _peak_check(rates, protocol, f_e_max, t_opt, **kw)
    return checks


def _check_hierarchy(out_dir: Path, case) -> int:
    rows = _read_csv(out_dir / "hierarchy.csv")
    _require(rows[0] == ["param", "f_e_max", "t_opt_s", "protocol", "best_protocol"], "hierarchy.csv header differs")
    rows = rows[1:]
    _require(len(rows) == 3 * len(case.values), f"hierarchy.csv has {len(rows)} rows")
    checks = 0
    for i, q in enumerate(case.values):
        block = rows[3 * i: 3 * i + 3]
        rates_q = dict(case.rates, kappa_p=case.rates["f_p"] / q)
        g = min(rates_q["g_scp"], rates_q["g_pe"])
        matched = dict(rates_q, g_scp=g, g_pe=g)
        fs = []
        for proto, row in enumerate(block, start=1):
            _require(float(row[0]) == q and int(row[3]) == proto, f"Q {q!r}: row order differs")
            f, t = float(row[1]), float(row[2])
            if proto == 1:
                checks += _peak_check(matched, "resonant", f, t)
            elif proto == 2:
                checks += _peak_check(matched, "virtual-phonon", f, t, delta_p=case.delta_p)
            else:
                checks += _peak_check(rates_q, "double-rabi", f, t, delta_i=case.delta_i)
            fs.append(f)
        best = int(np.argmax(fs)) + 1
        _require(all(int(r[4]) == best for r in block), f"Q {q!r}: best_protocol is not the argmax {best}")
        checks += 1
    return checks


# --- device and spin --------------------------------------------------------

def coupling_reference(mesh, case) -> dict:
    """README formulas evaluated with numpy on the generated arrays."""
    rates, caps = case.rates, case.caps
    c_total = caps["c_s_f"] + caps["c_j_f"] + caps["c_idt_f"]
    photon = math.sqrt(PLANCK_H * rates["f_sc"] / (c_total * caps["v_app_v"] ** 2 / 2.0))
    phonon = math.sqrt(PLANCK_H * rates["f_p"] / (float(mesh.volumes @ mesh.compliance) / 2.0))
    e = mesh.e_field * photon
    t = mesh.strain * phonon
    dt = t @ mesh.piezo.T                       # d . t per cell
    integrand = np.einsum("ci,ci->c", e.conj(), dt) + np.einsum("ci,ci->c", dt, e)
    g_scp = float((mesh.volumes @ integrand).real) / (2.0 * PLANCK_H)
    # rotated strain tensor: eps' = R eps R^T, engineering shear halved
    s = t
    eps = np.empty((s.shape[0], 3, 3))
    eps[:, 0, 0], eps[:, 1, 1], eps[:, 2, 2] = s[:, 0], s[:, 1], s[:, 2]
    eps[:, 1, 2] = eps[:, 2, 1] = s[:, 3] / 2
    eps[:, 0, 2] = eps[:, 2, 0] = s[:, 4] / 2
    eps[:, 0, 1] = eps[:, 1, 0] = s[:, 5] / 2
    r = case.rotation
    rot = np.einsum("ij,cjk,lk->cil", r, eps, r)
    g_map = case.chi_eff * (rot[:, 0, 0] - rot[:, 1, 1])
    k = int(np.argmax(np.abs(g_map)))
    return {
        "g_scp_hz": g_scp,
        "g_pe_max_signed_hz": float(g_map[k]),
        "g_pe_max_hz": abs(float(g_map[k])),
        "g_pe_max_position_m": [float(x) for x in mesh.positions[k]],
        "photon_zero_point_scale": photon,
        "phonon_zero_point_scale": phonon,
        "cells": mesh.n_cells,
    }


def _close(a: float, b: float, rel: float = EXACT_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_coupling(report: dict, reference: dict) -> int:
    for key in ("g_scp_hz", "g_pe_max_hz", "g_pe_max_signed_hz", "photon_zero_point_scale", "phonon_zero_point_scale"):
        _require(_close(report[key], reference[key]), f"coupling.json {key} = {report[key]!r}, oracle {reference[key]!r}")
    _require(report["cells"] == reference["cells"], f"coupling.json cells = {report['cells']}")
    _require(report["g_pe_max_position_m"] == reference["g_pe_max_position_m"], "coupling.json g_pe maximum position differs")
    return 7


def _spin_levels(case, b_x: float, b_z: float):
    """Sorted eigenvalues and eigenvectors of the 4x4 spin-orbit + Zeeman Hamiltonian (q = 0)."""
    lam, gz, gx = case.lambda_g, case.gamma_s * b_z, case.gamma_s * b_x
    h = np.array(
        [[gz, gx, -1j * lam, 0], [gx, -gz, 0, 1j * lam], [1j * lam, 0, gz, gx], [0, -1j * lam, gx, -gz]],
        dtype=complex,
    )
    return np.linalg.eigh(h)


def check_spin_field(out_dir: Path, case) -> int:
    rows = _read_csv(out_dir / "spin_field.csv")
    _require(rows[0] == ["B_mag_T", "B_x_T", "B_z_T", "nu1_Hz", "nu3_Hz", "splitting_Hz", "g_pe_Hz"],
             "spin_field.csv header differs")
    rows = [[float(x) for x in r] for r in rows[1:]]
    _require(len(rows) == len(case.b_grid), "spin_field.csv row count differs from the grid")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    alpha = case.chi_eff * case.reference_strain
    h_strain = np.diag([alpha, alpha, -alpha, -alpha]).astype(complex)
    checks = 0
    for k, (row, b) in enumerate(zip(rows, case.b_grid)):
        _require(row[0] == b, f"row {k}: |B| {row[0]!r} is not the grid value {b!r}")
        if k == case.unreachable_index:
            _require(all(math.isnan(x) for x in row[1:]), f"row {k}: unreachable |B| should be a NaN row")
            _require(any(f"{b:g} T flagged" in w for w in manifest["warnings"]), f"row {k}: NaN row is not flagged")
            checks += 2
            continue
        _, b_x, b_z, nu1, nu3, split, g_pe = row
        _require(abs(math.hypot(b_x, b_z) - b) <= EXACT_TOL * b, f"row {k}: hypot(B_x, B_z) != |B|")
        _require(abs(split - case.target) <= 1e3, f"row {k}: splitting {split!r} misses the target")
        w, v = _spin_levels(case, b_x, b_z)
        _require(_close(nu1, w[0]) and _close(nu3, w[1]) and _close(split, w[1] - w[0]),
                 f"row {k}: levels differ from the eigensolver")
        ref_g = abs(v[:, 1].conj() @ h_strain @ v[:, 0])
        _require(_close(g_pe, ref_g, 1e-7), f"row {k}: g_pe {g_pe!r}, oracle {ref_g!r}")
        checks += 4
    return checks


def check_qbudget(report: dict, case) -> int:
    inv = 1.0 / case.q_clamp + sum(p / q for p, q in case.tls) + 1.0 / case.q_akhiezer
    q_mech = 1.0 / inv
    kappa_p = case.rates["f_p"] / q_mech
    ref = {
        "q_mech": q_mech,
        "kappa_p_hz": kappa_p,
        "c_scp": 4.0 * case.rates["g_scp"] ** 2 / (case.rates["kappa_sc"] * kappa_p),
        "c_pe": 4.0 * case.rates["g_pe"] ** 2 / (kappa_p * case.rates["kappa_e"]),
    }
    for key, value in ref.items():
        _require(_close(report[key], value, 1e-12), f"qbudget.json {key} = {report[key]!r}, oracle {value!r}")
    return len(ref)
