"""Command-line front end.

Commands read one config file, write CSV/JSON results plus a manifest into
the output directory, and map failures onto stable exit codes:

    0  success
    2  configuration problem (also bad physical parameters)
    3  numerical failure (integration, integrity, grid mismatch)
    4  filesystem problem
    5  sweep or hierarchy where every grid point failed

CSV floats are printed with 17 significant digits in scientific notation, so
identical configs reproduce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, RunManifest, SpinSection, now, parse_run_config
from .device import (
    cooperativity,
    electromechanical_coupling,
    kappa_from_q,
    mode_elimination_check,
    normalize_phonon_strain,
    normalize_photon_field,
    phonon_zero_point_scale,
    photon_zero_point_scale,
    q_total,
    read_field_profile,
    read_piezo_tensor,
    spin_coupling_map,
    transmon_frequency,
)
from .dynamics import write_csv
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    GridMismatchError,
    IntegrationError,
    NumericalIntegrityError,
    TransducerWarning,
    UnachievableSplittingError,
)
from .protocols import (
    DOUBLE_RABI,
    RESONANT,
    VIRTUAL_PHONON,
    protocol_hierarchy,
    run_double_rabi,
    run_resonant,
    run_virtual,
    sweep,
)
from .spin import SpinParams, analytic_eigensystem, field_for_splitting, strain_hamiltonian, spin_phonon_coupling

COOPERATIVITY_NOTE = (
    "Cooperativities are evaluated directly as C = 4 g^2 / (kappa_a kappa_b) from the "
    "configured ordinary-frequency rates. Headline estimates circulated for this device "
    "class (~4e4 microwave-phonon, ~1e5 phonon-spin) do not follow from that formula "
    "with the same quoted rates, which gives ~9.3e4 and ~8.4e2; the formula result is "
    "reported unmodified."
)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _spin_params(spin: SpinSection, b_x: float | None = None, b_z: float | None = None) -> SpinParams:
    return SpinParams(
        lambda_g=spin.lambda_g,
        gamma_s=spin.gamma_s,
        gamma_l=spin.gamma_l,
        q=spin.q,
        b_x=spin.b_x if b_x is None else b_x,
        b_z=spin.b_z if b_z is None else b_z,
    )


def _cmd_simulate(cfg: RunConfig, out_dir: Path) -> list[Path]:
    cfg.require("rates", "protocol")
    proto = cfg.protocol
    options = cfg.sim
    if proto.kind == RESONANT:
        result = run_resonant(cfg.rates, options, proto.horizon, cfg.spin_decay_model)
    elif proto.kind == VIRTUAL_PHONON:
        if proto.delta_p is None:
            raise ConfigError("[protocol] delta_p_hz is required for the virtual-phonon protocol")
        result = run_virtual(cfg.rates, proto.delta_p, options, proto.horizon, cfg.spin_decay_model)
    elif proto.kind == DOUBLE_RABI:
        if proto.delta_i is None:
            raise ConfigError("[protocol] delta_i_hz is required for the double-rabi protocol")
        result = run_double_rabi(cfg.rates, proto.delta_i, options, cfg.spin_decay_model)
    else:
        raise ConfigError(f"[protocol] unknown kind '{proto.kind}'")

    csv_path = out_dir / "trajectory.csv"
    result.trajectory.to_csv(csv_path)
    return [csv_path]


def _null_nan(x):
    """``x`` with every NaN float, at any depth of dicts and lists, replaced by None."""
    if isinstance(x, dict):
        return {k: _null_nan(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_null_nan(v) for v in x]
    return None if isinstance(x, float) and math.isnan(x) else x


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> list[Path]:
    cfg.require("rates", "sweep")
    sw = cfg.sweep
    if sw.kind == "hierarchy":
        report = protocol_hierarchy(
            cfg.rates, sw.values, cfg.sim, sw.delta_p, sw.delta_i, spin_decay_model=cfg.spin_decay_model
        )
        points = report.points
        csv_path = out_dir / "hierarchy.csv"
        header = "param,f_e_max,t_opt_s,protocol,best_protocol"
        # points run Q by Q, protocols 1-3 in turn
        rows = [
            (p.param, p.f_e_max, p.t_opt, k % 3 + 1, int(report.best_protocol[k // 3]))
            for k, p in enumerate(points)
        ]
        summary = {
            "q_grid": report.q_grid.tolist(),
            "f_e_max": {f"protocol_{k + 1}": report.fidelities[k].tolist() for k in range(3)},
            "best_protocol": report.best_protocol.tolist(),
            "crossovers": [
                {"q_estimate": c.q_estimate, "from_protocol": c.from_protocol, "to_protocol": c.to_protocol}
                for c in report.crossovers
            ],
        }
    else:
        points = sweep(sw.kind, sw.values, cfg.rates, cfg.sim, spin_decay_model=cfg.spin_decay_model)
        csv_path = out_dir / "sweep.csv"
        header = "param,f_e_max,t_opt_s,protocol"
        rows = [(p.param, p.f_e_max, p.t_opt, p.protocol) for p in points]
        summary = {"points": [
            dict(param=p.param, f_e_max=p.f_e_max, t_opt_s=p.t_opt, f_e_end=p.f_e_end,
                 protocol=p.protocol, error=p.error)
            for p in points
        ]}

    failed = [p for p in points if p.error is not None]
    for p in failed:
        warnings.warn(f"sweep point {p.param:g} failed: {p.error}", TransducerWarning, stacklevel=2)
    if len(failed) == len(points):
        raise _AllPointsFailed(f"all {len(points)} sweep points failed")
    write_csv(csv_path, header, rows)
    json_path = out_dir / "summary.json"
    _write_json(json_path, {**_null_nan(summary), "kind": sw.kind, "resolved_config": cfg.resolved})
    return [csv_path, json_path]


def _cmd_spin_field(cfg: RunConfig, out_dir: Path) -> list[Path]:
    cfg.require("spin")
    spin = cfg.spin
    if not spin.b_max_grid:
        raise ConfigError("[spin] b_max_grid_t is required for the spin-field command")
    params0 = _spin_params(spin, b_x=0.0, b_z=0.0)
    alpha = spin.chi_eff * spin.reference_strain
    h_strain = strain_hamiltonian(alpha, 0.0)

    rows = []
    nan = float("nan")
    for b_max in spin.b_max_grid:
        try:
            b_x, b_z = field_for_splitting(spin.target_splitting, b_max, params0)
        except UnachievableSplittingError as exc:
            warnings.warn(
                f"|B| = {b_max:g} T flagged: {exc}", TransducerWarning, stacklevel=2
            )
            rows.append((float(b_max), nan, nan, nan, nan, nan, nan))
            continue
        eig = analytic_eigensystem(_spin_params(spin, b_x=b_x, b_z=b_z))
        g_pe = spin_phonon_coupling(eig, h_strain)
        rows.append(
            (
                float(b_max),
                b_x,
                b_z,
                float(eig.eigenvalues[0]),
                float(eig.eigenvalues[2]),
                eig.splitting,
                g_pe,
            )
        )
    csv_path = out_dir / "spin_field.csv"
    write_csv(csv_path, "B_mag_T,B_x_T,B_z_T,nu1_Hz,nu3_Hz,splitting_Hz,g_pe_Hz", rows)
    return [csv_path]


def _cmd_coupling(cfg: RunConfig, out_dir: Path) -> list[Path]:
    cfg.require("rates", "device", "spin")
    dev = cfg.device
    for key in ("e_profile_path", "t_profile_path", "piezo_path"):
        if getattr(dev, key) is None:
            raise ConfigError(f"[device] {key} is required for the coupling command")
    if dev.caps is None:
        raise ConfigError("[device] capacitances (c_s_f, c_j_f, c_idt_f, v_app_v) are required")

    e_profile = read_field_profile(dev.e_profile_path)
    t_profile = read_field_profile(dev.t_profile_path)
    piezo = read_piezo_tensor(dev.piezo_path)

    photon_scale = photon_zero_point_scale(dev.caps, cfg.rates.f_sc)
    phonon_scale = phonon_zero_point_scale(t_profile, cfg.rates.f_p)
    e_norm = normalize_photon_field(e_profile, dev.caps, cfg.rates.f_sc)
    t_norm = normalize_phonon_strain(t_profile, cfg.rates.f_p)

    g_scp = electromechanical_coupling(e_norm, t_norm, piezo)
    rotation = np.asarray(dev.emitter_rotation, dtype=float).reshape(3, 3)
    coupling_map = spin_coupling_map(t_norm, cfg.spin.chi_eff, rotation)

    report = {
        "g_scp_hz": g_scp,
        "g_pe_max_hz": abs(coupling_map.max_g_pe),
        "g_pe_max_signed_hz": coupling_map.max_g_pe,
        "g_pe_max_position_m": [float(x) for x in coupling_map.max_position],
        "photon_zero_point_scale": photon_scale,
        "phonon_zero_point_scale": phonon_scale,
        "cells": int(t_profile.n_cells),
    }
    if dev.spectator_modes:
        table = []
        for g_k, delta_k in dev.spectator_modes:
            induced, negligible = mode_elimination_check(g_k, delta_k, cfg.rates.kappa_p)
            table.append(
                {
                    "g_hz": g_k,
                    "delta_hz": delta_k,
                    "induced_rate_hz": induced,
                    "negligible": bool(negligible),
                }
            )
        report["mode_elimination"] = table
    if dev.e_j is not None and dev.e_c is not None:
        f01, anharm = transmon_frequency(dev.e_j, dev.e_c)
        report["transmon"] = {"f_01_hz": f01, "anharmonicity_hz": anharm}

    json_path = out_dir / "coupling.json"
    _write_json(json_path, report)
    return [json_path]


def _cmd_qbudget(cfg: RunConfig, out_dir: Path) -> list[Path]:
    cfg.require("rates", "qbudget")
    q_mech = q_total(cfg.qbudget)
    kappa_p = kappa_from_q(cfg.rates.f_p, q_mech)
    report = {
        "q_mech": q_mech,
        "kappa_p_hz": kappa_p,
        "c_scp": cooperativity(cfg.rates.g_scp, cfg.rates.kappa_sc, kappa_p),
        "c_pe": cooperativity(cfg.rates.g_pe, kappa_p, cfg.rates.kappa_e),
        "note": COOPERATIVITY_NOTE,
    }
    json_path = out_dir / "qbudget.json"
    _write_json(json_path, report)
    return [json_path]


class _AllPointsFailed(Exception):
    pass


_HANDLERS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "spin-field": _cmd_spin_field,
    "coupling": _cmd_coupling,
    "qbudget": _cmd_qbudget,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phononbus",
        description="Transmon-phonon-spin transducer simulations and device calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one protocol and export its trajectory"),
        ("sweep", "run a parameter sweep or the Q-factor hierarchy"),
        ("spin-field", "solve the field orientation for a target spin splitting"),
        ("coupling", "evaluate the piezoelectric and spin-strain couplings"),
        ("qbudget", "combine the mechanical loss budget and cooperativities"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides [output])")
        p.add_argument("--jobs", type=int, default=1, help="accepted and recorded; has no effect")
        p.add_argument("--seed", type=int, default=None, help="reserved; recorded in the manifest")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = now()
    try:
        cfg = parse_run_config(args.config)
        out_dir = Path(args.out) if args.out is not None else cfg.output_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs = _HANDLERS[args.command](cfg, out_dir)
            messages = [str(w.message) for w in caught]
        for msg in messages:
            print(f"warning: {msg}", file=sys.stderr)
        manifest = RunManifest(
            command=args.command,
            artifact_version=__version__,
            config_path=str(Path(args.config).resolve()),
            resolved_config={**cfg.resolved, "_cli": {"seed": args.seed, "jobs": args.jobs}},
            runtime_s=now() - t0,
            outputs=[str(p) for p in outputs],
            warnings=messages,
        )
        manifest_path = out_dir / "manifest.json"
        manifest.write(manifest_path)
        return 0
    except (ConfigError, DegenerateConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, NumericalIntegrityError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _AllPointsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
