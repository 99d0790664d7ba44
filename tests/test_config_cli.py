import json

import numpy as np
import pytest

from phononbus import cli, protocols
from phononbus.cli import main
from phononbus.config import parse_run_config
from phononbus.device import PLANCK_H, SystemRates
from phononbus.dynamics import SimOptions
from phononbus.errors import (
    ConfigError,
    DegenerateConfigurationError,
    GridMismatchError,
    IntegrationError,
    NumericalIntegrityError,
)
from phononbus.protocols import protocol_hierarchy, run_resonant

RATES_BLOCK = """
[rates]
f_sc_hz = 4.31e9
f_p_hz = 4.31e9
f_e_hz = 4.31e9
kappa_sc_hz = 100e3
kappa_p_hz = 43.1e3
kappa_e_hz = 1e6
g_scp_hz = 3e6
g_pe_hz = 3e6
"""

SIM_BLOCK = """
[sim]
method = piecewise-exponential
rel_tol = 1e-8
n_ph = 3
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


# ------------------------------------------------------------- parsing

def test_parse_minimal_simulate_config(tmp_path):
    cfg = parse_run_config(write_config(tmp_path, RATES_BLOCK + "[protocol]\nkind = resonant\n"))
    assert cfg.rates == SystemRates(4.31e9, 4.31e9, 4.31e9, 1e5, 43.1e3, 1e6, 3e6, 3e6)
    assert cfg.protocol.kind == "resonant"
    assert cfg.sim == SimOptions()


def test_parse_rejects_unknown_section(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, RATES_BLOCK + "[rates2]\nx = 1\n"))


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, RATES_BLOCK + "[protocol]\nkind = resonant\nfoo = 1\n"))


def test_parse_rejects_negative_rate(tmp_path):
    body = RATES_BLOCK.replace("kappa_sc_hz = 100e3", "kappa_sc_hz = -1.0")
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, body))


def test_parse_rejects_missing_referenced_file(tmp_path):
    body = RATES_BLOCK + "[device]\ne_profile_path = nope.txt\n"
    with pytest.raises(ConfigError) as err:
        parse_run_config(write_config(tmp_path, body))
    assert "e_profile_path" in str(err.value)


def test_parse_resolves_paths_relative_to_config(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "p.txt").write_text("# engineering\n0 0 0 0 0 0\n0 0 0 0 0 0\n1 1 1 0 0 0\n")
    body = RATES_BLOCK + "[device]\npiezo_path = sub/p.txt\n"
    cfg = parse_run_config(write_config(tmp_path, body))
    assert cfg.device.piezo_path == tmp_path / "sub" / "p.txt"


def test_parse_sweep_values_and_kind(tmp_path):
    body = RATES_BLOCK + "[sweep]\nkind = delta-i\nvalues = 0.6e9, 0.8e9, 1.0e9\n"
    cfg = parse_run_config(write_config(tmp_path, body))
    assert cfg.sweep.values == (0.6e9, 0.8e9, 1.0e9)
    with pytest.raises(ConfigError):
        parse_run_config(write_config(tmp_path, RATES_BLOCK + "[sweep]\nkind = delta-q\nvalues = 1\n", "b.ini"))


# ------------------------------------------------------------- simulate

def simulate_config(tmp_path, extra_protocol="", out="out"):
    body = RATES_BLOCK + f"[protocol]\nkind = resonant\n{extra_protocol}" + SIM_BLOCK
    body += f"[output]\ndirectory = {out}\n"
    return write_config(tmp_path, body)


def test_simulate_end_to_end_matches_library(tmp_path, capsys):
    cfg_path = simulate_config(tmp_path)
    out_dir = tmp_path / "runout"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    csv_path = out_dir / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_s,P_sc,P_p,P_e,F_sc,F_p,F_e,trace_err"

    rates = SystemRates(4.31e9, 4.31e9, 4.31e9, 1e5, 43.1e3, 1e6, 3e6, 3e6)
    res = run_resonant(rates, SimOptions())
    csv_fe = np.array([float(line.split(",")[6]) for line in lines[1:]])
    assert csv_fe.max() == res.trajectory.f_e.max()  # 17 digits round-trip exactly

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(csv_path) in manifest["outputs"]
    assert manifest["command"] == "simulate"
    assert isinstance(manifest["warnings"], list)


def test_simulate_deterministic_bytes(tmp_path):
    cfg_path = simulate_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_exit_2_on_bad_config(tmp_path, capsys):
    body = RATES_BLOCK.replace("kappa_e_hz = 1e6", "kappa_e_hz = -5") + "[protocol]\nkind = resonant\n"
    cfg_path = write_config(tmp_path, body)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "kappa_e" in capsys.readouterr().err


def test_simulate_exit_2_on_missing_protocol_param(tmp_path):
    body = RATES_BLOCK + "[protocol]\nkind = virtual-phonon\n"
    cfg_path = write_config(tmp_path, body)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_simulate_nonexistent_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 2


# ---------------------------------------------------------------- sweep

def test_sweep_end_to_end(tmp_path):
    body = RATES_BLOCK.replace("g_scp_hz = 3e6", "g_scp_hz = 10e6")
    body += "[sweep]\nkind = delta-i\nvalues = 0.5e9, 1.0e9\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,f_e_max,t_opt_s,protocol"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "double-rabi"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["kind"] == "delta-i"
    assert len(summary["points"]) == 2
    assert summary["resolved_config"]["sweep"]["kind"] == "delta-i"


def test_sweep_jobs_flag_is_accepted_and_ignored(tmp_path):
    body = RATES_BLOCK + "[sweep]\nkind = delta-g\nvalues = 0.0, 2e6\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    bodies = []
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", str(jobs)]) == 0
        bodies.append((out_dir / "sweep.csv").read_bytes())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["resolved_config"]["_cli"]["jobs"] == jobs
    assert bodies[0] == bodies[1]


def test_sweep_exit_5_when_all_points_fail(tmp_path):
    body = RATES_BLOCK + "[sweep]\nkind = delta-p\nvalues = 0.0\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 5


def test_sweep_partial_failure_annotated_exit_0(tmp_path):
    body = RATES_BLOCK + "[sweep]\nkind = delta-p\nvalues = 0.0, 30e6\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["points"][0]["error"] is not None
    assert summary["points"][1]["error"] is None
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert any("failed" in w for w in manifest["warnings"])
    # the failed row names the protocol it ran, not the sweep kind
    rows = [line.split(",") for line in (out_dir / "sweep.csv").read_text().splitlines()[1:]]
    assert rows[0][1:] == ["nan", "nan", "virtual-phonon"]
    assert [p["protocol"] for p in summary["points"]] == ["virtual-phonon", "virtual-phonon"]
    assert summary["points"][0]["f_e_max"] is None


def _reject_constant(name):
    raise ValueError(f"summary.json holds a bare {name}")


def test_hierarchy_records_a_failed_run_and_keeps_going(tmp_path, monkeypatch):
    q_fail = 2.15e4
    real = protocols.run_resonant

    def flaky(rates, *args, **kwargs):
        if rates.kappa_p == rates.f_p / q_fail:
            raise IntegrationError("stepper gave up")
        return real(rates, *args, **kwargs)

    monkeypatch.setattr(protocols, "run_resonant", flaky)
    body = RATES_BLOCK.replace("g_scp_hz = 3e6", "g_scp_hz = 10e6")
    body += "[sweep]\nkind = hierarchy\nvalues = 1e4, 2.15e4, 4.64e4\n" + SIM_BLOCK
    out_dir = tmp_path / "h"
    assert main(["sweep", "--config", str(write_config(tmp_path, body)), "--out", str(out_dir)]) == 0
    rows = [line.split(",") for line in (out_dir / "hierarchy.csv").read_text().splitlines()[1:]]
    assert [(float(r[0]), int(r[3])) for r in rows] == [(q, k) for q in (1e4, 2.15e4, 4.64e4) for k in (1, 2, 3)]
    failed = [r for r in rows if "nan" in r]
    assert failed == [["2.1500000000000000e+04", "nan", "nan", "1", "3"]]
    # protocol 1 leads at 1e4 and 3 beyond; the only ranking change runs through the failed run
    assert [int(r[4]) for r in rows[::3]] == [1, 3, 3]
    summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["f_e_max"]["protocol_1"][1] is None
    assert summary["best_protocol"] == [1, 3, 3]
    assert summary["crossovers"] == []
    # one warning, naming the Q; a numpy RuntimeWarning would show up here as well
    warnings = json.loads((out_dir / "manifest.json").read_text())["warnings"]
    assert warnings == ["sweep point 21500 failed: stepper gave up"]


@pytest.mark.parametrize("body", [
    RATES_BLOCK.replace("kappa_p_hz = 43.1e3", "kappa_p_hz = nan") + "[protocol]\nkind = resonant\n",
    RATES_BLOCK + "[sweep]\nkind = hierarchy\nvalues = 1e4, nan\n" + SIM_BLOCK,
    RATES_BLOCK + "[sweep]\nkind = delta-i\nvalues = 1e9, inf\n" + SIM_BLOCK,
], ids=["nan-rate", "nan-quality-factor", "inf-sweep-value"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, body):
    command = "simulate" if "[protocol]" in body else "sweep"
    out_dir = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, body)), "--out", str(out_dir)]) == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.startswith("error: [") and "is not a finite number" in error
    assert ("kappa_p_hz" in error) if command == "simulate" else ("[sweep] values" in error)
    assert not (out_dir / "manifest.json").exists()


def test_sweep_empty_grid_exit_2(tmp_path):
    body = RATES_BLOCK + "[sweep]\nkind = delta-i\nvalues =\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_hierarchy_sweep_csv_has_best_column(tmp_path):
    body = RATES_BLOCK.replace("g_scp_hz = 3e6", "g_scp_hz = 10e6")
    body += "[sweep]\nkind = hierarchy\nvalues = 1e4, 1e6\n" + SIM_BLOCK
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "h"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "hierarchy.csv").read_text().splitlines()
    assert lines[0] == "param,f_e_max,t_opt_s,protocol,best_protocol"
    assert len(lines) == 1 + 2 * 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["f_e_max"]) == {"protocol_1", "protocol_2", "protocol_3"}
    assert len(summary["best_protocol"]) == 2


def test_hierarchy_sweep_honours_spin_decay_model(tmp_path):
    body = RATES_BLOCK.replace("g_scp_hz = 3e6", "g_scp_hz = 10e6")
    body += "[sweep]\nkind = hierarchy\nvalues = 1e5\n" + SIM_BLOCK
    csv = {}
    for model in ("energy", "dephasing"):
        cfg_path = write_config(tmp_path, body + f"spin_decay_model = {model}\n", f"{model}.ini")
        out_dir = tmp_path / model
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        csv[model] = (out_dir / "hierarchy.csv").read_text().splitlines()
    assert csv["energy"][1:] != csv["dephasing"][1:]
    rates = SystemRates(4.31e9, 4.31e9, 4.31e9, 1e5, 43.1e3, 1e6, 10e6, 3e6)
    report = protocol_hierarchy(rates, [1e5], SimOptions(), spin_decay_model="dephasing")
    csv_fe = [float(line.split(",")[1]) for line in csv["dephasing"][1:]]
    assert csv_fe == [float(f) for f in report.fidelities[:, 0]]


# ------------------------------------------------------------ spin-field

SPIN_BLOCK = """
[spin]
lambda_g_hz = 425e9
gamma_s_hz_per_t = 56e9
gamma_l_hz_per_t = 14e9
orbital_quench_q = 0.0
chi_eff_hz_per_strain = 0.27e15
target_splitting_hz = 4.31e9
reference_strain = 1e-8
"""


def test_spin_field_end_to_end(tmp_path):
    body = SPIN_BLOCK + "b_max_grid_t = 0.05, 0.1, 0.2\n"
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "sf"
    assert main(["spin-field", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "spin_field.csv").read_text().splitlines()
    assert lines[0] == "B_mag_T,B_x_T,B_z_T,nu1_Hz,nu3_Hz,splitting_Hz,g_pe_Hz"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    for row in rows:
        assert abs(row[5] - 4.31e9) <= 1e3
    g_pes = [row[6] for row in rows]
    assert g_pes[0] <= g_pes[1] <= g_pes[2]


def test_spin_field_flags_unreachable_rows(tmp_path, capsys):
    body = SPIN_BLOCK + "b_max_grid_t = 0.005, 0.1\n"
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "sf"
    assert main(["spin-field", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "spin_field.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert first[1] == "nan" and first[6] == "nan"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert any("flagged" in w for w in manifest["warnings"])
    assert "flagged" in capsys.readouterr().err


def test_spin_field_requires_grid(tmp_path):
    cfg_path = write_config(tmp_path, SPIN_BLOCK)
    assert main(["spin-field", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


# -------------------------------------------------------------- coupling

def coupling_tmp_files(tmp_path, e_vec, strain, cw=None):
    from phononbus.device import FieldProfile, write_field_profile

    pos = np.zeros((1, 3))
    vol = np.array([1e-18])
    perm = np.array([8.9e-11])
    f0 = 4.31e9
    e_prof = FieldProfile(pos, vol, np.array([e_vec], dtype=complex), np.zeros((1, 6)), np.array([1.0]), perm, f0)
    weight = np.array([cw if cw is not None else 2 * PLANCK_H * f0 / vol[0]])
    t_prof = FieldProfile(pos, vol, np.zeros((1, 3), dtype=complex), np.array([strain]), weight, perm, f0)
    write_field_profile(e_prof, tmp_path / "e.txt")
    write_field_profile(t_prof, tmp_path / "t.txt")
    (tmp_path / "piezo.txt").write_text(
        "# engineering-shear Voigt convention\n0 0 0 0 0 0\n0 0 0 0 0 0\n0 0 2.4 0 0 0\n"
    )


COUPLING_TAIL = """
[device]
c_s_f = 100e-15
c_j_f = 5e-15
c_idt_f = 10e-15
v_app_v = 1.0
e_profile_path = e.txt
t_profile_path = t.txt
piezo_path = piezo.txt
"""


def test_coupling_single_cell_hand_value(tmp_path):
    coupling_tmp_files(tmp_path, (0, 0, 2.0e6), (0, 0, 1e-5, 0, 0, 0))
    cfg_path = write_config(tmp_path, RATES_BLOCK + SPIN_BLOCK + COUPLING_TAIL)
    out_dir = tmp_path / "cp"
    assert main(["coupling", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "coupling.json").read_text())
    # hand evaluation: with V*w = 2hf the phonon scale is 1, so
    # g = V * 2*Re(t3 * d33 * e_z * photon_scale) / (2h)
    scale = report["photon_zero_point_scale"]
    hand = 1e-18 * 2 * (1e-5 * 2.4 * 2.0e6 * scale) / (2 * PLANCK_H)
    assert report["g_scp_hz"] == pytest.approx(hand, rel=1e-12)
    assert report["phonon_zero_point_scale"] == pytest.approx(1.0, rel=1e-12)


def test_coupling_orthogonal_fixture_is_zero(tmp_path):
    coupling_tmp_files(tmp_path, (2.0e6, 0, 0), (0, 0, 1e-5, 0, 0, 0))
    cfg_path = write_config(tmp_path, RATES_BLOCK + SPIN_BLOCK + COUPLING_TAIL)
    out_dir = tmp_path / "cp"
    assert main(["coupling", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "coupling.json").read_text())
    assert report["g_scp_hz"] == 0.0


def test_coupling_transverse_strain_gpe(tmp_path):
    s = 1e-6
    coupling_tmp_files(tmp_path, (0, 0, 1.0), (s, -s, 0, 0, 0, 0))
    cfg_path = write_config(tmp_path, RATES_BLOCK + SPIN_BLOCK + COUPLING_TAIL)
    out_dir = tmp_path / "cp"
    assert main(["coupling", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "coupling.json").read_text())
    # phonon scale is 1 by construction, so g_pe = chi_eff * 2s
    assert report["g_pe_max_hz"] == pytest.approx(0.27e15 * 2 * s, rel=1e-12)


def test_coupling_missing_path_names_key(tmp_path, capsys):
    coupling_tmp_files(tmp_path, (0, 0, 1.0), (0, 0, 1e-5, 0, 0, 0))
    body = RATES_BLOCK + SPIN_BLOCK + COUPLING_TAIL.replace("t_profile_path = t.txt\n", "")
    cfg_path = write_config(tmp_path, body)
    assert main(["coupling", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "t_profile_path" in capsys.readouterr().err


def test_coupling_grid_mismatch_exit_3(tmp_path, capsys):
    coupling_tmp_files(tmp_path, (0, 0, 1.0), (0, 0, 1e-5, 0, 0, 0))
    text = (tmp_path / "t.txt").read_text().splitlines()
    row = text[-1].split()
    row[0] = "1.0e-9"
    text[-1] = " ".join(row)
    (tmp_path / "t.txt").write_text("\n".join(text) + "\n")
    cfg_path = write_config(tmp_path, RATES_BLOCK + SPIN_BLOCK + COUPLING_TAIL)
    assert main(["coupling", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "cell 0" in capsys.readouterr().err


# --------------------------------------------------------------- qbudget

def test_qbudget_end_to_end(tmp_path):
    body = RATES_BLOCK.replace("g_scp_hz = 3e6", "g_scp_hz = 10e6")
    body += "[qbudget]\nq_clamp = 1e5\n"
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "qb"
    assert main(["qbudget", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "qbudget.json").read_text())
    assert report["q_mech"] == pytest.approx(1e5, rel=1e-12)
    assert report["kappa_p_hz"] == pytest.approx(43100.0, rel=1e-12)
    assert report["c_scp"] == pytest.approx(4 * (10e6) ** 2 / (1e5 * 43100.0), rel=1e-12)
    assert report["c_pe"] == pytest.approx(4 * (3e6) ** 2 / (43100.0 * 1e6), rel=1e-12)
    assert "note" in report and "unmodified" in report["note"]


def test_qbudget_invalid_budget_exit_2(tmp_path):
    body = RATES_BLOCK + "[qbudget]\nq_clamp = 1e5\ntls_channels = 0.7:1e5, 0.6:1e5\n"
    cfg_path = write_config(tmp_path, body)
    assert main(["qbudget", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


# ------------------------------------------------------------ exit codes

QBUDGET = ("qbudget", RATES_BLOCK + "[qbudget]\nq_clamp = 1e5\n")
ALL_FAILING_SWEEP = ("sweep", RATES_BLOCK + "[sweep]\nkind = delta-p\nvalues = 0.0\n" + SIM_BLOCK)
ALL_FAILING_HIERARCHY = (
    "sweep",
    RATES_BLOCK.replace("g_pe_hz = 3e6", "g_pe_hz = 0") + "[sweep]\nkind = hierarchy\nvalues = 1e4, 1e5\n" + SIM_BLOCK,
)

# (raised by the command handler, or None to run the config as it is; (command, config); exit code)
EXIT_CODE_ROWS = [
    (ConfigError("bad key"), QBUDGET, 2),
    (DegenerateConfigurationError("degenerate spin"), QBUDGET, 2),
    (ValueError("bad value"), QBUDGET, 2),
    (IntegrationError("stepper failed"), QBUDGET, 3),
    (NumericalIntegrityError("trace drifted"), QBUDGET, 3),
    (GridMismatchError("grids differ", cell_index=0), QBUDGET, 3),
    (OSError("disk full"), QBUDGET, 4),
    (None, ALL_FAILING_SWEEP, 5),
    (None, ALL_FAILING_HIERARCHY, 5),
]
EXIT_CODE_IDS = [
    type(exc).__name__ if exc is not None
    else "all-points-failed" if run is ALL_FAILING_SWEEP else "all-hierarchy-points-failed"
    for exc, run, _ in EXIT_CODE_ROWS
]


@pytest.mark.parametrize(
    "exc, run, code",
    EXIT_CODE_ROWS,
    ids=EXIT_CODE_IDS,
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, exc, run, code):
    command, body = run
    if exc is not None:
        def fail(cfg, out_dir):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, command, fail)
    cfg_path = write_config(tmp_path, body)
    out_dir = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == code
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    if exc is not None:
        assert errors[0] == f"error: {exc}"
    assert not (out_dir / "manifest.json").exists()
