"""Tests of the benchmark itself: oracle, generators, failure accounting, tracing.

    python -m pytest bench/tests -q
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # as in run.py; two BLAS threads per pool worker oversubscribe the cores

import configparser  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phononbus import cli  # noqa: E402


def _shipped_case(name: str) -> gen.SimulateCase:
    parser = configparser.ConfigParser()
    parser.read(ROOT / "configs" / name)
    rates = {k[:-3]: float(v) for k, v in parser["rates"].items()}
    proto, sim = parser["protocol"], parser["sim"]
    return gen.SimulateCase(
        kind=proto["kind"],
        rates=rates,
        n_ph=int(sim["n_ph"]),
        decay_model="energy",
        method=sim["method"],
        rel_tol=float(sim["rel_tol"]),
        delta_p=float(proto["delta_p_hz"]) if "delta_p_hz" in proto else None,
        delta_i=float(proto["delta_i_hz"]) if "delta_i_hz" in proto else None,
    )


def _simulate(tmp_path: Path, name: str) -> str:
    out = tmp_path / name
    assert cli.main(["simulate", "--config", str(ROOT / "configs" / name), "--out", str(out)]) == 0
    return (out / "trajectory.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["virtual.ini", "resonant.ini", "double_rabi.ini"])
def test_oracle_matches_shipped_configs(tmp_path, name):
    assert oracle.check_trajectory(_simulate(tmp_path, name), _shipped_case(name)) > 0


def test_oracle_dephasing_and_adaptive(tmp_path):
    for i in (4, 31):                   # i = 4 uses spin dephasing, i = 31 the adaptive stepper
        case = gen.simulate_case(7, i)
        cfg = tmp_path / f"sim{i}.ini"
        cfg.write_text(case.config_text(), encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 0
        text = (tmp_path / f"o{i}" / "trajectory.csv").read_text(encoding="utf-8")
        assert oracle.check_trajectory(text, case) > 0


def _inputs(seed: int) -> list:
    mesh = gen.mesh(seed, 50)
    return [
        *(gen.simulate_case(seed, i).config_text() for i in range(12)),
        *(gen.sweep_case(seed, i).config_text() for i in range(8)),
        gen.coupling_case(seed, 0).config_text("e", "t", "p"),
        gen.spin_field_case(seed).config_text(),
        gen.qbudget_case(seed).config_text(),
        *(getattr(mesh, f).tobytes() for f in mesh.__dataclass_fields__),
    ]


def test_generators_are_seeded():
    a, b, c = _inputs(3), _inputs(3), _inputs(4)
    assert a == b
    assert all(x != y for x, y in zip(a, c))


def test_generator_mix_is_seed_independent():
    for seed in (1, 2):
        cases = [gen.simulate_case(seed, i) for i in range(480)]
        assert [c.kind for c in cases].count("double-rabi") == 160
        assert [c.n_ph for c in cases].count(3) == 240
        assert [c.decay_model for c in cases].count("dephasing") == 96
        assert [c.method for c in cases].count("adaptive-stepper") == 15
        g = gen.sweep_case(seed, 4)
        assert g.kind == "delta-g" and g.rates["g_pe"] + g.values[g.invalid_index] <= 0
        assert sum(g.rates["g_pe"] + v <= 0 for v in g.values) == 1


def _perturbed_csv(text: str, column: int, line: int = 1000) -> str:
    """``text`` with one value raised by 1e-6."""
    lines = text.splitlines()
    row = lines[line].split(",")
    row[column] = f"{float(row[column]) + 1e-6:.16e}"
    lines[line] = ",".join(row)
    return "\n".join(lines) + "\n"


def _run(tmp_path: Path) -> workloads.Run:
    return workloads.Run(ROOT, tmp_path, 1, 1.0, None)


def test_perturbed_trajectory_is_a_failed_op(tmp_path):
    case = _shipped_case("virtual.ini")
    text = _simulate(tmp_path, "virtual.ini")
    run = _run(tmp_path)
    assert run.checked("clean", lambda: oracle.check_trajectory(text, case))
    for column in range(1, 7):
        bad = _perturbed_csv(text, column)
        assert not run.checked(f"column {column}", lambda: oracle.check_trajectory(bad, case))
    assert run.attempted == 7 and len(run.failures) == 6


def test_perturbed_sweep_row_is_a_failed_op(tmp_path):
    case = gen.sweep_case(5, 0)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(case.config_text(), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    run = _run(tmp_path)
    assert run.checked("clean", lambda: oracle.check_sweep(out, case))
    path = out / "sweep.csv"
    path.write_text(_perturbed_csv(path.read_text(encoding="utf-8"), 1, line=3), encoding="utf-8")
    assert not run.checked("perturbed", lambda: oracle.check_sweep(out, case))


def test_coupling_oracle_and_perturbed_json(tmp_path):
    run = replace(_run(tmp_path), mesh_cells=300)
    mesh = gen.mesh(9, run.mesh_cells)
    e_path, t_path, piezo_path = workloads._write_mesh(run, mesh)
    case = gen.coupling_case(9, 0)
    cfg = tmp_path / "coupling.ini"
    cfg.write_text(case.config_text(e_path, t_path, piezo_path), encoding="utf-8")
    assert cli.main(["coupling", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "coupling.json").read_text(encoding="utf-8"))
    reference = oracle.coupling_reference(mesh, case)
    assert run.checked("clean", lambda: oracle.check_coupling(report, reference))
    for key in ("g_scp_hz", "g_pe_max_hz", "phonon_zero_point_scale"):
        bad = dict(report, **{key: report[key] * (1 + 1e-6)})
        assert not run.checked(key, lambda: oracle.check_coupling(bad, reference))
    assert len(run.failures) == 3


def test_spin_field_and_qbudget_oracles(tmp_path):
    spin, qb = gen.spin_field_case(2), gen.qbudget_case(2)
    for name, case in (("spin-field", spin), ("qbudget", qb)):
        (tmp_path / f"{name}.ini").write_text(case.config_text(), encoding="utf-8")
        assert cli.main([name, "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name)]) == 0
    assert oracle.check_spin_field(tmp_path / "spin-field", spin) > 0
    report = json.loads((tmp_path / "qbudget" / "qbudget.json").read_text(encoding="utf-8"))
    assert oracle.check_qbudget(report, qb) == 4
    with pytest.raises(oracle.CheckFailed):
        oracle.check_qbudget(dict(report, q_mech=report["q_mech"] * (1 + 1e-6)), qb)


def test_every_hook_resolves():
    tracer = tracing.Tracer().install()
    try:
        assert len(tracer._restore) == len(tracing.HOOKS)
    finally:
        tracer.uninstall()


def test_missing_hook_is_an_error(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("phononbus.dynamics", "no_such_kernel", "x"),))
    with pytest.raises(tracing.MissingHook):
        tracing.Tracer().install()
    from phononbus import dynamics
    assert not hasattr(dynamics.expm, "__wrapped__")       # nothing was left installed


def test_tail_percentile():
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = workloads.tail([float(x) for x in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_overhead_is_reported(workload, capsys):
    plain = workloads.run_workload(ROOT, workload, 3, 1.0, False, mesh_cells=2000, min_ops=3)
    traced = workloads.run_workload(ROOT, workload, 3, 1.0, True, mesh_cells=2000, min_ops=3)
    assert plain["correct"] and traced["correct"], plain["failures"] + traced["failures"]
    overhead = traced["metrics"]["traced.op_p50_s"][0] - plain["extra"]["op_p50_s"][0]
    gap = traced["metrics"]["traced.self_sum_gap_s"][0]
    with capsys.disabled():
        print(f"\n{workload}: tracing overhead {overhead:.3e} s per op, op wall minus self-time sum {gap:.3e} s")
    assert np.isfinite(overhead)
    assert 0.0 <= gap <= 0.05 * traced["metrics"]["traced.op_p50_s"][0]
