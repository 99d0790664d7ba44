"""The three benchmark workloads and the metrics computed from them.

Each workload is a closed loop with one client: an operation starts only
after the previous one has finished and been checked. Inputs come from
:mod:`gen`, outputs are checked by :mod:`oracle` after the clock stops.

- protocol-mix: in-process ``phononbus simulate`` through ``cli.main``.
  Single-run latency of the dynamics kernel, peak refinement, the virtual
  horizon retries and the trajectory writer.
- sweep-grid: in-process ``phononbus sweep`` over delta-i, delta-p, delta-g
  and hierarchy grids, each at ``--jobs 1`` and ``--jobs 2``. Batch
  throughput with no trajectory CSV: orchestration, per-point error
  isolation and the process pool.
- coupling-mesh: in-process ``phononbus coupling`` on a 10k-cell mesh
  written at set-up; each operation reads its own copy of the profile pair,
  with the cell rows in another seeded order, so no cache keyed on path or
  content can carry over between operations. The device layer alone, no
  dynamics.

Every run does at least ``MIN_OPS`` operations, so the tail metric is a real
percentile, and spreads ``SETUP_PROBES`` pairs of import probes over its timed
loop: one of the package, one of the numpy and scipy it builds on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
from tracing import Tracer, layer_totals, self_time_by_op

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("protocol-mix", "sweep-grid", "coupling-mesh")
SETUP_PROBES = 9
# The reference task: importing what the package imports first, in a fresh
# interpreter. It shares no code with the package, and its wall time follows
# the speed the host gives the machine it runs on (see ``end_to_end``).
REFERENCE_MODULE = "scipy.linalg"
MIN_OPS = 32                    # so the tail, ten samples from the top, is at least the 69th percentile
SUBPROCESS_TIMEOUT = 150.0


@dataclass
class Op:
    duration: float
    runs: int = 0               # protocol evaluations
    cpu: float = 0.0            # process plus reaped-child CPU seconds
    jobs: int = 1
    cycle: int = 0


@dataclass
class Run:
    """State of one benchmark run."""

    root: Path
    work: Path
    seed: int
    seconds: float
    tracer: Tracer | None
    mesh_cells: int = gen.MESH_CELLS
    min_ops: int = MIN_OPS
    ops: list = field(default_factory=list)
    setup: list = field(default_factory=list)       # set-up probe times
    reference: list = field(default_factory=list)   # reference probe times
    attempted: int = 0
    failures: list = field(default_factory=list)
    checks: int = 0

    def checked(self, label: str, fn) -> bool:
        """Run one untimed check; any exception counts as a failed operation."""
        self.attempted += 1
        try:
            self.checks += fn()
            return True
        except Exception as exc:        # noqa: BLE001 - every failure is reported, none stops the run
            detail = str(exc) if isinstance(exc, oracle.CheckFailed) else traceback.format_exc(limit=3)
            self.failures.append(f"{label}: {detail}")
            return False

    def scratch(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _cli(argv: list[str]) -> int:
    from phononbus import cli

    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _expect_rc(rc: int) -> None:
    if rc != 0:
        raise oracle.CheckFailed(f"exit code {rc}")


def _body(path: Path) -> str:
    return path.read_text(encoding="utf-8").split("\n", 1)[1]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# --- set-up -----------------------------------------------------------------

def import_probe(run: Run, module: str) -> float:
    """Wall time of ``import module`` in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), module],
        cwd=run.root, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def determinism_checks(run: Run) -> None:
    """Byte-identical sweep bodies at --jobs 1 and 2; a repeated simulate body."""
    case = gen.sweep_case(run.seed, 4)          # a delta-g grid, with its NaN row
    cfg = run.scratch("det") / "sweep.ini"
    cfg.write_text(case.config_text(), encoding="utf-8")

    def sweep_jobs() -> int:
        bodies = []
        for jobs in (1, 2):
            out = cfg.parent / f"jobs{jobs}"
            _expect_rc(_cli(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]))
            bodies.append(_body(out / "sweep.csv"))
        if bodies[0] != bodies[1]:
            raise oracle.CheckFailed("sweep.csv bodies differ between --jobs 1 and --jobs 2")
        return 1

    sim = gen.simulate_case(run.seed, 0)
    sim_cfg = cfg.parent / "sim.ini"
    sim_cfg.write_text(sim.config_text(), encoding="utf-8")

    def repeat_simulate() -> int:
        bodies = []
        for k in range(2):
            out = cfg.parent / f"sim{k}"
            _expect_rc(_cli(["simulate", "--config", sim_cfg, "--out", out]))
            bodies.append(_body(out / "trajectory.csv"))
        if bodies[0] != bodies[1]:
            raise oracle.CheckFailed("repeated simulate gave a different trajectory.csv body")
        return 1

    run.checked("determinism sweep --jobs 1 vs 2", sweep_jobs)
    run.checked("determinism repeated simulate", repeat_simulate)
    shutil.rmtree(cfg.parent, ignore_errors=True)


# --- workloads --------------------------------------------------------------

def timed_loop(run: Run, do_op, group: int = 1) -> None:
    """Closed loop: op ``i`` starts after op ``i - 1`` has finished and been checked.

    Runs until ``run.seconds`` of op time are spent and at least ``run.min_ops``
    ops are done, in whole groups of ``group`` ops. The import probes are
    spread evenly over the loop, so their medians sample the same stretch of
    machine time as the ops.
    """
    if run.tracer is not None:
        run.tracer.phase = "ops"
    i, busy, next_probe = 0, 0.0, 0.0
    while busy < run.seconds or i % group or i < run.min_ops:
        if len(run.setup) < SETUP_PROBES - 1 and busy >= next_probe:
            probe_pair(run)
            next_probe += run.seconds / (SETUP_PROBES - 1)
        do_op(i)
        busy += run.ops[-1].duration
        i += 1
    while len(run.setup) < SETUP_PROBES:
        probe_pair(run)


def probe_pair(run: Run) -> None:
    run.reference.append(import_probe(run, REFERENCE_MODULE))
    run.setup.append(import_probe(run, "phononbus.cli"))


def _in_process_op(run: Run, i: int, argv: list, check, runs: int, **info) -> None:
    if run.tracer is not None:
        run.tracer.op = i
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        rc = _cli(argv)
    except Exception:                   # noqa: BLE001 - an escaping exception is a failed op
        rc = None
        err = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    run.ops.append(Op(t1 - t0, runs, _cpu() - cpu0, **info))
    if rc is None:
        run.attempted += 1
        run.failures.append(f"op {i}: {err}")
        return
    run.checked(f"op {i}", lambda: (_expect_rc(rc), check())[1])


def protocol_mix(run: Run) -> None:
    cfg_dir, out_root = run.scratch("cfg"), run.scratch("out")

    def op(i: int) -> None:
        case = gen.simulate_case(run.seed, i)
        cfg, out = cfg_dir / f"sim{i}.ini", out_root / f"sim{i}"
        cfg.write_text(case.config_text(), encoding="utf-8")

        def check() -> int:
            n = oracle.check_trajectory((out / "trajectory.csv").read_text(encoding="utf-8"), case)
            json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            return n

        _in_process_op(run, i, ["simulate", "--config", cfg, "--out", out], check, 1)
        shutil.rmtree(out, ignore_errors=True)

    timed_loop(run, op)


def sweep_grid(run: Run) -> None:
    """Whole cycles of the eight sweep operations, so every kind runs equally often."""
    cfg_dir, out_root = run.scratch("cfg"), run.scratch("out")
    cycle_len = 2 * len(gen.SWEEP_KINDS)

    def op(i: int) -> None:
        case = gen.sweep_case(run.seed, i)
        cfg, out = cfg_dir / f"sweep{i}.ini", out_root / f"sweep{i}"
        cfg.write_text(case.config_text(), encoding="utf-8")
        argv = ["sweep", "--config", cfg, "--out", out, "--jobs", case.jobs]
        _in_process_op(run, i, argv, lambda: oracle.check_sweep(out, case), case.evaluations,
                       jobs=case.jobs, cycle=i // cycle_len)
        shutil.rmtree(out, ignore_errors=True)

    timed_loop(run, op, cycle_len)


def _write_mesh(run: Run, mesh: gen.Mesh) -> tuple[Path, Path, Path]:
    from phononbus import device

    d = run.scratch("mesh")
    n = mesh.n_cells
    common = dict(positions=mesh.positions, volumes=mesh.volumes, permittivity=mesh.permittivity,
                  frequency_hz=gen.F0)
    e_profile = device.FieldProfile(e_field=mesh.e_field, strain_voigt=np.zeros((n, 6)),
                                    compliance_weight=np.ones(n), source="bench-e", **common)
    t_profile = device.FieldProfile(e_field=np.zeros((n, 3)), strain_voigt=mesh.strain,
                                    compliance_weight=mesh.compliance, source="bench-t", **common)
    paths = d / "e_profile.txt", d / "t_profile.txt", d / "piezo.txt"
    device.write_field_profile(e_profile, paths[0])
    device.write_field_profile(t_profile, paths[1])
    paths[2].write_text(gen.piezo_text(mesh.piezo), encoding="utf-8")
    return paths


def _reordered_copy(src: Path, dst: Path, order: np.ndarray) -> None:
    """``src`` with its cell rows in ``order``: the same cells, other bytes."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.readlines()
    head = len(lines) - order.size
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:head])
        fh.writelines(lines[head + k] for k in order)


def coupling_mesh(run: Run) -> None:
    mesh = gen.mesh(run.seed, run.mesh_cells)
    e_path, t_path, piezo_path = _write_mesh(run, mesh)
    cfg_dir, out_root = run.scratch("cfg"), run.scratch("out")

    def op(i: int) -> None:
        case = gen.coupling_case(run.seed, i)
        order = gen.cell_order(run.seed, i, run.mesh_cells)
        cfg, out = cfg_dir / f"coupling{i}.ini", out_root / f"coupling{i}"
        e_op, t_op = cfg_dir / f"e{i}.txt", cfg_dir / f"t{i}.txt"
        _reordered_copy(e_path, e_op, order)
        _reordered_copy(t_path, t_op, order)
        cfg.write_text(case.config_text(e_op, t_op, piezo_path), encoding="utf-8")

        def check() -> int:
            report = json.loads((out / "coupling.json").read_text(encoding="utf-8"))
            return oracle.check_coupling(report, oracle.coupling_reference(mesh, case))

        _in_process_op(run, i, ["coupling", "--config", cfg, "--out", out], check, 0)
        shutil.rmtree(out, ignore_errors=True)
        for path in (cfg, e_op, t_op):
            path.unlink()

    timed_loop(run, op)

    # spin-field and qbudget once per run: untimed, checked, traced
    if run.tracer is not None:
        run.tracer.phase = "extras"
    spin = gen.spin_field_case(run.seed)
    qb = gen.qbudget_case(run.seed)
    for name, case in (("spin-field", spin), ("qbudget", qb)):
        (cfg_dir / f"{name}.ini").write_text(case.config_text(), encoding="utf-8")

    def spin_check() -> int:
        out = out_root / "spin-field"
        _expect_rc(_cli(["spin-field", "--config", cfg_dir / "spin-field.ini", "--out", out]))
        return oracle.check_spin_field(out, spin)

    def qbudget_check() -> int:
        out = out_root / "qbudget"
        _expect_rc(_cli(["qbudget", "--config", cfg_dir / "qbudget.ini", "--out", out]))
        return oracle.check_qbudget(json.loads((out / "qbudget.json").read_text(encoding="utf-8")), qb)

    run.checked("spin-field", spin_check)
    run.checked("qbudget", qbudget_check)


RUNNERS = {"protocol-mix": protocol_mix, "sweep-grid": sweep_grid, "coupling-mesh": coupling_mesh}


# --- metrics ----------------------------------------------------------------

def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    Below twenty samples that percentile would lie under the median; the
    maximum is reported instead, with zero samples beyond it.
    """
    d = sorted(durations)
    n = len(d)
    if n < 20:
        return d[-1], 100.0, 0
    return d[n - 11], 100.0 * (n - 10) / n, 10


def cycle_median(ops: list[Op], jobs: tuple[int, ...] = (1, 2)) -> float:
    """Median over whole sweep-grid cycles of the summed wall time of their ops at ``jobs``."""
    cycles: dict[int, list[Op]] = {}
    for op in ops:
        if op.jobs in jobs:
            cycles.setdefault(op.cycle, []).append(op)
    full = [sum(o.duration for o in c) for c in cycles.values() if len(c) == len(gen.SWEEP_KINDS) * len(jobs)]
    return statistics.median(full) if full else float("nan")


def op_p50(run: Run, workload: str) -> float:
    if workload == "sweep-grid":
        return cycle_median(run.ops)
    return statistics.median(op.duration for op in run.ops)


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(self_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end(run: Run, workload: str) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the workload-specific ones reported beside them.

    On sweep-grid the eight commands of a cycle differ in kind and ``--jobs``,
    so a median over commands would sit between two of them and jump with
    every seed; its ``op_p50_s`` is the median wall time of one whole cycle.

    On a shared virtual machine the host changes the speed it gives the guest
    for seconds to many minutes at a time (by up to 1.7x on a 2-vCPU cloud
    VM), so wall times of the same code move that much between runs.
    The gated op latencies are therefore ``op_p50_rel`` and ``op_tail_rel``:
    the wall times divided by the median wall time of the reference task
    measured in the same run. The wall times themselves are reported beside.
    """
    durations = [op.duration for op in run.ops]
    busy = sum(durations)
    p50 = op_p50(run, workload)
    tail_value, tail_pct, beyond = tail(durations)
    reference = statistics.median(run.reference)
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "op_p50_rel": (p50 / reference, "ratio"),
        "op_tail_rel": (tail_value / reference, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    runs = sum(op.runs for op in run.ops)
    extra = {
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_value, "s"),
        "reference_s": (reference, "s"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_samples_beyond": (beyond, "count"),
        "op_samples": (len(durations), "count"),
        "error_rate": (len(run.failures) / max(run.attempted, 1), "ratio"),
        "oracle_checks": (run.checks, "count"),
    }
    if runs:
        extra["protocol_runs_per_s"] = (runs / busy, "1/s")
    if workload == "sweep-grid":
        extra["sweep_jobs1_s"] = (cycle_median(run.ops, (1,)), "s")
        extra["sweep_jobs2_s"] = (cycle_median(run.ops, (2,)), "s")
    if workload == "coupling-mesh":
        extra["cells_per_s"] = (run.mesh_cells * len(durations) / busy, "1/s")
        extra["mesh_cells"] = (run.mesh_cells, "count")
    return metrics, extra


PER_OP_LAYERS = (
    ("dynamics.evolve", ("calls", "busy_s", "self_s")),
    ("dynamics.segment_liouvillian", ("calls", "busy_s")),
    ("dynamics.expm", ("calls", "busy_s")),
    ("dynamics.to_csv", ("busy_s",)),
    ("protocols.run", ("calls", "busy_s", "self_s")),
    ("protocols.sweep", ("busy_s",)),
    ("protocols.hierarchy", ("busy_s",)),
    ("device.read_field_profile", ("busy_s",)),
    ("device.normalize", ("busy_s",)),
    ("device.electromechanical_coupling", ("busy_s",)),
    ("device.spin_coupling_map", ("busy_s",)),
    ("config.parse_run_config", ("busy_s",)),
    ("config.manifest_write", ("busy_s",)),
    ("qops.embed", ("calls", "busy_s")),
)
PER_RUN_LAYERS = (                      # layers that run only at set-up or once per run
    ("device.write_field_profile", ("busy_s",)),
    ("spin.field_for_splitting", ("calls", "busy_s")),
    ("spin.analytic_eigensystem", ("calls", "busy_s")),
)


def per_layer(run: Run, workload: str) -> dict:
    """Per-layer metrics from the traced spans: per timed op, or per run for set-up layers."""
    spans = run.tracer.spans
    n_ops = max(len(run.ops), 1)
    ops = layer_totals(spans, {"ops"})
    once = layer_totals(spans, {"setup", "extras"})
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for layers, totals, scale in ((PER_OP_LAYERS, ops, n_ops), (PER_RUN_LAYERS, once, 1)):
        for name, keys in layers:
            t = totals.get(name, zero)
            for key in keys:
                metrics[f"{name}.{key}"] = (t[key] / scale, "count" if key == "calls" else "s")
    cli = ops.get("cli.main", zero)
    metrics["cli.self_s"] = (cli["self_s"] / n_ops, "s")
    reads = ops.get("device.read_field_profile", zero)
    metrics["device.read_field_profile.cells_per_s"] = (
        reads["calls"] * run.mesh_cells / reads["busy_s"] if reads["busy_s"] else 0.0, "1/s")
    runs = ops.get("protocols.run", zero)["calls"]
    metrics["protocols.evolve_per_run"] = (
        ops.get("dynamics.evolve", zero)["calls"] / runs if runs else 0.0, "ratio")
    evaluations = sum(op.runs for op in run.ops)
    metrics["protocols.cpu_per_run_s"] = (
        sum(op.cpu for op in run.ops if op.runs) / evaluations if evaluations else 0.0, "s")
    metrics["traced.op_p50_s"] = (op_p50(run, workload), "s")
    self_sums = self_time_by_op(spans, "ops")
    gaps = [op.duration - self_sums.get(i, 0.0) for i, op in enumerate(run.ops)]
    metrics["traced.self_sum_gap_s"] = (statistics.median(gaps), "s")
    return metrics


# --- environment ------------------------------------------------------------

def _blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except Exception:                   # noqa: BLE001 - the field is informational
        return "unknown"


def _commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(run: Run, workload: str, trace: bool) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": trace,
        "mesh_cells": run.mesh_cells if workload == "coupling-mesh" else None,
        "commit": _commit(run.root),
        "src_sha256": _src_digest(run.root),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
    }


# --- one run ----------------------------------------------------------------

def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 mesh_cells: int = gen.MESH_CELLS, min_ops: int = MIN_OPS) -> dict:
    """Run one workload; returns correctness counts, metrics and the environment."""
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, work, seed, seconds, None, mesh_cells, min_ops)
    try:
        # before the workload grows this process, so forked pool workers stay small
        determinism_checks(run)
        if trace:
            run.tracer = Tracer().install()
        try:
            RUNNERS[workload](run)
        finally:
            if run.tracer is not None:
                run.tracer.uninstall()
        metrics, extra = end_to_end(run, workload)
        if trace:
            metrics = per_layer(run, workload)
        return {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": metrics,
            "extra": extra,
            "failures": run.failures[:20],
            "op_durations_s": [op.duration for op in run.ops],
            "environment": environment(run, workload, trace),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
