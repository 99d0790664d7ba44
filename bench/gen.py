"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, index)``: the same seed gives
byte-identical config text and arrays, and operation ``i`` of one seed never
shares its inputs with operation ``j``. The *shape* of each operation (kind,
phonon truncation, decay model, integration method, sweep kind, ``--jobs``)
depends on the index alone, so every seed does the same mix of work; the
seed only moves the physical parameter values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

F0 = 4.31e9                       # all three mode frequencies, Hz
KAPPAS = {"kappa_sc": 100e3, "kappa_p": 43.1e3, "kappa_e": 1e6}   # shipped values, Hz
PROTOCOL_KINDS = ("resonant", "virtual-phonon", "double-rabi")
N_PH_CYCLE = (2, 3, 3, 4)         # 1/4, 1/2, 1/4
SWEEP_KINDS = ("delta-i", "delta-p", "delta-g", "hierarchy")
SWEEP_POINTS = 3
HIERARCHY_POINTS = 1
MESH_CELLS = 10_000               # one coupling op then takes about 0.35 s

# Stream tags keep the generators independent: adding a draw to one
# generator never shifts the values another one produces.
_SIMULATE, _SWEEP, _MESH, _COUPLING, _SPIN, _QBUDGET, _ORDER = range(7)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, int(index)])


def _rates(rng: np.random.Generator) -> dict[str, float]:
    rates = {"f_sc": F0, "f_p": F0, "f_e": F0}
    for key, nominal in KAPPAS.items():
        rates[key] = nominal * rng.uniform(0.5, 1.5)
    rates["g_scp"] = rng.uniform(2e6, 10e6)
    rates["g_pe"] = rng.uniform(2e6, 10e6)
    return rates


def _rates_section(rates: dict[str, float]) -> str:
    lines = ["[rates]"]
    for key in ("f_sc", "f_p", "f_e", "kappa_sc", "kappa_p", "kappa_e", "g_scp", "g_pe"):
        lines.append(f"{key}_hz = {rates[key]!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimulateCase:
    """One ``phononbus simulate`` input and everything the oracle needs."""

    kind: str
    rates: dict
    n_ph: int
    decay_model: str
    method: str
    rel_tol: float
    delta_p: float | None
    delta_i: float | None

    def config_text(self) -> str:
        lines = ["[protocol]", f"kind = {self.kind}"]
        if self.delta_p is not None:
            lines.append(f"delta_p_hz = {self.delta_p!r}")
        if self.delta_i is not None:
            lines.append(f"delta_i_hz = {self.delta_i!r}")
        lines += [
            "",
            "[sim]",
            f"method = {self.method}",
            f"rel_tol = {self.rel_tol!r}",
            f"n_ph = {self.n_ph}",
            f"spin_decay_model = {self.decay_model}",
        ]
        return _rates_section(self.rates) + "\n" + "\n".join(lines) + "\n"


def simulate_case(seed: int, i: int) -> SimulateCase:
    """Operation ``i`` of the protocol-mix workload.

    Kinds rotate evenly; n_ph follows 2/3/3/4; every 5th op uses spin
    dephasing and every 32nd the adaptive stepper.
    """
    rng = _rng(seed, _SIMULATE, i)
    rates = _rates(rng)
    delta_p = math.copysign(rng.uniform(15e6, 60e6), rng.uniform(-1.0, 1.0))
    delta_i = rng.uniform(0.1e9, 1e9)
    kind = PROTOCOL_KINDS[i % 3]
    return SimulateCase(
        kind=kind,
        rates=rates,
        n_ph=N_PH_CYCLE[(i // 3) % 4],
        decay_model="dephasing" if i % 5 == 4 else "energy",
        method="adaptive-stepper" if i % 32 == 31 else "piecewise-exponential",
        rel_tol=1e-8,
        delta_p=delta_p if kind == "virtual-phonon" else None,
        delta_i=delta_i if kind == "double-rabi" else None,
    )


@dataclass(frozen=True)
class SweepCase:
    """One ``phononbus sweep`` input: kind, grid, base rates and ``--jobs``."""

    kind: str
    values: tuple
    rates: dict
    delta_p: float
    delta_i: float
    jobs: int
    invalid_index: int | None = None    # delta-g point whose g_scp <= 0

    @property
    def evaluations(self) -> int:
        """Protocol evaluations: one per sweep point, three per hierarchy Q."""
        return 3 * len(self.values) if self.kind == "hierarchy" else len(self.values)

    def config_text(self) -> str:
        values = ", ".join(repr(v) for v in self.values)
        lines = [
            "[sweep]",
            f"kind = {self.kind}",
            f"values = {values}",
            f"delta_p_hz = {self.delta_p!r}",
            f"delta_i_hz = {self.delta_i!r}",
            "",
            "[sim]",
            "method = piecewise-exponential",
            "n_ph = 3",
        ]
        return _rates_section(self.rates) + "\n" + "\n".join(lines) + "\n"


def sweep_case(seed: int, i: int) -> SweepCase:
    """Operation ``i`` of the sweep-grid workload.

    Kinds cycle delta-i, delta-p, delta-g, hierarchy; each kind runs once at
    ``--jobs 1`` and once at ``--jobs 2`` on its own grid. Each delta-g grid
    holds exactly one point with g_scp = g_pe + delta_g <= 0.
    """
    rng = _rng(seed, _SWEEP, i)
    rates = _rates(rng)
    kind = SWEEP_KINDS[(i // 2) % 4]
    jobs = 1 + i % 2
    delta_p = math.copysign(rng.uniform(15e6, 60e6), rng.uniform(-1.0, 1.0))
    delta_i = rng.uniform(0.1e9, 1e9)
    invalid = None
    if kind == "delta-i":
        values = rng.uniform(0.1e9, 1e9, SWEEP_POINTS)
    elif kind == "delta-p":
        values = rng.uniform(15e6, 60e6, SWEEP_POINTS) * rng.choice([-1.0, 1.0], SWEEP_POINTS)
    elif kind == "delta-g":
        g_pe = rates["g_pe"]
        values = rng.uniform(1e6 - g_pe, 5e6, SWEEP_POINTS)   # g_scp >= 1 MHz
        invalid = int(rng.integers(SWEEP_POINTS))
        values[invalid] = -g_pe - rng.uniform(0.0, 2e6)
    else:
        values = np.sort(10.0 ** rng.uniform(3.0, 7.0, HIERARCHY_POINTS))
    return SweepCase(kind, tuple(float(v) for v in values), rates, delta_p, delta_i, jobs, invalid)


@dataclass(frozen=True)
class Mesh:
    """A synthetic pair of E and T profiles on one grid, plus the piezo tensor."""

    positions: np.ndarray
    volumes: np.ndarray
    e_field: np.ndarray
    strain: np.ndarray
    compliance: np.ndarray
    permittivity: np.ndarray
    piezo: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.volumes.size


def mesh(seed: int, n_cells: int = MESH_CELLS) -> Mesh:
    rng = _rng(seed, _MESH)
    return Mesh(
        positions=rng.uniform(-5e-6, 5e-6, (n_cells, 3)),
        volumes=rng.uniform(0.5, 1.5, n_cells) * 1e-19,
        e_field=(rng.normal(size=(n_cells, 3)) + 1j * rng.normal(size=(n_cells, 3))) * 1e6,
        strain=rng.normal(size=(n_cells, 6)) * 1e-6,
        compliance=rng.uniform(0.5, 1.5, n_cells),
        permittivity=rng.uniform(7e-11, 9e-11, n_cells),
        piezo=rng.uniform(-1.0, 1.0, (3, 6)),
    )


def cell_order(seed: int, i: int, n_cells: int) -> np.ndarray:
    """The order in which coupling op ``i`` lists the mesh cells."""
    return _rng(seed, _ORDER, i).permutation(n_cells)


def piezo_text(piezo: np.ndarray) -> str:
    rows = "\n".join(" ".join(f"{x:.17e}" for x in row) for row in piezo)
    return "# engineering-shear Voigt columns (xx, yy, zz, yz, zx, xy), C/m^2\n" + rows + "\n"


@dataclass(frozen=True)
class CouplingCase:
    """One ``phononbus coupling`` input: base rates, capacitances, rotation, chi_eff."""

    rates: dict
    caps: dict
    rotation: np.ndarray
    chi_eff: float

    def config_text(self, e_path: str, t_path: str, piezo_path: str) -> str:
        rot = ", ".join(repr(float(x)) for x in self.rotation.reshape(-1))
        lines = [
            "[spin]",
            "lambda_g_hz = 425e9",
            "gamma_s_hz_per_t = 56e9",
            f"chi_eff_hz_per_strain = {self.chi_eff!r}",
            "",
            "[device]",
            *(f"{k} = {v!r}" for k, v in self.caps.items()),
            f"e_profile_path = {e_path}",
            f"t_profile_path = {t_path}",
            f"piezo_path = {piezo_path}",
            f"emitter_rotation = {rot}",
        ]
        return _rates_section(self.rates) + "\n" + "\n".join(lines) + "\n"


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def coupling_case(seed: int, i: int) -> CouplingCase:
    rng = _rng(seed, _COUPLING, i)
    caps = {
        "c_s_f": 100e-15 * rng.uniform(0.8, 1.2),
        "c_j_f": 5e-15 * rng.uniform(0.8, 1.2),
        "c_idt_f": 10e-15 * rng.uniform(0.8, 1.2),
        "v_app_v": rng.uniform(0.5, 1.5),
    }
    return CouplingCase(_rates(rng), caps, _rotation(rng), rng.uniform(0.1e15, 0.5e15))


@dataclass(frozen=True)
class SpinFieldCase:
    """A ``spin-field`` grid with exactly one magnitude that cannot reach the target."""

    lambda_g: float
    gamma_s: float
    chi_eff: float
    target: float
    reference_strain: float
    b_grid: tuple
    unreachable_index: int

    def config_text(self) -> str:
        grid = ", ".join(repr(b) for b in self.b_grid)
        return "\n".join(
            [
                "[spin]",
                f"lambda_g_hz = {self.lambda_g!r}",
                f"gamma_s_hz_per_t = {self.gamma_s!r}",
                f"chi_eff_hz_per_strain = {self.chi_eff!r}",
                f"target_splitting_hz = {self.target!r}",
                f"b_max_grid_t = {grid}",
                f"reference_strain = {self.reference_strain!r}",
            ]
        ) + "\n"


def spin_field_case(seed: int) -> SpinFieldCase:
    """At B_x = 0 the qubit splitting is 2 gamma_s |B|, its maximum over angle,
    so |B| below target / (2 gamma_s) is unreachable and |B| above it is not."""
    rng = _rng(seed, _SPIN)
    gamma_s = 56e9 * rng.uniform(0.9, 1.1)
    target = F0 * rng.uniform(0.95, 1.05)
    b_min = target / (2.0 * gamma_s)
    grid = list(np.sort(rng.uniform(1.5 * b_min, 0.2, 6)))
    bad = int(rng.integers(len(grid) + 1))
    grid.insert(bad, 0.4 * b_min)
    return SpinFieldCase(
        lambda_g=425e9 * rng.uniform(0.9, 1.1),
        gamma_s=gamma_s,
        chi_eff=rng.uniform(0.1e15, 0.5e15),
        target=target,
        reference_strain=1e-8 * rng.uniform(0.5, 2.0),
        b_grid=tuple(float(b) for b in grid),
        unreachable_index=bad,
    )


@dataclass(frozen=True)
class QBudgetCase:
    rates: dict
    q_clamp: float
    tls: tuple
    q_akhiezer: float

    def config_text(self) -> str:
        tls = ", ".join(f"{p!r}:{q!r}" for p, q in self.tls)
        return _rates_section(self.rates) + "\n" + "\n".join(
            [
                "[qbudget]",
                f"q_clamp = {self.q_clamp!r}",
                f"tls_channels = {tls}",
                f"q_akhiezer = {self.q_akhiezer!r}",
            ]
        ) + "\n"


def qbudget_case(seed: int) -> QBudgetCase:
    rng = _rng(seed, _QBUDGET)
    n = int(rng.integers(1, 4))
    parts = rng.dirichlet(np.ones(n + 1))[:n]           # participations sum below 1
    tls = tuple((float(p), float(10.0 ** rng.uniform(4.0, 6.0))) for p in parts)
    return QBudgetCase(
        _rates(rng), float(10.0 ** rng.uniform(6.0, 8.0)), tls, float(10.0 ** rng.uniform(6.0, 9.0))
    )
