"""Run-configuration parsing and the run manifest.

One INI-style file describes one run: key = value pairs grouped in sections,
so runs stay archivable and diffable. Parsing is strict: unknown sections or
keys abort before any computation, and every referenced file must exist at
parse time. All physical values are ordinary frequencies (Hz), capacitances
in F, fields in T, times in s.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .device import CapacitanceSet, QBudget, SystemRates
from .dynamics import SimOptions
from .errors import ConfigError

_RATE_KEYS = {
    "f_sc_hz": "f_sc",
    "f_p_hz": "f_p",
    "f_e_hz": "f_e",
    "kappa_sc_hz": "kappa_sc",
    "kappa_p_hz": "kappa_p",
    "kappa_e_hz": "kappa_e",
    "g_scp_hz": "g_scp",
    "g_pe_hz": "g_pe",
}

_SCHEMA = {
    "rates": set(_RATE_KEYS),
    "protocol": {"kind", "delta_p_hz", "delta_i_hz", "horizon_s"},
    "sim": {"method", "rel_tol", "n_ph", "sample_dt_s", "spin_decay_model"},
    "sweep": {"kind", "values", "delta_p_hz", "delta_i_hz"},
    "spin": {
        "lambda_g_hz",
        "gamma_s_hz_per_t",
        "gamma_l_hz_per_t",
        "orbital_quench_q",
        "b_x_t",
        "b_z_t",
        "chi_eff_hz_per_strain",
        "target_splitting_hz",
        "b_max_grid_t",
        "reference_strain",
    },
    "device": {
        "c_s_f",
        "c_j_f",
        "c_idt_f",
        "v_app_v",
        "e_profile_path",
        "t_profile_path",
        "piezo_path",
        "emitter_rotation",
        "spectator_modes",
        "e_j_hz",
        "e_c_hz",
    },
    "qbudget": {"q_clamp", "tls_channels", "q_akhiezer"},
    "output": {"directory"},
}

SWEEP_KINDS = ("delta-i", "delta-p", "delta-g", "hierarchy")


@dataclass(frozen=True)
class ProtocolSection:
    kind: str
    delta_p: float | None = None
    delta_i: float | None = None
    horizon: float | None = None


@dataclass(frozen=True)
class SweepSection:
    kind: str
    values: tuple[float, ...]
    delta_p: float = 30e6
    delta_i: float = 1e9


@dataclass(frozen=True)
class SpinSection:
    lambda_g: float
    gamma_s: float
    chi_eff: float
    gamma_l: float = 0.0
    q: float = 0.0
    b_x: float = 0.0
    b_z: float = 0.0
    target_splitting: float = 4.31e9
    b_max_grid: tuple[float, ...] = ()
    reference_strain: float = 1e-7


@dataclass(frozen=True)
class DeviceSection:
    caps: CapacitanceSet | None = None
    e_profile_path: Path | None = None
    t_profile_path: Path | None = None
    piezo_path: Path | None = None
    emitter_rotation: tuple[float, ...] = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    spectator_modes: tuple[tuple[float, float], ...] = ()
    e_j: float | None = None
    e_c: float | None = None


@dataclass(frozen=True)
class RunConfig:
    path: Path
    rates: SystemRates | None = None
    protocol: ProtocolSection | None = None
    sim: SimOptions = field(default_factory=SimOptions)
    spin_decay_model: str = "energy"
    sweep: SweepSection | None = None
    spin: SpinSection | None = None
    device: DeviceSection | None = None
    qbudget: QBudget | None = None
    output_dir: Path = Path("out")
    resolved: dict = field(default_factory=dict)

    def require(self, *sections: str) -> None:
        missing = [s for s in sections if getattr(self, s if s != "output" else "output_dir") is None]
        if missing:
            raise ConfigError(
                f"{self.path}: command needs config section(s) {missing}"
            )


def _parse_float(section: str, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: '{value}' is not a number") from exc
    if not math.isfinite(number):
        raise ConfigError(f"[{section}] {key}: '{value}' is not a finite number")
    return number


def _parse_float_list(section: str, key: str, value: str) -> tuple[float, ...]:
    parts = [p for p in (x.strip() for x in value.split(",")) if p]
    if not parts:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_parse_float(section, key, p) for p in parts)


def _parse_pairs(section: str, key: str, value: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in (c.strip() for c in value.split(",")):
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ConfigError(f"[{section}] {key}: expected 'a:b' pairs, got '{chunk}'")
        pairs.append((_parse_float(section, key, left), _parse_float(section, key, right)))
    if not pairs:
        raise ConfigError(f"[{section}] {key}: empty pair list")
    return tuple(pairs)


def _resolve_path(base: Path, section: str, key: str, value: str) -> Path:
    p = Path(value)
    if not p.is_absolute():
        p = base / p
    if not p.exists():
        raise ConfigError(f"[{section}] {key}: file '{p}' does not exist")
    return p


def parse_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file '{path}' does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")

    base = path.parent
    resolved: dict[str, dict] = {s: dict(parser[s]) for s in parser.sections()}
    get = lambda s, k, default=None: parser.get(s, k, fallback=default)

    rates = None
    if parser.has_section("rates"):
        kwargs = {}
        for key, attr in _RATE_KEYS.items():
            raw = get("rates", key)
            if raw is None:
                raise ConfigError(f"{path}: [rates] is missing '{key}'")
            kwargs[attr] = _parse_float("rates", key, raw)
        try:
            rates = SystemRates(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: [rates]: {exc}") from exc

    protocol = None
    if parser.has_section("protocol"):
        kind = get("protocol", "kind")
        if kind is None:
            raise ConfigError(f"{path}: [protocol] is missing 'kind'")
        raw_dp = get("protocol", "delta_p_hz")
        raw_di = get("protocol", "delta_i_hz")
        raw_h = get("protocol", "horizon_s")
        protocol = ProtocolSection(
            kind=kind.strip(),
            delta_p=None if raw_dp is None else _parse_float("protocol", "delta_p_hz", raw_dp),
            delta_i=None if raw_di is None else _parse_float("protocol", "delta_i_hz", raw_di),
            horizon=None if raw_h is None else _parse_float("protocol", "horizon_s", raw_h),
        )

    sim_kwargs = {}
    spin_decay_model = "energy"
    if parser.has_section("sim"):
        if (v := get("sim", "method")) is not None:
            sim_kwargs["method"] = v.strip()
        if (v := get("sim", "rel_tol")) is not None:
            sim_kwargs["rel_tol"] = _parse_float("sim", "rel_tol", v)
        if (v := get("sim", "n_ph")) is not None:
            n_ph = _parse_float("sim", "n_ph", v)
            if not n_ph.is_integer():
                raise ConfigError(f"[sim] n_ph: '{v}' is not an integer")
            sim_kwargs["n_ph"] = int(n_ph)
        if (v := get("sim", "sample_dt_s")) is not None:
            sim_kwargs["sample_dt"] = _parse_float("sim", "sample_dt_s", v)
        if (v := get("sim", "spin_decay_model")) is not None:
            spin_decay_model = v.strip()
            if spin_decay_model not in ("energy", "dephasing"):
                raise ConfigError(
                    f"{path}: [sim] spin_decay_model must be 'energy' or 'dephasing'"
                )
    try:
        sim = SimOptions(**sim_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: [sim]: {exc}") from exc

    sweep_cfg = None
    if parser.has_section("sweep"):
        kind = get("sweep", "kind")
        raw_values = get("sweep", "values")
        if kind is None or raw_values is None:
            raise ConfigError(f"{path}: [sweep] needs 'kind' and 'values'")
        kind = kind.strip()
        if kind not in SWEEP_KINDS:
            raise ConfigError(f"{path}: [sweep] kind must be one of {SWEEP_KINDS}")
        kwargs = {"kind": kind, "values": _parse_float_list("sweep", "values", raw_values)}
        if (v := get("sweep", "delta_p_hz")) is not None:
            kwargs["delta_p"] = _parse_float("sweep", "delta_p_hz", v)
        if (v := get("sweep", "delta_i_hz")) is not None:
            kwargs["delta_i"] = _parse_float("sweep", "delta_i_hz", v)
        sweep_cfg = SweepSection(**kwargs)

    spin_cfg = None
    if parser.has_section("spin"):
        required = {
            "lambda_g": "lambda_g_hz",
            "gamma_s": "gamma_s_hz_per_t",
            "chi_eff": "chi_eff_hz_per_strain",
        }
        kwargs = {}
        for attr, key in required.items():
            raw = get("spin", key)
            if raw is None:
                raise ConfigError(f"{path}: [spin] is missing '{key}'")
            kwargs[attr] = _parse_float("spin", key, raw)
        optional = {
            "gamma_l": "gamma_l_hz_per_t",
            "q": "orbital_quench_q",
            "b_x": "b_x_t",
            "b_z": "b_z_t",
            "target_splitting": "target_splitting_hz",
            "reference_strain": "reference_strain",
        }
        for attr, key in optional.items():
            raw = get("spin", key)
            if raw is not None:
                kwargs[attr] = _parse_float("spin", key, raw)
        if (v := get("spin", "b_max_grid_t")) is not None:
            kwargs["b_max_grid"] = _parse_float_list("spin", "b_max_grid_t", v)
        spin_cfg = SpinSection(**kwargs)

    device_cfg = None
    if parser.has_section("device"):
        kwargs = {}
        cap_keys = {"c_s": "c_s_f", "c_j": "c_j_f", "c_idt": "c_idt_f", "v_app": "v_app_v"}
        raw_caps = {attr: get("device", key) for attr, key in cap_keys.items()}
        if any(v is not None for v in raw_caps.values()):
            missing = [cap_keys[a] for a, v in raw_caps.items() if v is None]
            if missing:
                raise ConfigError(f"{path}: [device] capacitance block is missing {missing}")
            try:
                kwargs["caps"] = CapacitanceSet(
                    **{a: _parse_float("device", cap_keys[a], v) for a, v in raw_caps.items()}
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: [device]: {exc}") from exc
        for attr, key in (
            ("e_profile_path", "e_profile_path"),
            ("t_profile_path", "t_profile_path"),
            ("piezo_path", "piezo_path"),
        ):
            raw = get("device", key)
            if raw is not None:
                kwargs[attr] = _resolve_path(base, "device", key, raw.strip())
        if (v := get("device", "emitter_rotation")) is not None:
            rot = _parse_float_list("device", "emitter_rotation", v)
            if len(rot) != 9:
                raise ConfigError(f"{path}: [device] emitter_rotation needs 9 entries (row major)")
            kwargs["emitter_rotation"] = rot
        if (v := get("device", "spectator_modes")) is not None:
            kwargs["spectator_modes"] = _parse_pairs("device", "spectator_modes", v)
        for attr, key in (("e_j", "e_j_hz"), ("e_c", "e_c_hz")):
            raw = get("device", key)
            if raw is not None:
                kwargs[attr] = _parse_float("device", key, raw)
        device_cfg = DeviceSection(**kwargs)

    qbudget = None
    if parser.has_section("qbudget"):
        raw_qc = get("qbudget", "q_clamp")
        if raw_qc is None:
            raise ConfigError(f"{path}: [qbudget] is missing 'q_clamp'")
        kwargs = {"q_clamp": _parse_float("qbudget", "q_clamp", raw_qc)}
        if (v := get("qbudget", "tls_channels")) is not None:
            kwargs["tls_channels"] = _parse_pairs("qbudget", "tls_channels", v)
        if (v := get("qbudget", "q_akhiezer")) is not None:
            kwargs["q_akhiezer"] = _parse_float("qbudget", "q_akhiezer", v)
        try:
            qbudget = QBudget(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: [qbudget]: {exc}") from exc

    output_dir = Path("out")
    if parser.has_section("output") and (v := get("output", "directory")) is not None:
        output_dir = Path(v.strip())
        if not output_dir.is_absolute():
            output_dir = base / output_dir

    return RunConfig(
        path=path,
        rates=rates,
        protocol=protocol,
        sim=sim,
        spin_decay_model=spin_decay_model,
        sweep=sweep_cfg,
        spin=spin_cfg,
        device=device_cfg,
        qbudget=qbudget,
        output_dir=output_dir,
        resolved=resolved,
    )


@dataclass
class RunManifest:
    """Provenance record written next to a run's outputs."""

    command: str
    artifact_version: str
    config_path: str
    resolved_config: dict
    runtime_s: float
    outputs: list[str]
    warnings: list[str]

    def write(self, path) -> None:
        """Atomic write: the manifest appears only after a successful run."""
        path = Path(path)
        payload = json.dumps(asdict(self), indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".manifest-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise


def now() -> float:
    return time.monotonic()
