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
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .device import CapacitanceSet, QBudget, SystemRates
from .dynamics import SimOptions
from .errors import ConfigError

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
    sweep: SweepSection | None = None
    spin: SpinSection | None = None
    device: DeviceSection | None = None
    qbudget: QBudget | None = None
    output_dir: Path = Path("out")
    resolved: dict = field(default_factory=dict)

    def require(self, *sections: str) -> None:
        missing = [s for s in sections if getattr(self, s) is None]
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


def _parse_int(section: str, key: str, value: str) -> int:
    number = _parse_float(section, key, value)
    if not number.is_integer():
        raise ConfigError(f"[{section}] {key}: '{value}' is not an integer")
    return int(number)


def _parse_text(section: str, key: str, value: str) -> str:
    return value.strip()


def _parse_path(section: str, key: str, value: str) -> Path:
    """A path as written; the caller resolves it against the config's directory."""
    return Path(value.strip())


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


# section -> (the class its fields fill, {key: (field, parser)}). Every accepted key is
# named here and nowhere else; a key is required when its field has no default.
_SCHEMA = {
    "rates": (SystemRates, {
        "f_sc_hz": ("f_sc", _parse_float),
        "f_p_hz": ("f_p", _parse_float),
        "f_e_hz": ("f_e", _parse_float),
        "kappa_sc_hz": ("kappa_sc", _parse_float),
        "kappa_p_hz": ("kappa_p", _parse_float),
        "kappa_e_hz": ("kappa_e", _parse_float),
        "g_scp_hz": ("g_scp", _parse_float),
        "g_pe_hz": ("g_pe", _parse_float),
    }),
    "protocol": (ProtocolSection, {
        "kind": ("kind", _parse_text),
        "delta_p_hz": ("delta_p", _parse_float),
        "delta_i_hz": ("delta_i", _parse_float),
        "horizon_s": ("horizon", _parse_float),
    }),
    "sim": (SimOptions, {
        "method": ("method", _parse_text),
        "rel_tol": ("rel_tol", _parse_float),
        "n_ph": ("n_ph", _parse_int),
        "sample_dt_s": ("sample_dt", _parse_float),
        "spin_decay_model": ("spin_decay_model", _parse_text),
    }),
    "sweep": (SweepSection, {
        "kind": ("kind", _parse_text),
        "values": ("values", _parse_float_list),
        "delta_p_hz": ("delta_p", _parse_float),
        "delta_i_hz": ("delta_i", _parse_float),
    }),
    "spin": (SpinSection, {
        "lambda_g_hz": ("lambda_g", _parse_float),
        "gamma_s_hz_per_t": ("gamma_s", _parse_float),
        "chi_eff_hz_per_strain": ("chi_eff", _parse_float),
        "gamma_l_hz_per_t": ("gamma_l", _parse_float),
        "orbital_quench_q": ("q", _parse_float),
        "b_x_t": ("b_x", _parse_float),
        "b_z_t": ("b_z", _parse_float),
        "target_splitting_hz": ("target_splitting", _parse_float),
        "b_max_grid_t": ("b_max_grid", _parse_float_list),
        "reference_strain": ("reference_strain", _parse_float),
    }),
    "device": (DeviceSection, {
        "c_s_f": ("c_s", _parse_float),
        "c_j_f": ("c_j", _parse_float),
        "c_idt_f": ("c_idt", _parse_float),
        "v_app_v": ("v_app", _parse_float),
        "e_profile_path": ("e_profile_path", _parse_path),
        "t_profile_path": ("t_profile_path", _parse_path),
        "piezo_path": ("piezo_path", _parse_path),
        "emitter_rotation": ("emitter_rotation", _parse_float_list),
        "spectator_modes": ("spectator_modes", _parse_pairs),
        "e_j_hz": ("e_j", _parse_float),
        "e_c_hz": ("e_c", _parse_float),
    }),
    "qbudget": (QBudget, {
        "q_clamp": ("q_clamp", _parse_float),
        "tls_channels": ("tls_channels", _parse_pairs),
        "q_akhiezer": ("q_akhiezer", _parse_float),
    }),
    "output": (None, {
        "directory": ("directory", _parse_path),
    }),
}


def _build(path: Path, section: str, cls, values: dict):
    """``cls(**values)``, with a ValueError reported as a [section] config error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: [{section}]: {exc}") from exc


def parse_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Every missing key and every value that does not parse is reported before
    any range or consistency check.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file '{path}' does not exist")
    # no default section: a [DEFAULT] header names an ordinary section, which is unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section][1]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")

    values: dict[str, dict] = {}
    for section, (cls, table) in _SCHEMA.items():
        if not parser.has_section(section):
            continue
        raw = parser[section]
        required = () if cls is None else {
            f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
        }
        for key, (name, _) in table.items():
            if name in required and key not in raw:
                raise ConfigError(f"{path}: [{section}] is missing '{key}'")
        try:
            values[section] = {
                name: parse(section, key, raw[key]) for key, (name, parse) in table.items() if key in raw
            }
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def build(section: str):
        return _build(path, section, _SCHEMA[section][0], values[section]) if section in values else None

    base = path.parent
    if "sweep" in values and values["sweep"]["kind"] not in SWEEP_KINDS:
        raise ConfigError(f"{path}: [sweep] kind must be one of {SWEEP_KINDS}")
    if (device := values.get("device")) is not None:
        table = _SCHEMA["device"][1]
        cap_names = [f.name for f in fields(CapacitanceSet)]
        if any(name in device for name in cap_names):
            missing = [key for key, (name, _) in table.items() if name in cap_names and name not in device]
            if missing:
                raise ConfigError(f"{path}: [device] capacitance block is missing {missing}")
            device["caps"] = _build(path, "device", CapacitanceSet, {n: device.pop(n) for n in cap_names})
        for key, (name, _) in table.items():
            if isinstance(device.get(name), Path):
                device[name] = base / device[name]
                if not device[name].exists():
                    raise ConfigError(f"{path}: [device] {key}: file '{device[name]}' does not exist")
        if len(device.get("emitter_rotation", DeviceSection.emitter_rotation)) != 9:
            raise ConfigError(f"{path}: [device] emitter_rotation needs 9 entries (row major)")
    output = values.get("output", {})
    return RunConfig(
        path=path,
        rates=build("rates"),
        protocol=build("protocol"),
        sim=_build(path, "sim", SimOptions, values.get("sim", {})),
        sweep=build("sweep"),
        spin=build("spin"),
        device=build("device"),
        qbudget=build("qbudget"),
        output_dir=base / output["directory"] if "directory" in output else Path("out"),
        resolved={s: dict(parser[s]) for s in parser.sections()},
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
