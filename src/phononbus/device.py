"""Device-physics calculators: zero-point normalizations, overlap couplings,
quality-factor budget, and cooperativities.

Units convention (global to the package): every configured or exchanged rate
and frequency is an ordinary frequency in Hz, i.e. the quantity usually
quoted as omega/2pi or kappa/2pi. Angular 2pi factors appear only inside the
time-evolution kernels in :mod:`phononbus.dynamics`. Zero-point prefactors
here therefore use the photon/phonon energy h*f.

Field profiles arrive pre-meshed (one record per mesh cell) and integrals
are plain cell sums, matching the volume integration of the upstream
finite-element exports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridMismatchError, NumericalIntegrityError, TransducerWarning

PLANCK_H = 6.62607015e-34  # J / Hz (exact SI)

# Field-profile file, version 1. Header lines are "key = value" with exactly
# the keys below; then cell_count whitespace-separated rows with 18 columns:
#   x_m y_m z_m volume_m3 ex_re ex_im ey_re ey_im ez_re ez_im
#   s1 s2 s3 s4 s5 s6 compliance_weight_j_per_m3 permittivity_f_per_m
# The strain 6-vector uses engineering-shear Voigt order
# (s1..s6) = (e_xx, e_yy, e_zz, 2 e_yz, 2 e_zx, 2 e_xy).
FIELD_PROFILE_HEADER_KEYS = ("profile_format", "source", "frequency_hz", "voigt_convention", "cell_count")
FIELD_PROFILE_FORMAT = "field-profile-v1"
FIELD_PROFILE_COLUMNS = 18


@dataclass(frozen=True)
class FieldProfile:
    """Discretized mode data on a volumetric grid.

    positions (N, 3) m; volumes (N,) m^3; e_field (N, 3) complex V/m;
    strain_voigt (N, 6) engineering-shear Voigt components;
    compliance_weight (N,) elastic energy density of the mode at export
    amplitude, J/m^3; permittivity (N,) F/m.
    """

    positions: np.ndarray
    volumes: np.ndarray
    e_field: np.ndarray
    strain_voigt: np.ndarray
    compliance_weight: np.ndarray
    permittivity: np.ndarray
    frequency_hz: float
    source: str = ""

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        n = pos.shape[0]
        if n == 0:
            raise ValueError("field profile needs at least one cell")
        vol = np.asarray(self.volumes, dtype=float).reshape(n)
        ef = np.asarray(self.e_field, dtype=complex).reshape(n, 3)
        # Complex strain channels are legal in memory (traveling modes, phase
        # tests); the v1 file format serializes real channels only.
        sv = np.asarray(self.strain_voigt, dtype=complex).reshape(n, 6)
        cw = np.asarray(self.compliance_weight, dtype=float).reshape(n)
        perm = np.asarray(self.permittivity, dtype=float).reshape(n)
        if pos.shape != (n, 3):
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if np.any(vol <= 0):
            raise ValueError("all cell volumes must be positive")
        if not np.all(np.isfinite(sv)):
            raise ValueError("strain components must be finite")
        for a in (pos, vol, ef, sv, cw, perm):
            a.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "volumes", vol)
        object.__setattr__(self, "e_field", ef)
        object.__setattr__(self, "strain_voigt", sv)
        object.__setattr__(self, "compliance_weight", cw)
        object.__setattr__(self, "permittivity", perm)

    @property
    def n_cells(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class PiezoTensor:
    """3x6 piezoelectric coupling matrix, engineering-shear Voigt columns.

    Supply coefficients in units that make (d @ tensor_channel) an electric
    displacement (C/m^2), e.g. stress-charge coefficients when the profile's
    tensor channel stores dimensionless strain.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.shape != (3, 6):
            raise ValueError(f"piezo tensor must be 3x6, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("piezo tensor entries must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class CapacitanceSet:
    """Qubit and transducer capacitances (F) with the reference drive voltage (V)."""

    c_s: float
    c_j: float
    c_idt: float
    v_app: float

    def __post_init__(self):
        for name in ("c_s", "c_j", "c_idt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.v_app <= 0:
            raise ValueError("v_app must be positive")

    @property
    def total(self) -> float:
        return self.c_s + self.c_j + self.c_idt


@dataclass(frozen=True)
class QBudget:
    """Mechanical loss budget: clamping, participation-weighted TLS channels, Akhiezer."""

    q_clamp: float
    tls_channels: tuple[tuple[float, float], ...] = ()
    q_akhiezer: float | None = None    # None: negligible at millikelvin, term dropped

    def __post_init__(self):
        if self.q_clamp <= 0:
            raise ValueError("q_clamp must be positive")
        channels = tuple((float(p), float(q)) for p, q in self.tls_channels)
        total_p = 0.0
        for p, q in channels:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"participation {p} outside [0, 1]")
            if q <= 0:
                raise ValueError("TLS channel Q must be positive")
            total_p += p
        if total_p > 1.0 + 1e-9:
            raise ValueError(f"participations sum to {total_p} > 1")
        if self.q_akhiezer is not None and self.q_akhiezer <= 0:
            raise ValueError("q_akhiezer must be positive when given")
        object.__setattr__(self, "tls_channels", channels)


@dataclass(frozen=True)
class SystemRates:
    """Mode frequencies, decay rates, and couplings of one configuration (all Hz, ordinary)."""

    f_sc: float
    f_p: float
    f_e: float
    kappa_sc: float
    kappa_p: float
    kappa_e: float
    g_scp: float
    g_pe: float

    def __post_init__(self):
        for name in ("f_sc", "f_p", "f_e"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("kappa_sc", "kappa_p", "kappa_e", "g_scp", "g_pe"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


def transmon_frequency(e_j: float, e_c: float) -> tuple[float, float]:
    """Transmon 0-1 frequency and anharmonicity from Josephson/charging energies (Hz).

    f_01 = sqrt(8 E_J E_C) - E_C, anharmonicity = -E_C. Valid deep in the
    transmon regime; warns below E_J/E_C = 20 and rejects E_J <= E_C.
    """
    if e_c <= 0:
        raise ValueError("E_C must be positive")
    if e_j <= e_c:
        raise ValueError(f"not in the transmon regime: E_J/E_C = {e_j / e_c:.3g} <= 1")
    ratio = e_j / e_c
    if ratio < 20.0:
        warnings.warn(
            f"E_J/E_C = {ratio:.3g} < 20: two-level transmon reduction is marginal",
            TransducerWarning,
            stacklevel=2,
        )
    f01 = math.sqrt(8.0 * e_j * e_c) - e_c
    return f01, -e_c


def photon_zero_point_scale(caps: CapacitanceSet, f_sc: float) -> float:
    """Single-photon field scale sqrt(h f_sc / (C_total V_app^2 / 2)), dimensionless."""
    if f_sc <= 0:
        raise ValueError("f_sc must be positive")
    energy_ref = caps.total * caps.v_app**2 / 2.0
    return math.sqrt(PLANCK_H * f_sc / energy_ref)


def normalize_photon_field(profile: FieldProfile, caps: CapacitanceSet, f_sc: float) -> FieldProfile:
    """Rescale the electric field to single-photon amplitude; strain data untouched."""
    if abs(profile.frequency_hz - f_sc) > 0.01 * f_sc:
        raise ValueError(
            f"profile frequency {profile.frequency_hz} Hz differs from f_sc = {f_sc} Hz by > 1%"
        )
    scale = photon_zero_point_scale(caps, f_sc)
    return replace(profile, e_field=profile.e_field * scale)


def phonon_zero_point_scale(profile: FieldProfile, f_p: float) -> float:
    """Single-phonon amplitude sqrt(h f_p / (sum_cells V * w / 2)) from the energy integrand w."""
    if f_p <= 0:
        raise ValueError("f_p must be positive")
    energy = float(np.dot(profile.volumes, profile.compliance_weight)) / 2.0
    if energy <= 0:
        raise ValueError("mode elastic energy integral must be positive")
    return math.sqrt(PLANCK_H * f_p / energy)


def normalize_phonon_strain(profile: FieldProfile, f_p: float) -> FieldProfile:
    """Rescale the strain channel (and its energy integrand) to single-phonon amplitude."""
    scale = phonon_zero_point_scale(profile, f_p)
    return replace(
        profile,
        strain_voigt=profile.strain_voigt * scale,
        compliance_weight=profile.compliance_weight * scale**2,
    )


def _check_same_grid(a: FieldProfile, b: FieldProfile):
    if a.n_cells != b.n_cells:
        raise GridMismatchError(
            f"profiles have {a.n_cells} and {b.n_cells} cells", cell_index=min(a.n_cells, b.n_cells)
        )
    delta = np.abs(a.positions - b.positions).max(axis=1)
    bad = np.nonzero(delta > 1e-12)[0]
    if bad.size:
        k = int(bad[0])
        raise GridMismatchError(
            f"cell {k} positions differ by {delta[k]:.3e} m", cell_index=k
        )


def electromechanical_coupling(
    e_profile: FieldProfile, t_profile: FieldProfile, piezo: PiezoTensor
) -> float:
    """Photon-phonon coupling (Hz) from the piezoelectric overlap of normalized profiles.

    g = (1 / 2 hbar) integral dV (t* . d^T . e + e* . d . t), evaluated as a
    cell sum and converted to ordinary frequency. The integrand is
    self-adjoint, so the imaginary residual must stay below 1e-9 of the
    magnitude.
    """
    _check_same_grid(e_profile, t_profile)
    d = piezo.d
    t = t_profile.strain_voigt
    e = e_profile.e_field
    term1 = np.einsum("cj,jk,ck->c", t.conj(), d.T, e)
    term2 = np.einsum("ci,ij,cj->c", e.conj(), d, t)
    integral = complex(np.dot(e_profile.volumes, term1 + term2))
    magnitude = abs(integral)
    if magnitude > 0 and abs(integral.imag) > 1e-9 * magnitude:
        raise NumericalIntegrityError(
            f"overlap integral has relative imaginary residual {abs(integral.imag) / magnitude:.3e}"
        )
    return integral.real / (2.0 * PLANCK_H)


def voigt_to_tensor(voigt: np.ndarray) -> np.ndarray:
    """Symmetric 3x3 tensor from an engineering-shear Voigt 6-vector."""
    s1, s2, s3, s4, s5, s6 = voigt
    return np.array(
        [
            [s1, s6 / 2.0, s5 / 2.0],
            [s6 / 2.0, s2, s4 / 2.0],
            [s5 / 2.0, s4 / 2.0, s3],
        ]
    )


@dataclass(frozen=True)
class SpinCouplingMap:
    """Per-cell spin-strain coupling and the cell realizing the maximal magnitude."""

    positions: np.ndarray
    g_pe: np.ndarray
    max_index: int

    @property
    def max_position(self) -> np.ndarray:
        return self.positions[self.max_index]

    @property
    def max_g_pe(self) -> float:
        return float(self.g_pe[self.max_index])


def spin_coupling_map(
    t_profile: FieldProfile, chi_eff: float, emitter_rotation: np.ndarray
) -> SpinCouplingMap:
    """g_pe(r) = chi_eff (e'_xx - e'_yy) with strain rotated into the emitter frame."""
    r = np.asarray(emitter_rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"emitter rotation must be 3x3, got {r.shape}")
    if np.abs(r @ r.T - np.eye(3)).max() > 1e-10:
        raise ValueError("emitter rotation matrix is not orthogonal")
    raw = np.empty(t_profile.n_cells, dtype=complex)
    for k in range(t_profile.n_cells):
        eps = voigt_to_tensor(t_profile.strain_voigt[k])
        eps_e = r @ eps @ r.T
        raw[k] = chi_eff * (eps_e[0, 0] - eps_e[1, 1])
    imag_max = float(np.abs(raw.imag).max())
    scale = float(np.abs(raw).max())
    if scale > 0.0 and imag_max > 1e-9 * scale:
        raise NumericalIntegrityError(
            f"spin coupling map has imaginary residual {imag_max:.3e}; "
            "supply a real (standing-mode) strain channel"
        )
    values = raw.real
    max_index = int(np.argmax(np.abs(values)))
    return SpinCouplingMap(t_profile.positions, values, max_index)


def q_total(budget: QBudget) -> float:
    """Total mechanical quality factor: harmonic sum of clamping, TLS, Akhiezer terms."""
    inv = 1.0 / budget.q_clamp
    for p, q in budget.tls_channels:
        inv += p / q
    if budget.q_akhiezer is not None:
        inv += 1.0 / budget.q_akhiezer
    return 1.0 / inv


def kappa_from_q(f_p: float, q: float) -> float:
    """Phonon decay rate (ordinary Hz) f_p / Q."""
    if not q > 0:
        raise ValueError("Q must be positive")
    return f_p / q


def cooperativity(g: float, kappa_a: float, kappa_b: float) -> float:
    """C = 4 g^2 / (kappa_a kappa_b); unit-consistent for ordinary-frequency inputs."""
    if kappa_a <= 0 or kappa_b <= 0:
        raise ValueError("decay rates must be positive for a cooperativity")
    return 4.0 * g**2 / (kappa_a * kappa_b)


def mode_elimination_check(g_k: float, delta_k: float, kappa_p0: float) -> tuple[float, bool]:
    """Decay induced through a spectator mode: g (g^2 / (g^2 + Delta^2))^2.

    Returns the induced rate and whether it is negligible against the
    intrinsic rate of the mode of interest.
    """
    if g_k < 0:
        raise ValueError("spectator coupling must be nonnegative")
    if g_k == 0.0:
        return 0.0, True
    ratio = g_k**2 / (g_k**2 + delta_k**2)
    induced = g_k * ratio**2
    return induced, induced < kappa_p0


def write_field_profile(profile: FieldProfile, path) -> None:
    """Serialize a profile in the v1 text format (see module docstring)."""
    lines = [
        f"profile_format = {FIELD_PROFILE_FORMAT}",
        f"source = {profile.source or 'unlabeled'}",
        f"frequency_hz = {profile.frequency_hz!r}",
        "voigt_convention = engineering",
        f"cell_count = {profile.n_cells}",
    ]
    if float(np.abs(profile.strain_voigt.imag).max()) > 0.0:
        raise ValueError("the v1 profile format stores real strain channels only")
    for k in range(profile.n_cells):
        e = profile.e_field[k]
        row = [
            *profile.positions[k],
            profile.volumes[k],
            e[0].real, e[0].imag, e[1].real, e[1].imag, e[2].real, e[2].imag,
            *profile.strain_voigt[k].real,
            profile.compliance_weight[k],
            profile.permittivity[k],
        ]
        lines.append(" ".join(f"{x:.17e}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_field_profile(path) -> FieldProfile:
    """Parse the v1 field-profile format; unknown header keys are rejected."""
    path = Path(path)
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and not rows and len(header) < len(FIELD_PROFILE_HEADER_KEYS):
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in FIELD_PROFILE_HEADER_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown field-profile header '{key}'")
            if key in header:
                raise ConfigError(f"{path}:{lineno}: duplicate header '{key}'")
            header[key] = value.strip()
            continue
        parts = line.split()
        if len(parts) != FIELD_PROFILE_COLUMNS:
            raise ConfigError(
                f"{path}:{lineno}: expected {FIELD_PROFILE_COLUMNS} columns, got {len(parts)}"
            )
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric cell data") from exc

    missing = [k for k in FIELD_PROFILE_HEADER_KEYS if k not in header]
    if missing:
        raise ConfigError(f"{path}: missing field-profile headers {missing}")
    if header["profile_format"] != FIELD_PROFILE_FORMAT:
        raise ConfigError(f"{path}: unsupported profile format '{header['profile_format']}'")
    if header["voigt_convention"] != "engineering":
        raise ConfigError(
            f"{path}: voigt_convention must be 'engineering', got '{header['voigt_convention']}'"
        )
    n = int(header["cell_count"])
    if len(rows) != n:
        raise ConfigError(f"{path}: header says {n} cells, file has {len(rows)}")
    data = np.asarray(rows, dtype=float)
    e_field = data[:, 4:10:2] + 1j * data[:, 5:11:2]
    return FieldProfile(
        positions=data[:, 0:3],
        volumes=data[:, 3],
        e_field=e_field,
        strain_voigt=data[:, 10:16],
        compliance_weight=data[:, 16],
        permittivity=data[:, 17],
        frequency_hz=float(header["frequency_hz"]),
        source=header["source"],
    )


def read_piezo_tensor(path) -> PiezoTensor:
    """Parse a 3x6 plain-numeric piezo tensor file.

    The first comment line must declare the engineering-shear Voigt
    convention; a silent convention mismatch is the dominant failure mode
    for these files.
    """
    path = Path(path)
    declared = False
    rows = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            if "engineering" in stripped:
                declared = True
            continue
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 6:
            raise ConfigError(f"{path}:{lineno}: piezo rows need 6 columns, got {len(parts)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric piezo entry") from exc
    if not declared:
        raise ConfigError(
            f"{path}: header must declare the engineering-shear Voigt convention "
            "(comment line containing 'engineering')"
        )
    if len(rows) != 3:
        raise ConfigError(f"{path}: piezo tensor needs exactly 3 rows, got {len(rows)}")
    return PiezoTensor(np.asarray(rows))
