from dataclasses import replace

import numpy as np
import pytest

from phononbus.device import (
    PLANCK_H,
    CapacitanceSet,
    FieldProfile,
    PiezoTensor,
    QBudget,
    SystemRates,
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
    write_field_profile,
)
from phononbus.errors import (
    ConfigError,
    GridMismatchError,
    NumericalIntegrityError,
    TransducerWarning,
)

F0 = 4.31e9


def single_cell_profile(e=(0, 0, 0), strain=(0, 0, 0, 0, 0, 0), cw=1.0, volume=1e-18, f=F0):
    return FieldProfile(
        positions=np.zeros((1, 3)),
        volumes=np.array([volume]),
        e_field=np.array([e], dtype=complex),
        strain_voigt=np.array([strain], dtype=complex),
        compliance_weight=np.array([cw]),
        permittivity=np.array([8.9e-11]),
        frequency_hz=f,
        source="test",
    )


# ---------------------------------------------------------------- transmon

def test_transmon_frequency_textbook_point():
    f01, anharm = transmon_frequency(10e9, 0.2e9)
    assert f01 == pytest.approx(3.8e9, rel=1e-12)
    assert anharm == -0.2e9


def test_transmon_vanishing_ec_limit():
    values = [transmon_frequency(1e9, e_c)[0] for e_c in (1e5, 1e3, 1e1)]
    assert values[0] > values[1] > values[2]
    assert values[-1] == pytest.approx(np.sqrt(8 * 1e9 * 1e1) - 1e1, rel=1e-12)
    assert values[-1] < 1e-3 * 1e9


def test_transmon_regime_warning_and_error():
    with pytest.warns(TransducerWarning):
        transmon_frequency(10e9, 1e9)
    with pytest.raises(ValueError):
        transmon_frequency(1e9, 2e9)
    with pytest.raises(ValueError):
        transmon_frequency(1e9, -1.0)


# ------------------------------------------------------- photon field scale

def test_photon_prefactor_hand_value():
    # h*f = 1e-24 J, C_total = 100 fF, V = 1 V: sqrt(1e-24 / 5e-14) = 4.472e-6
    f = 1e-24 / PLANCK_H
    caps = CapacitanceSet(c_s=90e-15, c_j=4e-15, c_idt=6e-15, v_app=1.0)
    assert photon_zero_point_scale(caps, f) == pytest.approx(np.sqrt(2e-11), rel=1e-12)


def test_photon_prefactor_inverse_in_v_app():
    caps1 = CapacitanceSet(100e-15, 5e-15, 10e-15, 1.0)
    caps2 = CapacitanceSet(100e-15, 5e-15, 10e-15, 2.0)
    assert photon_zero_point_scale(caps1, F0) == pytest.approx(
        2.0 * photon_zero_point_scale(caps2, F0), rel=1e-14
    )


def test_photon_prefactor_shunt_dominated_limit():
    caps = CapacitanceSet(c_s=100e-15, c_j=1e-18, c_idt=1e-18, v_app=1.0)
    approx = np.sqrt(2 * PLANCK_H * F0 / (caps.c_s * caps.v_app**2))
    assert photon_zero_point_scale(caps, F0) == pytest.approx(approx, rel=1e-4)


def test_normalize_photon_field_scales_e_only():
    prof = single_cell_profile(e=(1.0, 2.0, 3.0), strain=(1, 0, 0, 0, 0, 0))
    caps = CapacitanceSet(100e-15, 5e-15, 10e-15, 1.0)
    out = normalize_photon_field(prof, caps, F0)
    scale = photon_zero_point_scale(caps, F0)
    np.testing.assert_allclose(out.e_field, prof.e_field * scale, rtol=1e-15)
    np.testing.assert_array_equal(out.strain_voigt, prof.strain_voigt)


def test_normalize_photon_field_frequency_gate():
    prof = single_cell_profile(f=F0 * 1.02)
    caps = CapacitanceSet(100e-15, 5e-15, 10e-15, 1.0)
    with pytest.raises(ValueError):
        normalize_photon_field(prof, caps, F0)


# ------------------------------------------------------ phonon strain scale

def test_phonon_prefactor_identity_fixture():
    # single cell with V * w = 2 h f: unit prefactor by construction
    v = 1e-18
    prof = single_cell_profile(strain=(1e-9, 0, 0, 0, 0, 0), cw=2 * PLANCK_H * F0 / v, volume=v)
    assert phonon_zero_point_scale(prof, F0) == pytest.approx(1.0, rel=1e-14)
    out = normalize_phonon_strain(prof, F0)
    np.testing.assert_allclose(out.strain_voigt, prof.strain_voigt, rtol=1e-14)


def test_phonon_prefactor_two_cell_hand_quadrature():
    v1, v2, w1, w2 = 2e-19, 3e-19, 40.0, 70.0
    prof = FieldProfile(
        positions=np.array([[0.0, 0, 0], [1e-7, 0, 0]]),
        volumes=np.array([v1, v2]),
        e_field=np.zeros((2, 3), dtype=complex),
        strain_voigt=np.array([[1e-5, 0, 0, 0, 0, 0], [0, 2e-5, 0, 0, 0, 0]], dtype=complex),
        compliance_weight=np.array([w1, w2]),
        permittivity=np.full(2, 8.9e-11),
        frequency_hz=F0,
        source="test",
    )
    hand = np.sqrt(PLANCK_H * F0 / ((v1 * w1 + v2 * w2) / 2.0))
    assert phonon_zero_point_scale(prof, F0) == pytest.approx(hand, rel=1e-14)


def test_normalize_phonon_strain_fixed_point():
    prof = single_cell_profile(strain=(3e-5, -1e-5, 0, 0, 0, 2e-5), cw=55.0)
    once = normalize_phonon_strain(prof, F0)
    twice = normalize_phonon_strain(once, F0)
    np.testing.assert_allclose(twice.strain_voigt, once.strain_voigt, rtol=1e-12)
    assert phonon_zero_point_scale(once, F0) == pytest.approx(1.0, rel=1e-12)


def test_normalize_phonon_strain_amplitude_invariance():
    prof = single_cell_profile(strain=(3e-5, -1e-5, 0, 0, 0, 2e-5), cw=55.0)
    scaled = FieldProfile(
        prof.positions, prof.volumes, prof.e_field,
        prof.strain_voigt * 7.0, prof.compliance_weight * 49.0, prof.permittivity,
        prof.frequency_hz, prof.source,
    )
    a = normalize_phonon_strain(prof, F0)
    b = normalize_phonon_strain(scaled, F0)
    np.testing.assert_allclose(a.strain_voigt, b.strain_voigt, rtol=1e-12)


def test_phonon_prefactor_rejects_zero_energy():
    prof = single_cell_profile(strain=(1e-5, 0, 0, 0, 0, 0), cw=0.0)
    with pytest.raises(ValueError):
        phonon_zero_point_scale(prof, F0)


# ------------------------------------------------------- overlap integral

def d33_only(d33=1.0):
    d = np.zeros((3, 6))
    d[2, 2] = d33
    return PiezoTensor(d)


def test_overlap_single_cell_hand_value():
    # one cell, e = (0,0,E), stress channel T_3 only, d_33 coupling:
    # g = V * (conj(T)*d33*E + conj(E)*d33*T) / (2h)
    e_z = 40.0 + 10.0j
    t_3 = 8e-9 + 1e-9j
    d33 = 2.4
    v = 1e-18
    e_prof = single_cell_profile(e=(0, 0, e_z), volume=v)
    t_prof = single_cell_profile(strain=(0, 0, t_3, 0, 0, 0), volume=v)
    hand = v * (np.conj(t_3) * d33 * e_z + np.conj(e_z) * d33 * t_3).real / (2 * PLANCK_H)
    got = electromechanical_coupling(e_prof, t_prof, d33_only(d33))
    assert got == pytest.approx(hand, rel=1e-12)


def test_overlap_orthogonal_fields_is_zero():
    e_prof = single_cell_profile(e=(5.0, 0, 0))          # x-polarized
    t_prof = single_cell_profile(strain=(0, 0, 1e-8, 0, 0, 0))  # couples through d33 only
    assert electromechanical_coupling(e_prof, t_prof, d33_only()) == 0.0


def test_overlap_global_phase_invariance():
    rng = np.random.default_rng(12)
    n = 5
    pos = rng.normal(size=(n, 3)) * 1e-6
    vol = np.full(n, 2e-19)
    e = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    s = (rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))) * 1e-8
    cw = np.full(n, 1.0)
    perm = np.full(n, 8.9e-11)
    d = PiezoTensor(rng.normal(size=(3, 6)))
    e_prof = FieldProfile(pos, vol, e, np.zeros((n, 6)), cw, perm, F0)
    t_prof = FieldProfile(pos, vol, np.zeros((n, 3), dtype=complex), s, cw, perm, F0)
    g0 = electromechanical_coupling(e_prof, t_prof, d)
    phase = np.exp(1j * 1.234)
    e_rot = FieldProfile(pos, vol, e * phase, np.zeros((n, 6)), cw, perm, F0)
    t_rot = FieldProfile(pos, vol, np.zeros((n, 3), dtype=complex), s * phase, cw, perm, F0)
    assert electromechanical_coupling(e_rot, t_rot, d) == pytest.approx(g0, rel=1e-12)


def test_overlap_grid_mismatch_reports_cell():
    e_prof = single_cell_profile(e=(0, 0, 1.0))
    t_prof = FieldProfile(
        positions=np.array([[1e-9, 0, 0]]),
        volumes=np.array([1e-18]),
        e_field=np.zeros((1, 3), dtype=complex),
        strain_voigt=np.array([[0, 0, 1e-8, 0, 0, 0]], dtype=complex),
        compliance_weight=np.array([1.0]),
        permittivity=np.array([8.9e-11]),
        frequency_hz=F0,
    )
    with pytest.raises(GridMismatchError) as err:
        electromechanical_coupling(e_prof, t_prof, d33_only())
    assert err.value.cell_index == 0


# ------------------------------------------------------ spin coupling map

def test_spin_map_direct_substitution():
    s = 1e-8
    prof = single_cell_profile(strain=(s, -s, 0, 0, 0, 0))
    out = spin_coupling_map(prof, 0.27e15, np.eye(3))
    assert out.g_pe[0] == pytest.approx(2 * 0.27e15 * s, rel=1e-12)
    assert out.max_index == 0


def test_spin_map_45_degree_rotation_maps_shear():
    # engineering shear s6 = 2 e_xy; a 45 degree z-rotation turns pure shear
    # into +/- (e_xx - e_yy) = 2 e_xy
    exy = 3e-9
    prof = single_cell_profile(strain=(0, 0, 0, 0, 0, 2 * exy))
    c, s_ = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s_, 0], [s_, c, 0], [0, 0, 1.0]])
    out = spin_coupling_map(prof, 1.0, rot)
    assert abs(out.g_pe[0]) == pytest.approx(2 * exy, rel=1e-12)


def test_spin_map_hydrostatic_blind():
    s = 1e-8
    prof = single_cell_profile(strain=(s, s, s, 0, 0, 0))
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    out = spin_coupling_map(prof, 0.27e15, q)
    assert abs(out.g_pe[0]) < 1e-9


def voigt_to_tensor(voigt):
    """Symmetric 3x3 tensor from an engineering-shear Voigt 6-vector: the reference for the spin map."""
    s1, s2, s3, s4, s5, s6 = voigt
    return np.array(
        [
            [s1, s6 / 2.0, s5 / 2.0],
            [s6 / 2.0, s2, s4 / 2.0],
            [s5 / 2.0, s4 / 2.0, s3],
        ]
    )


def test_spin_map_z_rotation_covariance():
    # rotating both the strain and the emitter frame about z changes nothing
    rng = np.random.default_rng(14)
    voigt = rng.normal(scale=1e-8, size=6)
    prof = single_cell_profile(strain=tuple(voigt))
    theta = 0.77
    c, s_ = np.cos(theta), np.sin(theta)
    rz = np.array([[c, -s_, 0], [s_, c, 0], [0, 0, 1.0]])
    emitter = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # arbitrary orthogonal
    eps = voigt_to_tensor(voigt).real
    eps_rot = rz @ eps @ rz.T
    rotated_voigt = (
        eps_rot[0, 0], eps_rot[1, 1], eps_rot[2, 2],
        2 * eps_rot[1, 2], 2 * eps_rot[2, 0], 2 * eps_rot[0, 1],
    )
    prof_rot = single_cell_profile(strain=rotated_voigt)
    g1 = spin_coupling_map(prof, 1.0, emitter).g_pe[0]
    g2 = spin_coupling_map(prof_rot, 1.0, emitter @ rz.T).g_pe[0]
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_spin_map_rejects_non_orthogonal_rotation():
    prof = single_cell_profile(strain=(1e-8, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        spin_coupling_map(prof, 1.0, np.eye(3) * 1.1)


def test_spin_map_rejects_complex_result():
    prof = single_cell_profile(strain=(1e-8 + 1e-9j, 0, 0, 0, 0, 0))
    with pytest.raises(NumericalIntegrityError):
        spin_coupling_map(prof, 1.0, np.eye(3))


def rotated_difference(voigt, rotation):
    """e'_xx - e'_yy per cell through the full tensor rotation R eps R^T."""
    out = []
    for v in voigt:
        eps_e = rotation @ voigt_to_tensor(v) @ rotation.T
        out.append(eps_e[0, 0] - eps_e[1, 1])
    return np.array(out)


def random_rotations(rng, count):
    for k in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if k == 0:
            q = q * np.sign(np.linalg.det(q))     # proper
        if k == 1:
            q = -q * np.sign(np.linalg.det(q))    # improper
        yield q


def test_spin_map_matches_tensor_rotation():
    rng = np.random.default_rng(18)
    prof = seeded_profile(300, 19)
    chi = 0.27e15
    dets = []
    for rot in random_rotations(rng, 20):
        dets.append(round(np.linalg.det(rot)))
        ref = chi * rotated_difference(prof.strain_voigt, rot).real
        out = spin_coupling_map(prof, chi, rot)
        assert np.abs(out.g_pe - ref).max() <= 1e-15 * np.abs(ref).max()
        assert out.max_index == int(np.argmax(np.abs(ref)))
    assert -1 in dets and 1 in dets


def test_spin_map_complex_strain_against_tensor_rotation():
    rng = np.random.default_rng(20)
    real = rng.normal(size=(50, 6)) * 1e-6
    rot = next(random_rotations(rng, 1))
    base = seeded_profile(50, 21)
    # a tiny imaginary part passes the check and leaves the real map
    faint = replace(base, strain_voigt=real + 1e-20j * rng.normal(size=(50, 6)))
    ref = rotated_difference(faint.strain_voigt, rot)
    out = spin_coupling_map(faint, 1.0, rot)
    assert np.abs(out.g_pe - ref.real).max() <= 1e-15 * np.abs(ref).max()
    # a travelling-wave phase fires the imaginary-residual check in both
    phased = replace(base, strain_voigt=real * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 1))))
    ref = rotated_difference(phased.strain_voigt, rot)
    assert np.abs(ref.imag).max() > 1e-9 * np.abs(ref).max()
    with pytest.raises(NumericalIntegrityError, match="imaginary residual"):
        spin_coupling_map(phased, 1.0, rot)


# ----------------------------------------------------------- loss budget

def test_q_total_single_channel():
    assert q_total(QBudget(q_clamp=1e5)) == pytest.approx(1e5, rel=1e-14)


def test_q_total_hand_value():
    budget = QBudget(q_clamp=1e6, tls_channels=((1.0, 2e5),), q_akhiezer=1e8)
    assert q_total(budget) == pytest.approx(1.0 / (1e-6 + 5e-6 + 1e-8), rel=1e-12)


def test_q_total_bounded_by_each_channel():
    budget = QBudget(q_clamp=3e5, tls_channels=((0.4, 1e5), (0.2, 5e4)), q_akhiezer=1e7)
    q = q_total(budget)
    assert q <= 3e5 and q <= 1e5 / 0.4 and q <= 5e4 / 0.2 and q <= 1e7


def test_q_total_monotone_in_channel_q():
    base = QBudget(q_clamp=1e6, tls_channels=((0.5, 2e5),))
    worse = QBudget(q_clamp=1e6, tls_channels=((0.5, 1e5),))
    assert q_total(worse) < q_total(base)


def test_q_total_symmetric_in_channel_order():
    a = QBudget(q_clamp=1e6, tls_channels=((0.3, 2e5), (0.2, 7e4)))
    b = QBudget(q_clamp=1e6, tls_channels=((0.2, 7e4), (0.3, 2e5)))
    assert q_total(a) == q_total(b)


def test_qbudget_validation():
    with pytest.raises(ValueError):
        QBudget(q_clamp=0.0)
    with pytest.raises(ValueError):
        QBudget(q_clamp=1e5, tls_channels=((0.7, 1e5), (0.5, 1e5)))
    with pytest.raises(ValueError):
        QBudget(q_clamp=1e5, tls_channels=((-0.1, 1e5),))


def test_kappa_from_q():
    assert kappa_from_q(4.31e9, 1e5) == 43100.0
    assert kappa_from_q(4.31e9, 2e5) == pytest.approx(43100.0 / 2, rel=1e-15)
    assert kappa_from_q(4.31e9, 1e12) == pytest.approx(0.0, abs=1e-2)
    with pytest.raises(ValueError):
        kappa_from_q(4.31e9, 0.0)


def test_cooperativity_values():
    assert cooperativity(10e6, 100e3, 43.1e3) == pytest.approx(4e14 / (1e5 * 43100.0), rel=1e-12)
    assert cooperativity(3e6, 43.1e3, 1e6) == pytest.approx(4 * 9e12 / (43100.0 * 1e6), rel=1e-12)
    assert cooperativity(0.0, 1e5, 1e5) == 0.0
    with pytest.raises(ValueError):
        cooperativity(1e6, 0.0, 1e5)


def test_mode_elimination_formula():
    rate, negligible = mode_elimination_check(1e6, 0.0, 43.1e3)
    assert rate == 1e6 and not negligible
    rate, negligible = mode_elimination_check(1e6, 100e6, 43.1e3)
    assert rate == pytest.approx(1e6 * (1e12 / (1e12 + 1e16)) ** 2, rel=1e-12)
    assert negligible
    rates = [mode_elimination_check(1e6, d, 1.0)[0] for d in (0.0, 1e6, 1e7, 1e8, 1e9)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_system_rates_validation():
    with pytest.raises(ValueError):
        SystemRates(0.0, 4e9, 4e9, 0, 0, 0, 1e6, 1e6)
    with pytest.raises(ValueError):
        SystemRates(4e9, 4e9, 4e9, -1.0, 0, 0, 1e6, 1e6)


# ------------------------------------------------------------ file formats

def seeded_profile(n, seed):
    rng = np.random.default_rng(seed)
    return FieldProfile(
        positions=rng.normal(size=(n, 3)) * 1e-6,
        volumes=np.abs(rng.normal(size=n)) * 1e-19 + 1e-20,
        e_field=rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)),
        strain_voigt=rng.normal(size=(n, 6)) * 1e-6,
        compliance_weight=np.abs(rng.normal(size=n)) * 10,
        permittivity=rng.uniform(7e-11, 9e-11, n),
        frequency_hz=F0,
        source="round-trip",
    )


PROFILE_ARRAYS = ("positions", "volumes", "e_field", "strain_voigt", "compliance_weight", "permittivity")


def assert_same_profile(a, b):
    for name in PROFILE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def test_field_profile_round_trip(tmp_path):
    prof = seeded_profile(2000, 15)
    path = tmp_path / "prof.txt"
    write_field_profile(prof, path)
    back = read_field_profile(path)
    assert_same_profile(back, prof)
    assert back.frequency_hz == prof.frequency_hz
    assert back.source == "round-trip"


def test_field_profile_writer_bytes_match_per_value_rendering(tmp_path):
    prof = seeded_profile(500, 16)
    path = tmp_path / "prof.txt"
    write_field_profile(prof, path)
    lines = [
        "profile_format = field-profile-v1",
        "source = round-trip",
        f"frequency_hz = {F0!r}",
        "voigt_convention = engineering",
        "cell_count = 500",
    ]
    for k in range(500):
        e = prof.e_field[k]
        row = [
            *prof.positions[k], prof.volumes[k],
            e[0].real, e[0].imag, e[1].real, e[1].imag, e[2].real, e[2].imag,
            *prof.strain_voigt[k].real, prof.compliance_weight[k], prof.permittivity[k],
        ]
        lines.append(" ".join(f"{x:.17e}" for x in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_field_profile_writer_rejects_complex_strain(tmp_path):
    prof = single_cell_profile(strain=(1e-8 + 1e-12j, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="real strain channels only"):
        write_field_profile(prof, tmp_path / "prof.txt")


def test_field_profile_reader_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.txt"
    prof = single_cell_profile(strain=(1e-8, 0, 0, 0, 0, 0))
    write_field_profile(prof, path)
    text = path.read_text().replace("source = ", "sauce = ")
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_field_profile(path)


def test_field_profile_reader_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    prof = single_cell_profile(strain=(1e-8, 0, 0, 0, 0, 0))
    write_field_profile(prof, path)
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_field_profile(path)


def test_field_profile_reader_rejects_cell_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    prof = single_cell_profile(strain=(1e-8, 0, 0, 0, 0, 0))
    write_field_profile(prof, path)
    text = path.read_text().replace("cell_count = 1", "cell_count = 2")
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_field_profile(path)


def two_cell_lines(tmp_path):
    """A written 2-cell profile as lines: header on lines 1-5, cells on lines 6-7."""
    path = tmp_path / "prof.txt"
    write_field_profile(seeded_profile(2, 17), path)
    return path, path.read_text().splitlines()


def _edit_duplicate_header(lines):
    return lines[:1] + lines[:1] + lines[1:]


def _edit_unknown_header(lines):
    return [lines[0], "sauce = x"] + lines[2:]


def _edit_non_numeric_cell(lines):
    last = lines[6].split()
    return lines[:6] + ["# a comment", "", " ".join(last[:-1] + ["abc"])]


def _edit_key_value_in_data(lines):
    return lines[:6] + ["extra = 1"] + lines[6:]


def _edit_missing_header(lines):
    return [lines[0]] + lines[2:]


def _edit_not_utf8(lines):
    return ["\udcff" + lines[0]] + lines[1:]    # written as the raw byte 0xff


def _set_header(key, value):
    def edit(lines):
        return [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edit_duplicate_header, "{path}:2: duplicate header 'profile_format'"),
    (_edit_unknown_header, "{path}:2: unknown field-profile header 'sauce'"),
    (_edit_non_numeric_cell, "{path}:9: non-numeric cell data"),
    (_edit_key_value_in_data, "{path}:7: expected 18 columns, got 3"),
    (_edit_missing_header, "{path}: missing field-profile headers ['source']"),
    (_set_header("cell_count", "ten"), "{path}: cell_count: 'ten' is not an integer"),
    (_set_header("frequency_hz", "4.31 GHz"), "{path}: frequency_hz: '4.31 GHz' is not a number"),
    (_edit_not_utf8, "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["duplicate-header", "unknown-header", "non-numeric-cell", "key-value-in-data", "missing-header",
        "cell-count-not-an-integer", "frequency-not-a-number", "not-utf-8"])
def test_field_profile_reader_messages(tmp_path, edit, message):
    path, lines = two_cell_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ConfigError) as err:
        read_field_profile(path)
    assert str(err.value) == message.format(path=path)


def test_field_profile_reader_cell_errors_come_before_header_errors(tmp_path):
    path, lines = two_cell_lines(tmp_path)
    lines = _edit_missing_header(lines)
    path.write_text("\n".join(lines + ["1 2 3"]) + "\n")
    with pytest.raises(ConfigError, match=r":7: expected 18 columns, got 3$"):
        read_field_profile(path)


@pytest.mark.parametrize("key, value", [("cell_count", "ten"), ("frequency_hz", "4.31 GHz")])
def test_field_profile_reader_cell_errors_come_before_header_conversions(tmp_path, key, value):
    path, lines = two_cell_lines(tmp_path)
    path.write_text("\n".join(_set_header(key, value)(lines) + ["1 2 3"]) + "\n")
    with pytest.raises(ConfigError, match=r":8: expected 18 columns, got 3$"):
        read_field_profile(path)


@pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\uff11", 1.0), ("-\uff12_5e-1", -2.5)])
def test_field_profile_reader_accepts_what_float_accepts(tmp_path, token, value):
    path, lines = two_cell_lines(tmp_path)
    cell = lines[6].split()
    cell[17] = token    # permittivity
    lenient = lines[:6] + [" ".join(cell) + "  # trailing comment"]
    path.write_text("\n".join(lenient) + "\n", encoding="utf-8")
    back = read_field_profile(path)
    assert back.permittivity[1] == value
    cell[17] = repr(value)
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(lines[:6] + [" ".join(cell)]) + "\n")
    assert_same_profile(back, read_field_profile(plain))


def test_field_profile_reader_without_cells(tmp_path):
    path, lines = two_cell_lines(tmp_path)
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ConfigError, match=r": header says 2 cells, file has 0$"):
        read_field_profile(path)
    path.write_text("\n".join(lines[:4] + ["cell_count = 0"]) + "\n")
    with pytest.raises(ValueError, match="at least one cell"):
        read_field_profile(path)


def test_piezo_reader(tmp_path):
    path = tmp_path / "piezo.txt"
    path.write_text(
        "# engineering-shear Voigt convention\n"
        "0 0 0 0 -0.32 0\n0 0 0 -0.32 0 0\n-0.58 -0.58 2.4 0 0 0\n"
    )
    d = read_piezo_tensor(path).d
    assert d[2, 2] == 2.4 and d[0, 4] == -0.32


def test_piezo_reader_requires_convention_declaration(tmp_path):
    path = tmp_path / "piezo.txt"
    path.write_text("0 0 0 0 -0.32 0\n0 0 0 -0.32 0 0\n-0.58 -0.58 2.4 0 0 0\n")
    with pytest.raises(ConfigError):
        read_piezo_tensor(path)


def test_piezo_reader_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "piezo.txt"
    path.write_bytes(b"\xff# engineering\n")
    with pytest.raises(ConfigError) as err:
        read_piezo_tensor(path)
    assert str(err.value) == f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def test_piezo_reader_rejects_wrong_shape(tmp_path):
    path = tmp_path / "piezo.txt"
    path.write_text("# engineering\n1 2 3 4 5 6\n1 2 3 4 5 6\n")
    with pytest.raises(ConfigError):
        read_piezo_tensor(path)
