import numpy as np
import pytest
from scipy.linalg import expm

from phononbus import dynamics
from phononbus.device import SystemRates
from phononbus.dynamics import (
    TWO_PI,
    DetuningSchedule,
    LindbladModel,
    Segment,
    SimOptions,
    build_rotating_hamiltonian,
    evolve,
    jump_operators,
    liouvillian,
    propagate_segment,
    sample_times,
    tripartite_operators,
    write_csv,
)
from phononbus.qops import DensityMatrix, SpaceLayout, basis_ket

LAYOUT = SpaceLayout.tripartite(3)
IDX_100, IDX_010, IDX_001 = LAYOUT.index((1, 0, 0)), LAYOUT.index((0, 1, 0)), LAYOUT.index((0, 0, 1))


def make_rates(kappa_sc=0.0, kappa_p=0.0, kappa_e=0.0, g_scp=3e6, g_pe=3e6):
    return SystemRates(4.31e9, 4.31e9, 4.31e9, kappa_sc, kappa_p, kappa_e, g_scp, g_pe)


def make_model(rates, duration, d_sc=0.0, d_e=0.0, d_p=0.0, spin_decay="energy", n_ph=3):
    schedule = DetuningSchedule.constant(duration, d_sc, d_e, d_p)
    return LindbladModel(rates, SpaceLayout.tripartite(n_ph), schedule, spin_decay)


# -------------------------------------------------------------- schedules

def test_schedule_validation():
    with pytest.raises(ValueError):
        DetuningSchedule(())
    with pytest.raises(ValueError):
        DetuningSchedule((Segment(1e-9, 2e-9),))  # does not start at zero
    with pytest.raises(ValueError):
        DetuningSchedule((Segment(0.0, 1e-9), Segment(2e-9, 3e-9)))  # gap
    with pytest.raises(ValueError):
        DetuningSchedule((Segment(0.0, 0.0),))  # empty span
    sched = DetuningSchedule((Segment(0.0, 1e-9), Segment(1e-9, 5e-9)))
    assert sched.duration == 5e-9


def test_sample_times_cover_duration_exactly():
    ts = sample_times(1.0834e-7, 1.0834e-7 / 2000)
    assert ts[0] == 0.0 and ts[-1] == 1.0834e-7
    assert np.all(np.diff(ts) > 0)
    ts2 = sample_times(1e-7, 3e-8)
    np.testing.assert_allclose(ts2, [0.0, 3e-8, 6e-8, 9e-8, 1e-7])


# ------------------------------------------------------------- Hamiltonian

def test_hamiltonian_zero_everything_is_zero_matrix():
    rates = make_rates(g_scp=0.0, g_pe=0.0)
    h = build_rotating_hamiltonian(rates, (0.0, 0.0, 0.0), LAYOUT).matrix
    assert np.abs(h).max() == 0.0


def test_single_excitation_block_matches_hand_projection():
    g1, g2 = 10e6, 3e6
    h = build_rotating_hamiltonian(make_rates(g_scp=g1, g_pe=g2), (0.0, 0.0, 0.0), LAYOUT).matrix
    idx = [IDX_100, IDX_010, IDX_001]
    block = h[np.ix_(idx, idx)]
    expected = TWO_PI * np.array([[0, g1, 0], [g1, 0, g2], [0, g2, 0]], dtype=complex)
    np.testing.assert_allclose(block, expected, atol=1e-6)


def test_coupling_matrix_element_read_off():
    h = build_rotating_hamiltonian(make_rates(g_scp=7e6), (0.0, 0.0, 0.0), LAYOUT).matrix
    assert h[IDX_100, IDX_010] == pytest.approx(TWO_PI * 7e6, rel=1e-15)


def test_detuning_diagonal_in_single_excitation_block():
    d_sc, d_e, d_p = 11e6, -5e6, 30e6
    h = build_rotating_hamiltonian(make_rates(), (d_sc, d_e, d_p), LAYOUT).matrix
    np.testing.assert_allclose(h, h.conj().T, atol=0.0)
    assert h[IDX_100, IDX_100] == pytest.approx(TWO_PI * (d_sc / 2 - d_e / 2), rel=1e-12)
    assert h[IDX_010, IDX_010] == pytest.approx(TWO_PI * (-d_sc / 2 - d_e / 2 + d_p), rel=1e-12)
    assert h[IDX_001, IDX_001] == pytest.approx(TWO_PI * (-d_sc / 2 + d_e / 2), rel=1e-12)


# ---------------------------------------------------------------- evolve

def test_stationary_when_uncoupled_and_lossless():
    model = make_model(make_rates(g_scp=0.0, g_pe=0.0), 1e-6, d_sc=5e6, d_e=-2e6)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions(sample_dt=1e-8))
    np.testing.assert_allclose(traj.f_sc, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.p_sc, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.p_p, 0.0, atol=1e-12)


@pytest.mark.parametrize("method", ["piecewise-exponential", "adaptive-stepper"])
def test_decay_oracle_exponential(method):
    kappa = 1e5
    horizon = 3.0 / (TWO_PI * kappa)
    model = make_model(make_rates(kappa_sc=kappa, g_scp=0.0, g_pe=0.0), horizon)
    options = SimOptions(method=method, sample_dt=horizon / 200)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), options)
    expected = np.exp(-TWO_PI * kappa * traj.times)
    tol = 1e-10 if method == "piecewise-exponential" else 1e-6
    np.testing.assert_allclose(traj.p_sc, expected, rtol=tol)


def test_full_transfer_at_analytic_time():
    g = 3e6
    t_star = 1.0 / (2.0 * np.sqrt(2.0) * g)
    model = make_model(make_rates(), t_star)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions())
    assert traj.f_e[-1] >= 0.9999


def test_excitation_conservation_without_loss():
    model = make_model(make_rates(g_scp=5e6, g_pe=2e6), 4e-7, d_sc=7e6, d_e=-9e6, d_p=13e6)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions())
    total = traj.p_sc + traj.p_p + traj.p_e
    np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_trace_and_positivity_monitoring_lossy():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    model = make_model(rates, 5e-7)
    for method in ("piecewise-exponential", "adaptive-stepper"):
        traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions(method=method))
        assert traj.trace_error <= 1e-8
        assert traj.min_eigenvalue >= -1e-9
        assert np.all(traj.p_sc >= -1e-9) and np.all(traj.p_sc <= 1 + 1e-9)


def test_truncation_insensitivity_single_excitation():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    results = []
    for n_ph in (2, 4):
        model = make_model(rates, 3e-7, n_ph=n_ph)
        rho0 = basis_ket((1, 0, 0), SpaceLayout.tripartite(n_ph))
        traj = evolve(model, rho0, SimOptions(n_ph=n_ph, sample_dt=3e-10))
        results.append(traj.f_e)
    np.testing.assert_allclose(results[0], results[1], atol=1e-6)


def test_method_equivalence_on_segment_schedule():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6, g_scp=10e6)
    schedule = DetuningSchedule(
        (Segment(0.0, 2.5e-8, delta_e=1e9), Segment(2.5e-8, 1.08e-7, delta_sc=1e9))
    )
    model = LindbladModel(rates, LAYOUT, schedule)
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    rel_tol = 1e-8
    f_pw = evolve(model, rho0, SimOptions(rel_tol=rel_tol)).f_e
    f_ad = evolve(model, rho0, SimOptions(method="adaptive-stepper", rel_tol=rel_tol)).f_e
    assert np.abs(f_pw - f_ad).max() <= 10 * rel_tol


def test_spin_dephasing_variant_keeps_population_kills_coherence():
    kappa_e = 1e6
    rates = make_rates(kappa_e=kappa_e, g_scp=0.0, g_pe=0.0)
    horizon = 2.0 / (TWO_PI * kappa_e)
    model = make_model(rates, horizon, spin_decay="dephasing")
    psi = np.zeros(LAYOUT.dim, dtype=complex)
    psi[IDX_100] = psi[IDX_001] = 1 / np.sqrt(2)
    rho0 = DensityMatrix(np.outer(psi, psi.conj()), LAYOUT)
    traj = evolve(model, rho0, SimOptions(sample_dt=horizon / 100))
    np.testing.assert_allclose(traj.p_e, 0.5, atol=1e-10)      # population frozen
    seg = Segment(0.0, horizon)
    rho_end = propagate_segment(model, rho0, seg, SimOptions())
    coh = abs(rho_end.matrix[IDX_100, IDX_001])
    assert coh == pytest.approx(0.5 * np.exp(-TWO_PI * kappa_e * horizon), rel=1e-9)


def test_energy_decay_variant_depletes_population():
    kappa_e = 1e6
    rates = make_rates(kappa_e=kappa_e, g_scp=0.0, g_pe=0.0)
    horizon = 1.0 / (TWO_PI * kappa_e)
    model = make_model(rates, horizon)
    traj = evolve(model, basis_ket((0, 0, 1), LAYOUT), SimOptions(sample_dt=horizon / 50))
    np.testing.assert_allclose(traj.p_e, np.exp(-TWO_PI * kappa_e * traj.times), rtol=1e-9)


# ------------------------------------------------------- propagate_segment

def test_zero_duration_segment_is_identity():
    model = make_model(make_rates(kappa_sc=1e5), 1e-7)
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    out = propagate_segment(model, rho0, Segment(0.0, 0.0), SimOptions())
    np.testing.assert_array_equal(out.matrix, rho0.matrix)


def test_pure_hamiltonian_segment_matches_unitary_route():
    # oracle: U rho U+ with U = expm(-i H t), independent of the superoperator path
    rates = make_rates(g_scp=8e6, g_pe=3e6)
    model = make_model(rates, 1e-7, d_sc=5e6, d_p=12e6)
    seg = model.schedule.segments[0]
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    got = propagate_segment(model, rho0, seg, SimOptions()).matrix
    h = build_rotating_hamiltonian(rates, (seg.delta_sc, seg.delta_e, seg.delta_p), LAYOUT).matrix
    u = expm(-1j * h * seg.duration)
    want = u @ rho0.matrix @ u.conj().T
    assert np.abs(got - want).max() <= 1e-10


def test_decay_only_segment_matches_closed_form():
    kappa = 2e5
    model = make_model(make_rates(kappa_sc=kappa, g_scp=0.0, g_pe=0.0), 1e-6)
    seg = Segment(0.0, 7e-7)
    out = propagate_segment(model, basis_ket((1, 0, 0), LAYOUT), seg, SimOptions())
    assert out.matrix[IDX_100, IDX_100].real == pytest.approx(
        np.exp(-TWO_PI * kappa * seg.duration), rel=1e-12
    )


def test_propagate_segment_methods_agree():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    model = make_model(rates, 1e-7, d_p=30e6)
    seg = model.schedule.segments[0]
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    rel_tol = 1e-8
    a = propagate_segment(model, rho0, seg, SimOptions(rel_tol=rel_tol)).matrix
    b = propagate_segment(model, rho0, seg, SimOptions(method="adaptive-stepper", rel_tol=rel_tol)).matrix
    assert np.abs(a - b).max() <= rel_tol


# ------------------------------------------------------------- trajectory

def test_trajectory_csv_format(tmp_path):
    model = make_model(make_rates(kappa_sc=1e5), 1e-8)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions(sample_dt=2e-9))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,P_sc,P_p,P_e,F_sc,F_p,F_e,trace_err"
    assert len(lines) == 1 + traj.times.size
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[1]) == traj.p_sc[0]


def test_csv_writer_formats_floats_and_keeps_str_for_the_rest(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c,d", [(0.1, np.float64(-2.5e-300), 3, "x"), (float("nan"), -0.0, np.int64(7), None)])
    assert path.read_bytes() == (
        b"a,b,c,d\n"
        b"1.0000000000000001e-01,-2.5000000000000000e-300,3,x\n"
        b"nan,-0.0000000000000000e+00,7,None\n"
    )


def test_evolve_rejects_layout_mismatch():
    model = make_model(make_rates(), 1e-8, n_ph=4)
    rho0 = basis_ket((1, 0, 0), LAYOUT)  # n_ph = 3 state
    with pytest.raises(ValueError):
        evolve(model, rho0, SimOptions(n_ph=4))


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(method="verlet")
    with pytest.raises(ValueError):
        SimOptions(rel_tol=1e-3)
    with pytest.raises(ValueError):
        SimOptions(n_ph=1)
    with pytest.raises(ValueError):
        SimOptions(n_ph=9)


def test_custom_fidelity_targets():
    model = make_model(make_rates(), 1e-8)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions(sample_dt=2e-9), targets=[(0, 2, 0)])
    assert "020" in traj.fidelities
    assert traj.fidelities["020"].max() <= 1e-12  # two-phonon state never populated


def test_tripartite_operator_shapes():
    ops = tripartite_operators(LAYOUT)
    assert ops["n_sc"].shape == (12, 12)
    assert np.abs(ops["a"] @ ops["a"].conj().T - ops["a"].conj().T @ ops["a"]).max() > 0


# ------------------------------------------- block kernel vs full space

BLOCK_DT = 2e-9


def full_space_reference(model, rho0):
    """Full-space states every BLOCK_DT from expm of the full Liouvillian; segment ends lie on samples."""
    d = model.layout.dim
    jumps = jump_operators(model)
    v = rho0.matrix.reshape(-1, order="F")
    states = [v]
    for seg in model.schedule.segments:
        h = build_rotating_hamiltonian(model.rates, (seg.delta_sc, seg.delta_e, seg.delta_p), model.layout)
        step = expm(liouvillian(h.matrix, jumps) * BLOCK_DT)
        for _ in range(round(seg.duration / BLOCK_DT)):
            v = step @ v
            states.append(v)
    return [0.5 * (r + r.conj().T) for r in (v.reshape(d, d, order="F") for v in states)]


def block_start(name, layout):
    if name == "100+001":
        psi = np.zeros(layout.dim, dtype=complex)
        psi[layout.index((1, 0, 0))] = psi[layout.index((0, 0, 1))] = 1 / np.sqrt(2)
        return DensityMatrix(np.outer(psi, psi.conj()), layout)
    return basis_ket(tuple(int(c) for c in name), layout)


@pytest.mark.parametrize("start", ["100", "100+001", "110"])
@pytest.mark.parametrize("spin_decay", ["energy", "dephasing"])
@pytest.mark.parametrize("n_ph", [2, 3, 4])
def test_block_kernel_matches_full_liouvillian(n_ph, spin_decay, start):
    layout = SpaceLayout.tripartite(n_ph)
    rates = make_rates(kappa_sc=1e6, kappa_p=5e5, kappa_e=2e6, g_scp=8e6, g_pe=5e6)
    segments = (
        Segment(0.0, 4e-8, delta_e=20e6, delta_p=5e6),
        Segment(4e-8, 1e-7, delta_sc=-15e6, delta_p=-8e6),
    )
    model = LindbladModel(rates, layout, DetuningSchedule(segments), spin_decay)
    rho0 = block_start(start, layout)
    options = SimOptions(n_ph=n_ph, sample_dt=BLOCK_DT)
    traj = evolve(model, rho0, options, targets=[(1, 1, 1)])
    ref = full_space_reference(model, rho0)
    assert traj.times.size == len(ref)

    ops = tripartite_operators(layout)
    for name, got in (("n_sc", traj.p_sc), ("n_p", traj.p_p), ("n_e", traj.p_e)):
        want = [np.trace(ops[name] @ r).real for r in ref]
        assert np.abs(got - want).max() <= 1e-10, name
    for key, got in traj.fidelities.items():
        idx = layout.index(tuple(int(c) for c in key))
        assert np.abs(got - [r[idx, idx].real for r in ref]).max() <= 1e-10, key
    np.testing.assert_array_equal(traj.fidelities["111"], 0.0)   # outside every start's block
    assert np.abs(traj.trace_errs - [abs(np.trace(r) - 1) for r in ref]).max() <= 1e-10
    assert np.abs(traj.min_eigenvalues - [np.linalg.eigvalsh(r)[0] for r in ref]).max() <= 1e-10

    rho = rho0
    for seg in segments:
        rho = propagate_segment(model, rho, seg, options)
    assert np.abs(rho.matrix - ref[-1]).max() <= 1e-10


def test_exceptional_point_takes_the_expm_fallback(monkeypatch):
    # g_scp = |kappa_sc - kappa_p|/4 with g_pe = 0: the transmon-phonon pair sits
    # at its exceptional point and the block Liouvillian is defective
    kappa_sc, kappa_p = 1e6, 2e5
    g = abs(kappa_sc - kappa_p) / 4
    model = make_model(make_rates(kappa_sc=kappa_sc, kappa_p=kappa_p, g_scp=g, g_pe=0.0), 2e-6)
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    traj = evolve(model, basis_ket((1, 0, 0), LAYOUT), SimOptions())
    assert calls, "the spectral form was used at the exceptional point"
    h_eff = TWO_PI * np.array([[0.0, g], [g, 0.0]]) - 1j * np.pi * np.diag([kappa_sc, kappa_p])
    want = [abs(expm(-1j * h_eff * t)[0, 0]) ** 2 for t in traj.times]
    assert np.abs(traj.p_sc - want).max() <= 1e-12
