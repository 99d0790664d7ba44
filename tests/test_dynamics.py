import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import full_space_reference as fsr
from phononbus import dynamics
from phononbus.device import SystemRates
from phononbus.dynamics import (
    MAX_SAMPLE_STEPS,
    SPIN_DECAY_MODELS,
    TWO_PI,
    DetuningSchedule,
    Evolution,
    Segment,
    SimOptions,
    build_rotating_hamiltonian,
    evolve,
    sample_times,
    tripartite_operators,
    write_csv,
)
from phononbus.errors import NumericalIntegrityError
from phononbus.qops import SpaceLayout, basis_ket

LAYOUT = SpaceLayout.tripartite(3)
IDX_100, IDX_010, IDX_001 = LAYOUT.index((1, 0, 0)), LAYOUT.index((0, 1, 0)), LAYOUT.index((0, 0, 1))


def make_rates(kappa_sc=0.0, kappa_p=0.0, kappa_e=0.0, g_scp=3e6, g_pe=3e6):
    return SystemRates(4.31e9, 4.31e9, 4.31e9, kappa_sc, kappa_p, kappa_e, g_scp, g_pe)


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


def test_sample_times_caps_the_step_count_before_allocating():
    assert sample_times(0.5 * MAX_SAMPLE_STEPS, 0.5).size == MAX_SAMPLE_STEPS + 1
    with pytest.raises(ValueError, match=r"^sample_dt 1e-30 s takes more than 1000000 steps over the 1e-07 s run$"):
        sample_times(1e-7, 1e-30)
    with pytest.raises(ValueError, match="more than 1000000 steps"):
        sample_times(1e-7, 5e-324)      # duration/dt overflows to inf


def test_sample_times_cover_duration_exactly():
    ts = sample_times(1.0834e-7, 1.0834e-7 / 2000)
    assert ts[0] == 0.0 and ts[-1] == 1.0834e-7
    assert np.all(np.diff(ts) > 0)
    ts2 = sample_times(1e-7, 3e-8)
    np.testing.assert_allclose(ts2, [0.0, 3e-8, 6e-8, 9e-8, 1e-7])


# ------------------------------------------------------------- Hamiltonian

def test_hamiltonian_zero_everything_is_zero_matrix():
    rates = make_rates(g_scp=0.0, g_pe=0.0)
    h = build_rotating_hamiltonian(rates, (0.0, 0.0, 0.0), LAYOUT)
    assert np.abs(h).max() == 0.0


def test_single_excitation_block_matches_hand_projection():
    g1, g2 = 10e6, 3e6
    h = build_rotating_hamiltonian(make_rates(g_scp=g1, g_pe=g2), (0.0, 0.0, 0.0), LAYOUT)
    idx = [IDX_100, IDX_010, IDX_001]
    block = h[np.ix_(idx, idx)]
    expected = TWO_PI * np.array([[0, g1, 0], [g1, 0, g2], [0, g2, 0]], dtype=complex)
    np.testing.assert_allclose(block, expected, atol=1e-6)


def test_coupling_matrix_element_read_off():
    h = build_rotating_hamiltonian(make_rates(g_scp=7e6), (0.0, 0.0, 0.0), LAYOUT)
    assert h[IDX_100, IDX_010] == pytest.approx(TWO_PI * 7e6, rel=1e-15)


def test_detuning_diagonal_in_single_excitation_block():
    d_sc, d_e, d_p = 11e6, -5e6, 30e6
    h = build_rotating_hamiltonian(make_rates(), (d_sc, d_e, d_p), LAYOUT)
    np.testing.assert_allclose(h, h.conj().T, atol=0.0)
    assert h[IDX_100, IDX_100] == pytest.approx(TWO_PI * (d_sc / 2 - d_e / 2), rel=1e-12)
    assert h[IDX_010, IDX_010] == pytest.approx(TWO_PI * (-d_sc / 2 - d_e / 2 + d_p), rel=1e-12)
    assert h[IDX_001, IDX_001] == pytest.approx(TWO_PI * (-d_sc / 2 + d_e / 2), rel=1e-12)


# ---------------------------------------------------------------- evolve

def test_stationary_when_uncoupled_and_lossless():
    schedule = DetuningSchedule.constant(1e-6, delta_sc=5e6, delta_e=-2e6)
    traj = evolve(make_rates(g_scp=0.0, g_pe=0.0), schedule, basis_ket((1, 0, 0), LAYOUT), SimOptions(sample_dt=1e-8))
    np.testing.assert_allclose(traj.f_sc, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.p_sc, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.p_p, 0.0, atol=1e-12)


@pytest.mark.parametrize("method", ["piecewise-exponential", "adaptive-stepper"])
def test_decay_oracle_exponential(method):
    kappa = 1e5
    horizon = 3.0 / (TWO_PI * kappa)
    rates = make_rates(kappa_sc=kappa, g_scp=0.0, g_pe=0.0)
    options = SimOptions(method=method, sample_dt=horizon / 200)
    traj = evolve(rates, DetuningSchedule.constant(horizon), basis_ket((1, 0, 0), LAYOUT), options)
    expected = np.exp(-TWO_PI * kappa * traj.times)
    tol = 1e-10 if method == "piecewise-exponential" else 1e-6
    np.testing.assert_allclose(traj.p_sc, expected, rtol=tol)


def test_full_transfer_at_analytic_time():
    g = 3e6
    t_star = 1.0 / (2.0 * np.sqrt(2.0) * g)
    traj = evolve(make_rates(), DetuningSchedule.constant(t_star), basis_ket((1, 0, 0), LAYOUT), SimOptions())
    assert traj.f_e[-1] >= 0.9999


def test_excitation_conservation_without_loss():
    schedule = DetuningSchedule.constant(4e-7, delta_sc=7e6, delta_e=-9e6, delta_p=13e6)
    traj = evolve(make_rates(g_scp=5e6, g_pe=2e6), schedule, basis_ket((1, 0, 0), LAYOUT), SimOptions())
    total = traj.p_sc + traj.p_p + traj.p_e
    np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_trace_and_positivity_monitoring_lossy():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    for method in ("piecewise-exponential", "adaptive-stepper"):
        traj = evolve(rates, DetuningSchedule.constant(5e-7), basis_ket((1, 0, 0), LAYOUT), SimOptions(method=method))
        assert traj.trace_error <= 1e-8
        assert traj.min_eigenvalue >= -1e-9
        assert np.all(traj.p_sc >= -1e-9) and np.all(traj.p_sc <= 1 + 1e-9)


def test_truncation_insensitivity_single_excitation():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    results = []
    for n_ph in (2, 4):
        rho0 = basis_ket((1, 0, 0), SpaceLayout.tripartite(n_ph))
        traj = evolve(rates, DetuningSchedule.constant(3e-7), rho0, SimOptions(n_ph=n_ph, sample_dt=3e-10))
        results.append(traj.f_e)
    np.testing.assert_allclose(results[0], results[1], atol=1e-6)


def test_method_equivalence_on_segment_schedule():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6, g_scp=10e6)
    schedule = DetuningSchedule(
        (Segment(0.0, 2.5e-8, delta_e=1e9), Segment(2.5e-8, 1.08e-7, delta_sc=1e9))
    )
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    rel_tol = 1e-8
    f_pw = evolve(rates, schedule, rho0, SimOptions(rel_tol=rel_tol)).f_e
    f_ad = evolve(rates, schedule, rho0, SimOptions(method="adaptive-stepper", rel_tol=rel_tol)).f_e
    assert np.abs(f_pw - f_ad).max() <= 10 * rel_tol


def test_spin_dephasing_variant_keeps_population_kills_coherence():
    kappa_e = 1e6
    rates = make_rates(kappa_e=kappa_e, g_scp=0.0, g_pe=0.0)
    horizon = 2.0 / (TWO_PI * kappa_e)
    psi = np.zeros(LAYOUT.dim, dtype=complex)
    psi[IDX_100] = psi[IDX_001] = 1 / np.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    options = SimOptions(sample_dt=horizon / 100, spin_decay_model="dephasing")
    traj = evolve(rates, DetuningSchedule.constant(horizon), rho0, options)
    np.testing.assert_allclose(traj.p_e, 0.5, atol=1e-10)      # population frozen
    evolution = Evolution(rates, DetuningSchedule.constant(horizon), rho0, options)
    i100, i001 = (np.flatnonzero(evolution.block == idx)[0] for idx in (IDX_100, IDX_001))
    coh = abs(evolution.block_state(horizon)[i100, i001])
    assert coh == pytest.approx(0.5 * np.exp(-TWO_PI * kappa_e * horizon), rel=1e-9)


def test_energy_decay_variant_depletes_population():
    kappa_e = 1e6
    rates = make_rates(kappa_e=kappa_e, g_scp=0.0, g_pe=0.0)
    horizon = 1.0 / (TWO_PI * kappa_e)
    options = SimOptions(sample_dt=horizon / 50)
    traj = evolve(rates, DetuningSchedule.constant(horizon), basis_ket((0, 0, 1), LAYOUT), options)
    np.testing.assert_allclose(traj.p_e, np.exp(-TWO_PI * kappa_e * traj.times), rtol=1e-9)


# F_e at three sample indices of the dephasing run below, pinned: choosing the
# dissipator through SimOptions must give the numbers the earlier separate
# model object (rates, layout, schedule, spin decay model) gave.
DEPHASING_F_E = {250: 0.04126405643339089, 1000: 0.24920615444338834, 2000: 0.33052338721434515}


def test_spin_decay_model_comes_from_sim_options():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6, g_scp=3e6, g_pe=3e6)
    schedule = DetuningSchedule.constant(1e-6, delta_p=30e6)
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    energy = evolve(rates, schedule, rho0, SimOptions())
    dephasing = evolve(rates, schedule, rho0, SimOptions(spin_decay_model="dephasing"))
    assert np.abs(dephasing.f_e - energy.f_e).max() > 1e-2
    for k, want in DEPHASING_F_E.items():
        assert dephasing.f_e[k] == pytest.approx(want, rel=1e-12, abs=1e-15)
    ref = fsr.states(rho0, 3, (1e5, 43.1e3, 1e6), (3e6, 3e6), "dephasing", [(1e-6, 0.0, 0.0, 30e6)], 1e-6 / 2000)
    j = fsr.index((0, 0, 1), 3)
    assert np.abs(dephasing.f_e - [r[j, j].real for r in ref]).max() <= 1e-10


# ---------------------------------------------------- one segment's end state

def test_pure_hamiltonian_segment_matches_unitary_route():
    # oracle: U rho U+ with U = expm(-i H t), H from the full-space reference
    rates = make_rates(g_scp=8e6, g_pe=3e6)
    schedule = DetuningSchedule.constant(1e-7, delta_sc=5e6, delta_p=12e6)
    seg = schedule.segments[0]
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    evolution = Evolution(rates, schedule, rho0, SimOptions())
    got = evolution.block_state(seg.duration)
    h = fsr.hamiltonian(fsr.mode_operators(3), (8e6, 3e6), (seg.delta_sc, seg.delta_e, seg.delta_p))
    u = expm(-1j * h * seg.duration)
    want = u @ rho0 @ u.conj().T
    inside = np.ix_(evolution.block, evolution.block)
    assert np.abs(got - want[inside]).max() <= 1e-10
    want[inside] = 0.0
    assert np.abs(want).max() <= 1e-10      # nothing outside the block


def test_decay_only_segment_matches_closed_form():
    kappa = 2e5
    rates = make_rates(kappa_sc=kappa, g_scp=0.0, g_pe=0.0)
    evolution = Evolution(rates, DetuningSchedule.constant(1e-6), basis_ket((1, 0, 0), LAYOUT), SimOptions())
    assert evolution.population((1, 0, 0), 7e-7) == pytest.approx(np.exp(-TWO_PI * kappa * 7e-7), rel=1e-12)


def test_propagate_segment_methods_agree():
    rates = make_rates(kappa_sc=1e5, kappa_p=43.1e3, kappa_e=1e6)
    schedule = DetuningSchedule.constant(1e-7, delta_p=30e6)
    rho0 = basis_ket((1, 0, 0), LAYOUT)
    rel_tol = 1e-8
    end = schedule.duration
    a = Evolution(rates, schedule, rho0, SimOptions(rel_tol=rel_tol)).block_state(end)
    b = Evolution(rates, schedule, rho0, SimOptions(method="adaptive-stepper", rel_tol=rel_tol)).block_state(end)
    assert np.abs(a - b).max() <= rel_tol


# ------------------------------------------------------------- trajectory

def test_trajectory_csv_format(tmp_path):
    schedule = DetuningSchedule.constant(1e-8)
    traj = evolve(make_rates(kappa_sc=1e5), schedule, basis_ket((1, 0, 0), LAYOUT), SimOptions(sample_dt=2e-9))
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
    rho0 = basis_ket((1, 0, 0), LAYOUT)  # n_ph = 3 state; SimOptions alone sets n_ph = 4
    with pytest.raises(ValueError, match=r"^density matrix shape \(12, 12\) does not match layout \(2, 4, 2\)$"):
        evolve(make_rates(), DetuningSchedule.constant(1e-8), rho0, SimOptions(n_ph=4))


def test_evolution_validates_the_start_state():
    rates, schedule = make_rates(), DetuningSchedule.constant(1e-8)
    skew = basis_ket((1, 0, 0), LAYOUT)
    skew[IDX_100, IDX_001] = 0.5
    with pytest.raises(NumericalIntegrityError, match=r"^density matrix is not Hermitian \(relative defect 6\.325e-01\)$"):
        Evolution(rates, schedule, skew, SimOptions())
    imaginary = np.zeros((LAYOUT.dim, LAYOUT.dim), dtype=complex)   # unit trace, but an imaginary diagonal
    imaginary[IDX_100, IDX_100], imaginary[IDX_001, IDX_001] = 0.5 + 1e-3j, 0.5 - 1e-3j
    with pytest.raises(NumericalIntegrityError, match=r"^density matrix is not Hermitian"):
        evolve(rates, schedule, imaginary, SimOptions())
    with pytest.raises(ValueError, match=r"^density matrix trace \(2\+0j\) is not 1$"):
        Evolution(rates, schedule, 2 * basis_ket((1, 0, 0), LAYOUT), SimOptions())


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(method="verlet")
    with pytest.raises(ValueError):
        SimOptions(rel_tol=1e-3)
    with pytest.raises(ValueError):
        SimOptions(n_ph=1)
    with pytest.raises(ValueError):
        SimOptions(n_ph=9)


def test_tripartite_operator_shapes():
    ops = tripartite_operators(LAYOUT)
    assert ops["n_p"].shape == (12, 12)
    assert np.abs(ops["a"] @ ops["a"].conj().T - ops["a"].conj().T @ ops["a"]).max() > 0


# ------------------------------------------- block kernel vs full space

BLOCK_DT = 2e-9


def block_start(name, layout):
    if name == "100+001":
        psi = np.zeros(layout.dim, dtype=complex)
        psi[layout.index((1, 0, 0))] = psi[layout.index((0, 0, 1))] = 1 / np.sqrt(2)
        return np.outer(psi, psi.conj())
    return basis_ket(tuple(int(c) for c in name), layout)


def assert_block_kernel_matches_full_liouvillian(rates, schedule, rho0, options):
    """evolve's samples and the block's end state against full-space expm steps, within 1e-10.

    The reference is tests/full_space_reference.py, which shares no code with the kernel.
    """
    n_ph = options.n_ph
    traj = evolve(rates, schedule, rho0, options)
    ref = fsr.states(
        rho0, n_ph, (rates.kappa_sc, rates.kappa_p, rates.kappa_e), (rates.g_scp, rates.g_pe),
        options.spin_decay_model,
        [(seg.duration, seg.delta_sc, seg.delta_e, seg.delta_p) for seg in schedule.segments],
        BLOCK_DT,
    )
    assert traj.times.size == len(ref)

    ops = fsr.mode_operators(n_ph)
    for name, got in (("sm_sc", traj.p_sc), ("a", traj.p_p), ("sm_e", traj.p_e)):
        number = ops[name].conj().T @ ops[name]
        want = [np.trace(number @ r).real for r in ref]
        assert np.abs(got - want).max() <= 1e-10, name
    for labels, got in (((1, 0, 0), traj.f_sc), ((0, 1, 0), traj.f_p), ((0, 0, 1), traj.f_e)):
        j = fsr.index(labels, n_ph)
        assert np.abs(got - [r[j, j].real for r in ref]).max() <= 1e-10, labels
    assert np.abs(traj.trace_errs - [abs(np.trace(r) - 1) for r in ref]).max() <= 1e-10
    assert np.abs(traj.min_eigenvalues - [np.linalg.eigvalsh(r)[0] for r in ref]).max() <= 1e-10

    evolution = Evolution(rates, schedule, rho0, options)
    segments = schedule.segments
    for seg in segments:
        assert evolution.population((1, 1, 1), seg.t_end) == 0.0   # outside every start's block
    end = np.zeros_like(ref[-1])
    end[np.ix_(evolution.block, evolution.block)] = evolution.block_state(segments[-1].t_end)
    assert np.abs(end - ref[-1]).max() <= 1e-10


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
    options = SimOptions(n_ph=n_ph, sample_dt=BLOCK_DT, spin_decay_model=spin_decay)
    assert_block_kernel_matches_full_liouvillian(rates, DetuningSchedule(segments), block_start(start, layout), options)


KAPPA = st.floats(0.0, 2e6)
COUPLING = st.floats(0.0, 1e7)
DETUNING = st.floats(-3e7, 3e7)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    n_ph=st.integers(2, 4),
    spin_decay=st.sampled_from(SPIN_DECAY_MODELS),
    start=st.sampled_from(["100", "100+001", "110"]),
    kappas=st.tuples(KAPPA, KAPPA, KAPPA),
    couplings=st.tuples(COUPLING, COUPLING),
    spans=st.lists(st.tuples(st.integers(1, 25), DETUNING, DETUNING, DETUNING), min_size=1, max_size=3),
)
# a weakly damped two-excitation block: nearly degenerate eigenvalues, cond(V) ~ 3e7
@example(n_ph=3, spin_decay="energy", start="110", kappas=(1.0, 0.0, 0.0), couplings=(857034.0, 0.0),
         spans=[(1, 0.0, 0.0, 0.0)])
def test_block_kernel_matches_full_liouvillian_on_random_runs(n_ph, spin_decay, start, kappas, couplings, spans):
    layout = SpaceLayout.tripartite(n_ph)
    rates = make_rates(*kappas, *couplings)
    segments, steps = [], 0      # spans: (length in BLOCK_DT steps, delta_sc, delta_e, delta_p)
    for n, d_sc, d_e, d_p in spans:
        segments.append(Segment(steps * BLOCK_DT, (steps + n) * BLOCK_DT, d_sc, d_e, d_p))
        steps += n
    options = SimOptions(n_ph=n_ph, sample_dt=BLOCK_DT, spin_decay_model=spin_decay)
    schedule = DetuningSchedule(tuple(segments))
    assert_block_kernel_matches_full_liouvillian(rates, schedule, block_start(start, layout), options)


def test_exceptional_point_takes_the_expm_fallback(monkeypatch):
    # g_scp = |kappa_sc - kappa_p|/4 with g_pe = 0: the transmon-phonon pair sits
    # at its exceptional point and the block Liouvillian is defective
    kappa_sc, kappa_p = 1e6, 2e5
    g = abs(kappa_sc - kappa_p) / 4
    rates = make_rates(kappa_sc=kappa_sc, kappa_p=kappa_p, g_scp=g, g_pe=0.0)
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    traj = evolve(rates, DetuningSchedule.constant(2e-6), basis_ket((1, 0, 0), LAYOUT), SimOptions())
    assert calls, "the spectral form was used at the exceptional point"
    h_eff = TWO_PI * np.array([[0.0, g], [g, 0.0]]) - 1j * np.pi * np.diag([kappa_sc, kappa_p])
    want = [abs(expm(-1j * h_eff * t)[0, 0]) ** 2 for t in traj.times]
    assert np.abs(traj.p_sc - want).max() <= 1e-12
