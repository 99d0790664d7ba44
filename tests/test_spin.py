import numpy as np
import pytest

from phononbus.errors import DegenerateConfigurationError, UnachievableSplittingError
from phononbus.spin import (
    SpinEigenSystem,
    SpinParams,
    analytic_eigensystem,
    field_for_splitting,
    spin_phonon_coupling,
    strain_hamiltonian,
)

from spin_reference import build_spin_hamiltonian

SNV_LIKE = dict(lambda_g=425e9, gamma_s=56e9, gamma_l=14e9, q=0.0)


def params(b_x=0.1, b_z=0.05, **over):
    kw = {**SNV_LIKE, **over}
    return SpinParams(b_x=b_x, b_z=b_z, **kw)


def random_params(rng):
    return SpinParams(
        lambda_g=rng.uniform(2e10, 9e11),
        gamma_s=rng.uniform(1e10, 6e10),
        gamma_l=14e9,
        q=rng.uniform(0.0, 0.3),
        b_x=rng.choice([0.0, rng.uniform(1e-4, 0.3)]),
        b_z=rng.uniform(-0.3, 0.3),
    )


def test_pure_spin_orbit_limit_structure():
    p = params(b_x=0.0, b_z=0.0)
    h = build_spin_hamiltonian(p)
    lam = p.lambda_g
    expected = np.array(
        [
            [0, 0, -1j * lam, 0],
            [0, 0, 0, 1j * lam],
            [1j * lam, 0, 0, 0],
            [0, -1j * lam, 0, 0],
        ]
    )
    np.testing.assert_allclose(h, expected, atol=0.0)


def test_hamiltonian_is_hermitian_and_traceless():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = build_spin_hamiltonian(random_params(rng))
        np.testing.assert_array_equal(h, h.conj().T)
        # diagonal is (+gz, -gz, +gz, -gz): eigenvalue sum equals its sum, zero
        assert abs(np.trace(h)) <= 1e-9 * np.abs(h).max()


def test_eigenvalues_at_bx_zero_are_plus_minus_lambda_branches():
    p = params(b_x=0.0, b_z=0.08)
    nus = np.sort(np.linalg.eigvalsh(build_spin_hamiltonian(p)))
    lam_m, lam_p = p.lambda_minus, p.lambda_plus
    expected = np.sort([-lam_p, -lam_m, lam_m, lam_p])
    np.testing.assert_allclose(nus, expected, rtol=1e-12)


def test_generic_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_params(rng)
        h = build_spin_hamiltonian(p)
        numeric = np.sort(np.linalg.eigvalsh(h))
        gx = p.gamma_s * p.b_x
        analytic = np.sort(
            [
                -np.hypot(gx, p.lambda_minus),
                np.hypot(gx, p.lambda_minus),
                -np.hypot(gx, p.lambda_plus),
                np.hypot(gx, p.lambda_plus),
            ]
        )
        np.testing.assert_allclose(numeric, analytic, rtol=1e-10)


def test_analytic_eigensystem_solves_hamiltonian():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_params(rng)
        h = build_spin_hamiltonian(p)
        eig = analytic_eigensystem(p)
        scale = np.abs(eig.eigenvalues).max()
        for k in range(1, 5):
            v = eig.eigenvector(k)
            nu = eig.eigenvalues[k - 1]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(h @ v - nu * v) <= 1e-10 * scale


def test_eigenvectors_are_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = analytic_eigensystem(random_params(rng)).modes
        np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


def test_qubit_levels_are_the_two_lowest_and_ordered():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = random_params(rng)
        eig = analytic_eigensystem(p)
        numeric = np.sort(np.linalg.eigvalsh(build_spin_hamiltonian(p)))
        assert eig.eigenvalues[0] == pytest.approx(numeric[0], rel=1e-10)
        assert eig.eigenvalues[2] == pytest.approx(numeric[1], rel=1e-10)
        assert eig.eigenvalues[0] <= eig.eigenvalues[2]
        assert eig.splitting >= 0.0


def test_bx_to_zero_limit_gives_pure_spin_orbital_doublets():
    p = params(b_x=0.0, b_z=0.1)
    eig = analytic_eigensystem(p)
    psi1, psi3 = eig.eigenvector(1), eig.eigenvector(3)
    # ground state pure spin-down (components ex_dn, ey_dn), psi3 pure spin-up
    assert np.abs(psi1[[0, 2]]).max() < 1e-14
    assert np.abs(psi3[[1, 3]]).max() < 1e-14
    # orbital parts are e+/- combinations: equal weights, +/- i relative phase
    for psi, idx in ((psi1, [1, 3]), (psi3, [0, 2])):
        c = psi[idx]
        assert abs(c[0]) == pytest.approx(abs(c[1]), rel=1e-12)
        assert abs((c[1] / c[0]).real) < 1e-12
        assert abs(c[1] / c[0]) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_configuration_rejected():
    # lambda_minus = 0 with b_x = 0: gamma_s*b_z exactly cancels lambda
    p = SpinParams(lambda_g=5.6e9, gamma_s=56e9, gamma_l=0.0, q=0.0, b_x=0.0, b_z=0.1)
    assert p.lambda_minus == 0.0
    with pytest.raises(DegenerateConfigurationError):
        analytic_eigensystem(p)


def test_strain_hamiltonian_matrix():
    h = strain_hamiltonian(1.0, 0.0)
    np.testing.assert_array_equal(h, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    np.testing.assert_array_equal(strain_hamiltonian(0.0, 0.0), np.zeros((4, 4)))
    hb = strain_hamiltonian(0.7, -0.3)
    np.testing.assert_allclose(hb, hb.conj().T, atol=0.0)
    assert hb[0, 2] == -0.3


def test_spin_phonon_coupling_zero_strain():
    eig = analytic_eigensystem(params())
    assert spin_phonon_coupling(eig, strain_hamiltonian(0.0, 0.0)) == 0.0


def test_spin_phonon_coupling_rejects_a_matrix_that_is_not_4x4():
    eig = analytic_eigensystem(params())
    with pytest.raises(ValueError, match=r"^operator matrix must be square, got shape \(4, 3\)$"):
        spin_phonon_coupling(eig, np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"^matrix dimension 3 does not match layout dimension 4$"):
        spin_phonon_coupling(eig, np.eye(3))


def test_spin_phonon_coupling_vanishes_without_transverse_field():
    eig = analytic_eigensystem(params(b_x=0.0, b_z=0.1))
    g = spin_phonon_coupling(eig, strain_hamiltonian(2.7e6, 0.0))
    assert g < 1e-20  # opposite spin sectors, spin-scalar perturbation


def test_spin_phonon_coupling_phase_invariance():
    eig = analytic_eigensystem(params())
    h = strain_hamiltonian(1e6, 0.0)
    g0 = spin_phonon_coupling(eig, h)
    rng = np.random.default_rng(7)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    rotated = SpinEigenSystem(eig.eigenvalues.copy(), eig.modes * phases[None, :])
    assert spin_phonon_coupling(rotated, h) == pytest.approx(g0, rel=1e-12)


def test_spin_phonon_coupling_grows_with_field_at_fixed_splitting():
    p0 = params(b_x=0.0, b_z=0.0)
    h = strain_hamiltonian(2.7e6, 0.0)
    gs = []
    for b_max in (0.05, 0.1, 0.2):
        b_x, b_z = field_for_splitting(4.31e9, b_max, p0)
        eig = analytic_eigensystem(params(b_x=b_x, b_z=b_z))
        gs.append(spin_phonon_coupling(eig, h))
    assert gs[0] < gs[1] < gs[2]


def test_field_for_splitting_self_consistency_and_norm():
    p0 = params(b_x=0.0, b_z=0.0)
    for b_max in (0.06, 0.11, 0.2):
        b_x, b_z = field_for_splitting(4.31e9, b_max, p0)
        assert np.hypot(b_x, b_z) == pytest.approx(b_max, rel=1e-9)
        eig = analytic_eigensystem(params(b_x=b_x, b_z=b_z))
        assert abs(eig.splitting - 4.31e9) <= 1e3


def test_field_for_splitting_pure_axial_solution():
    p0 = params(b_x=0.0, b_z=0.0)
    b_max = 0.1
    eig_axial = analytic_eigensystem(params(b_x=0.0, b_z=b_max))
    b_x, b_z = field_for_splitting(eig_axial.splitting, b_max, p0)
    assert abs(b_x) < 1e-3 * b_max
    assert b_z == pytest.approx(b_max, rel=1e-6)


def test_field_for_splitting_unreachable_target():
    p0 = params(b_x=0.0, b_z=0.0)
    with pytest.raises(UnachievableSplittingError):
        field_for_splitting(4.31e9, 0.01, p0)  # max splitting ~ 2*gamma_s*B = 1.12 GHz


def test_spin_params_validation():
    with pytest.raises(ValueError):
        SpinParams(lambda_g=-1.0, gamma_s=1.0, gamma_l=0.0, q=0.0, b_x=0.0, b_z=0.0)
    with pytest.raises(ValueError):
        SpinParams(lambda_g=1e9, gamma_s=1e9, gamma_l=1e9, q=2.0, b_x=0.0, b_z=0.0)
    with pytest.raises(ValueError):
        # quenched orbital term flips the effective coupling negative
        SpinParams(lambda_g=1e9, gamma_s=1e9, gamma_l=1e12, q=1.0, b_x=0.0, b_z=0.1)
