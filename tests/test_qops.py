import numpy as np
import pytest

from phononbus.qops import (
    SpaceLayout,
    annihilator,
    basis_ket,
    embed,
    hermiticity_defect,
    sigma_z,
)

LAYOUT = SpaceLayout((2, 3, 2))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def test_annihilator_qubit_matrix():
    a = annihilator(2)
    np.testing.assert_array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilator_ladder_normalization():
    a = annihilator(3)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert a[0, 1] == 1.0


def test_number_operator_eigenvalue():
    a = annihilator(4)
    n_op = a.conj().T @ a
    ket2 = np.zeros(4)
    ket2[2] = 1.0
    assert (ket2 @ n_op @ ket2).real == pytest.approx(2.0, abs=1e-15)


def test_annihilator_rejects_scalar_space():
    with pytest.raises(ValueError):
        annihilator(1)


def test_layout_requires_dims_at_least_two():
    with pytest.raises(ValueError):
        SpaceLayout((2, 1, 2))


def test_layout_row_major_index():
    assert LAYOUT.index((1, 0, 0)) == 6
    assert LAYOUT.index((0, 1, 0)) == 2
    assert LAYOUT.index((0, 0, 1)) == 1
    assert LAYOUT.index((1, 2, 1)) == 11


def test_embed_identity_is_identity():
    out = embed(np.eye(2), 0, LAYOUT)
    np.testing.assert_array_equal(out, np.eye(12, dtype=complex))


def test_embed_acts_on_named_subsystem_only():
    lay = SpaceLayout((2, 2, 2))
    z = embed(sigma_z(2), 2, lay)
    ket = np.zeros(8)
    ket[lay.index((0, 0, 0))] = 1.0
    assert (ket @ z @ ket).real == pytest.approx(-1.0)
    ket2 = np.zeros(8)
    ket2[lay.index((1, 1, 0))] = 1.0
    assert (ket2 @ z @ ket2).real == pytest.approx(-1.0)


def test_embed_trace_product_rule():
    # oracle: explicit Kronecker assembly of the same operators
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    ea = embed(a, 0, LAYOUT)
    eb = embed(b, 2, LAYOUT)
    direct = np.kron(np.kron(a, np.eye(3)), np.eye(2)) @ np.kron(np.kron(np.eye(2), np.eye(3)), b)
    assert np.trace(ea @ eb) == pytest.approx(np.trace(direct), rel=1e-13)
    assert np.trace(ea @ eb) == pytest.approx(np.trace(a) * np.trace(b) * 3, rel=1e-12)


def test_embed_rejects_bad_index_and_dimension():
    with pytest.raises(ValueError, match=r"^subsystem index 3 out of range for 3 subsystems$"):
        embed(np.eye(2), 3, LAYOUT)
    with pytest.raises(ValueError, match=r"^operator matrix must be square, got shape \(3, 2\)$"):
        embed(np.ones((3, 2)), 1, LAYOUT)
    with pytest.raises(ValueError, match=r"^local operator dimension 4 does not match subsystem 1 dimension 3$"):
        embed(np.eye(4), 1, LAYOUT)


def test_embed_preserves_hermiticity_and_spectral_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        local = random_hermitian(rng, 3)
        out = embed(local, 1, LAYOUT)
        assert hermiticity_defect(out) <= 1e-10
        assert np.linalg.norm(out, 2) == pytest.approx(np.linalg.norm(local, 2), rel=1e-12)


def test_ladder_commutator_on_truncation_safe_states():
    n_ph = 4
    lay = SpaceLayout((2, n_ph, 2))
    a = embed(annihilator(n_ph), 1, lay)
    comm = a @ a.conj().T - a.conj().T @ a
    for n_sc in (0, 1):
        for n_p in range(n_ph - 1):
            for n_e in (0, 1):
                ket = np.zeros(lay.dim)
                ket[lay.index((n_sc, n_p, n_e))] = 1.0
                assert (ket @ comm @ ket).real == pytest.approx(1.0, abs=1e-13)


def test_basis_ket_index_and_trace():
    rho = basis_ket((1, 0, 0), LAYOUT)
    assert rho[6, 6] == 1.0
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.count_nonzero(rho) == 1
    rho0 = basis_ket((0, 0, 0), LAYOUT)
    assert rho0[0, 0] == 1.0


def test_basis_ket_trace_is_one_for_all_labels():
    for n_sc in range(2):
        for n_p in range(3):
            for n_e in range(2):
                rho = basis_ket((n_sc, n_p, n_e), LAYOUT)
                assert np.trace(rho) == pytest.approx(1.0)


def test_basis_ket_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        basis_ket((0, 3, 0), LAYOUT)
