"""Group-IV emitter physics: spin-orbit + Zeeman Hamiltonian and strain coupling.

The 4-level ground manifold is expressed in the orbital-spin product basis

    (|e_x up>, |e_x down>, |e_y up>, |e_y down>)

in that order. With lambda = lambda_g - q * gamma_l * B_z the Hamiltonian is

    [ gz   gx  -i*lam   0   ]
    [ gx  -gz    0    i*lam ]        gz = gamma_s * B_z
    [ i*lam 0    gz    gx   ]        gx = gamma_s * B_x
    [ 0  -i*lam  gx   -gz   ]

(all entries ordinary frequencies, Hz). Its spectrum splits into two
branches lambda_-/lambda_+ = lam -/+ gz with eigenvalues
-/+ R_-/+ where R = hypot(gx, lambda_branch). Closed-form eigenvectors are
evaluated on numerically stable branches so the B_x -> 0 limit is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, UnachievableSplittingError


@dataclass(frozen=True)
class SpinParams:
    """Emitter parameters. Frequencies in Hz, field coefficients in Hz/T, field in T."""

    lambda_g: float        # spin-orbit coupling
    gamma_s: float         # spin Zeeman matrix coefficient (diagonal is +/- gamma_s*B_z)
    gamma_l: float         # orbital Zeeman coefficient, enters via quenching q
    q: float               # orbital quenching factor in [0, 1]
    b_x: float
    b_z: float

    def __post_init__(self):
        if self.lambda_g <= 0:
            raise ValueError("lambda_g must be positive")
        if self.gamma_s <= 0:
            raise ValueError("gamma_s must be positive")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("quenching factor q must lie in [0, 1]")
        if self.lam <= 0:
            raise ValueError(
                "effective spin-orbit coupling lambda_g - q*gamma_l*B_z must stay positive"
            )

    @property
    def lam(self) -> float:
        """Effective spin-orbit coupling lambda_g - q * gamma_l * B_z."""
        return self.lambda_g - self.q * self.gamma_l * self.b_z

    @property
    def lambda_minus(self) -> float:
        return self.lam - self.gamma_s * self.b_z

    @property
    def lambda_plus(self) -> float:
        return self.lam + self.gamma_s * self.b_z


@dataclass(frozen=True)
class SpinEigenSystem:
    """Closed-form eigensystem of the spin Hamiltonian.

    eigenvalues[0..3] = (nu_1, nu_2, nu_3, nu_4) with nu_1 <= nu_3 the two
    lowest levels (the spin qubit); nu_2, nu_4 are their upper-branch
    partners. modes has the matching eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        m = np.asarray(self.modes, dtype=complex)
        ev.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "modes", m)

    def eigenvector(self, k: int) -> np.ndarray:
        """k-th eigenvector, 1-indexed to match the nu_k labels."""
        return self.modes[:, k - 1]

    @property
    def splitting(self) -> float:
        """Qubit splitting nu_3 - nu_1 (Hz), nonnegative by ordering."""
        return float(self.eigenvalues[2] - self.eigenvalues[0])


def _branch_pairs(lam_b: float, gx: float, s: float):
    """Both eigenpairs of one spin-orbit branch.

    s = +1 selects the lambda_minus sign structure, s = -1 lambda_plus. Each
    eigenvector is returned from the algebraic form that stays well
    conditioned for the sign of lam_b, so gx -> 0 is exact.
    """
    r = math.hypot(gx, lam_b)
    if r == 0.0:
        raise DegenerateConfigurationError(
            "lambda branch and gamma_s*B_x both vanish; eigenvectors are undefined"
        )
    if lam_b >= 0:
        v_low = np.array([-1j * (lam_b + r), s * 1j * gx, -s * (lam_b + r), gx], dtype=complex)
        v_high = np.array([-1j * gx, -s * 1j * (lam_b + r), -s * gx, -(lam_b + r)], dtype=complex)
    else:
        v_low = np.array([-1j * gx, s * 1j * (r - lam_b), -s * gx, (r - lam_b)], dtype=complex)
        v_high = np.array([-1j * (lam_b - r), s * 1j * gx, -s * (lam_b - r), gx], dtype=complex)
    v_low = v_low / np.linalg.norm(v_low)
    v_high = v_high / np.linalg.norm(v_high)
    return (-s * r, v_low), (s * r, v_high)


def analytic_eigensystem(params: SpinParams) -> SpinEigenSystem:
    """Closed-form eigenpairs, ordered so (nu_1, nu_3) are the two lowest levels."""
    gx = params.gamma_s * params.b_x
    minus_pair = _branch_pairs(params.lambda_minus, gx, +1.0)
    plus_pair = _branch_pairs(params.lambda_plus, gx, -1.0)

    branches = [minus_pair, plus_pair]
    # Branch with the deeper ground level supplies (nu_1, nu_2). On a tie,
    # order by ascending index of each candidate's maximal-magnitude component.
    lows = [min(p, key=lambda t: t[0]) for p in branches]
    if lows[0][0] != lows[1][0]:
        first = 0 if lows[0][0] < lows[1][0] else 1
    else:
        first = 0 if int(np.argmax(np.abs(lows[0][1]))) <= int(np.argmax(np.abs(lows[1][1]))) else 1
    ordered = [branches[first], branches[1 - first]]

    pairs = []
    for branch in ordered:
        low, high = sorted(branch, key=lambda t: t[0])
        pairs.append(low)
        pairs.append(high)
    eigenvalues = np.array([p[0] for p in pairs])
    modes = np.column_stack([p[1] for p in pairs])
    return SpinEigenSystem(eigenvalues, modes)


def strain_hamiltonian(alpha: float, beta: float) -> np.ndarray:
    """Strain perturbation (4x4): +/- alpha on the orbital diagonal, beta mixing e_x/e_y."""
    return np.array(
        [
            [alpha, 0.0, beta, 0.0],
            [0.0, alpha, 0.0, beta],
            [beta, 0.0, -alpha, 0.0],
            [0.0, beta, 0.0, -alpha],
        ],
        dtype=complex,
    )


def spin_phonon_coupling(eigsys: SpinEigenSystem, h_strain: np.ndarray) -> float:
    """|<psi_3| H_strain |psi_1>| between the two lowest levels (Hz), for a 4x4 H_strain.

    With orthonormal eigenvector columns this equals the (3, 1) element of
    M^dagger H M; a non-orthonormal M means a degenerate or inconsistent
    eigensystem and is rejected.
    """
    shape = np.shape(h_strain)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {shape}")
    if shape[0] != 4:
        raise ValueError(f"matrix dimension {shape[0]} does not match layout dimension 4")
    m = eigsys.modes
    gram_defect = np.abs(m.conj().T @ m - np.eye(4)).max()
    if gram_defect > 1e-8:
        raise DegenerateConfigurationError(
            f"eigenvector matrix is not orthonormal (defect {gram_defect:.3e})"
        )
    element = m[:, 2].conj() @ (h_strain @ m[:, 0])
    return float(abs(element))


def splitting_at_angle(params_sans_b: SpinParams, b_mag: float, theta: float) -> float:
    """Qubit splitting for B = b_mag (sin theta, 0, cos theta)."""
    from dataclasses import replace

    p = replace(params_sans_b, b_x=b_mag * math.sin(theta), b_z=b_mag * math.cos(theta))
    return analytic_eigensystem(p).splitting


def field_for_splitting(
    target_splitting: float,
    b_max: float,
    params_sans_b: SpinParams,
    tol: float = 1e3,
) -> tuple[float, float]:
    """Field (B_x, B_z) with |B| = b_max realizing the target qubit splitting.

    The splitting decreases monotonically along theta in [0, pi/2] where
    (B_x, B_z) = b_max (sin theta, cos theta), so the root with maximal B_x
    (maximal spin-orbit mixing, hence maximal g_pe) is the largest theta that
    still reaches the target. Bisection to ``tol`` Hz (default 1 kHz).
    """
    if target_splitting <= 0:
        raise ValueError("target splitting must be positive")
    if b_max <= 0:
        raise ValueError("b_max must be positive")

    n_scan = 129
    thetas = np.linspace(0.0, math.pi / 2.0, n_scan)
    values = [splitting_at_angle(params_sans_b, b_max, t) - target_splitting for t in thetas]

    # Largest-theta bracket where the splitting falls through the target.
    bracket = None
    for k in range(n_scan - 1, 0, -1):
        if values[k - 1] >= 0.0 >= values[k]:
            bracket = (thetas[k - 1], thetas[k])
            break
    if bracket is None:
        smax = max(values) + target_splitting
        raise UnachievableSplittingError(
            f"target splitting {target_splitting:.6g} Hz is not reachable at |B| = {b_max} T "
            f"(maximum over the scanned sphere: {smax:.6g} Hz)"
        )

    lo, hi = bracket
    f_mid = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = splitting_at_angle(params_sans_b, b_max, mid) - target_splitting
        if abs(f_mid) <= 0.5 * tol:
            lo = hi = mid
            break
        if f_mid >= 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    achieved = splitting_at_angle(params_sans_b, b_max, theta)
    if abs(achieved - target_splitting) > tol:
        raise UnachievableSplittingError(
            f"bisection stalled {abs(achieved - target_splitting):.3g} Hz from target"
        )
    return b_max * math.sin(theta), b_max * math.cos(theta)
