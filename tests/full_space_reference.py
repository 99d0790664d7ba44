"""Full-space master-equation reference, independent of phononbus.

Built only from the documented model (README "Units convention" and "The
model"): on the product basis |n_sc, n_p, n_e> of dimensions (2, n_ph, 2),
ordered row major, with sz = diag(-1, +1) on each qubit and the phonon
ladder <m|a|n> = sqrt(n) delta_{m,n-1},

    H = 2 pi [ (d_sc/2) sz_sc + (d_e/2) sz_e + d_p a+a
               + g_scp (s+_sc a + h.c.) + g_pe (s+_e a + h.c.) ],

and the dissipators D[c] rho = c rho c+ - (1/2){c+c, rho} on s-_sc, a and
s-_e at angular rate 2 pi kappa; the "dephasing" spin model replaces s-_e by
sz_e at pi kappa_e. Every operator is a Kronecker product on the whole space,
and the generator acts on the row-major vec(rho), so no step shares the
program's column-stacking construction or its excitation block.

This module imports nothing from phononbus, so a test that compares the
program against it is a differential check, not a self-comparison.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi


def index(labels, n_ph: int) -> int:
    """Flat row-major index of |n_sc, n_p, n_e>."""
    n_sc, n_p, n_e = labels
    return (n_sc * n_ph + n_p) * 2 + n_e


def mode_operators(n_ph: int) -> dict[str, np.ndarray]:
    """s-_sc, a, s-_e, sz_sc and sz_e on the full (2 * n_ph * 2)-dimensional space."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    a = np.diag(np.sqrt(np.arange(1.0, n_ph)), k=1).astype(complex)
    i2, ip = np.eye(2), np.eye(n_ph)
    return {
        "sm_sc": np.kron(np.kron(lower, ip), i2),
        "a": np.kron(np.kron(i2, a), i2),
        "sm_e": np.kron(np.kron(i2, ip), lower),
        "sz_sc": np.kron(np.kron(sz, ip), i2),
        "sz_e": np.kron(np.kron(i2, ip), sz),
    }


def hamiltonian(ops, couplings, deltas) -> np.ndarray:
    g_scp, g_pe = couplings
    d_sc, d_e, d_p = deltas
    sm_sc, a, sm_e = ops["sm_sc"], ops["a"], ops["sm_e"]
    exchange = g_scp * (sm_sc.conj().T @ a) + g_pe * (sm_e.conj().T @ a)
    return TWO_PI * (
        0.5 * d_sc * ops["sz_sc"] + 0.5 * d_e * ops["sz_e"] + d_p * (a.conj().T @ a)
        + exchange + exchange.conj().T
    )


def jumps(ops, kappas, spin_decay: str) -> list[tuple[float, np.ndarray]]:
    kappa_sc, kappa_p, kappa_e = kappas
    spin = (TWO_PI * kappa_e, ops["sm_e"]) if spin_decay == "energy" else (math.pi * kappa_e, ops["sz_e"])
    return [(TWO_PI * kappa_sc, ops["sm_sc"]), (TWO_PI * kappa_p, ops["a"]), spin]


def generator(h: np.ndarray, jump_ops) -> np.ndarray:
    """L with d vec(rho)/dt = L vec(rho), vec row major: vec(A rho B) = kron(A, B.T) vec(rho)."""
    eye = np.eye(h.shape[0])
    l_super = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in jump_ops:
        cdc = c.conj().T @ c
        l_super += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return l_super


def states(rho0, n_ph: int, kappas, couplings, spin_decay: str, segments, dt: float) -> list[np.ndarray]:
    """rho at t = 0, dt, 2 dt, ..., symmetrized, from one expm step per segment.

    ``segments`` holds (duration, d_sc, d_e, d_p) tuples; each duration is a
    whole number of steps dt.
    """
    ops = mode_operators(n_ph)
    d = rho0.shape[0]
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    out = [v]
    for duration, *deltas in segments:
        step = expm(generator(hamiltonian(ops, couplings, deltas), jumps(ops, kappas, spin_decay)) * dt)
        for _ in range(round(duration / dt)):
            v = step @ v
            out.append(v)
    return [0.5 * (r + r.conj().T) for r in (v.reshape(d, d) for v in out)]
