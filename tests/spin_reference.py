"""Dense spin Hamiltonian, the numeric reference for phononbus.spin's closed form.

Built from the Hamiltonian in the `phononbus.spin` module docstring: in the
orbital-spin basis (|e_x up>, |e_x down>, |e_y up>, |e_y down>), with
lam = lambda_g - q * gamma_l * B_z, gz = gamma_s * B_z and gx = gamma_s * B_x,

    [ gz     gx   -i*lam   0    ]
    [ gx    -gz     0     i*lam ]
    [ i*lam  0      gz     gx   ]
    [ 0    -i*lam   gx    -gz   ]

in ordinary frequencies (Hz). This module imports nothing from phononbus, so
a test that diagonalizes it numerically and compares against
`analytic_eigensystem` is a differential check, not a self-comparison.
"""

from __future__ import annotations

import numpy as np


def build_spin_hamiltonian(params) -> np.ndarray:
    """4x4 Hamiltonian for any object with lambda_g, gamma_s, gamma_l, q, b_x and b_z."""
    lam = params.lambda_g - params.q * params.gamma_l * params.b_z
    gz = params.gamma_s * params.b_z
    gx = params.gamma_s * params.b_x
    return np.array(
        [
            [gz, gx, -1j * lam, 0.0],
            [gx, -gz, 0.0, 1j * lam],
            [1j * lam, 0.0, gz, gx],
            [0.0, -1j * lam, gx, -gz],
        ],
        dtype=complex,
    )
