"""Dense operator algebra on the transmon (x) phonon (x) spin product space.

Every operator and density matrix is a plain dense complex numpy array; a
:class:`SpaceLayout` gives the subsystem dimensions and the basis labels.
Composite indexing is row major, so the product basis state |n_sc, n_p, n_e>
sits at flat index (n_sc * N_ph + n_p) * 2 + n_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Relative Frobenius-norm distance of a matrix from its adjoint."""
    scale = np.linalg.norm(matrix)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(matrix - matrix.conj().T) / scale)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem dimensions.

    For the tripartite transducer the order is fixed as
    (transmon, phonon, spin) = (2, N_ph, 2) and is never permuted.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"all subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def tripartite(cls, n_ph: int) -> "SpaceLayout":
        return cls((2, int(n_ph), 2))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, labels) -> int:
        """Flat row-major index of the product basis state |labels>."""
        labels = tuple(int(x) for x in labels)
        if len(labels) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} labels, got {len(labels)}")
        for k, (lab, d) in enumerate(zip(labels, self.dims)):
            if not 0 <= lab < d:
                raise ValueError(f"label {lab} out of range for subsystem {k} (dim {d})")
        idx = 0
        for lab, d in zip(labels, self.dims):
            idx = idx * d + lab
        return idx


def annihilator(n_levels: int) -> np.ndarray:
    """Bosonic lowering operator <m|a|n> = sqrt(n) delta_{m,n-1} on n_levels."""
    n_levels = int(n_levels)
    if n_levels < 2:
        raise ValueError(f"annihilator needs at least 2 levels, got {n_levels}")
    return np.diag(np.sqrt(np.arange(1, n_levels)), k=1).astype(complex)


def sigma_z(n_levels: int = 2) -> np.ndarray:
    """2n - 1 on a truncated ladder; for a qubit this is diag(-1, +1).

    The excited state carries +1 so that a detuning term (delta/2) sigma_z
    raises the excited level by delta/2.
    """
    diag = 2.0 * np.arange(n_levels) - 1.0
    return np.diag(diag).astype(complex)


def embed(local_op: np.ndarray, subsystem_index: int, layout: SpaceLayout) -> np.ndarray:
    """Kronecker-embed a square local operator at ``subsystem_index`` of ``layout``."""
    n = len(layout.dims)
    if not 0 <= subsystem_index < n:
        raise ValueError(f"subsystem index {subsystem_index} out of range for {n} subsystems")
    shape = np.shape(local_op)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {shape}")
    if shape[0] != layout.dims[subsystem_index]:
        raise ValueError(
            f"local operator dimension {shape[0]} does not match "
            f"subsystem {subsystem_index} dimension {layout.dims[subsystem_index]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(layout.dims):
        factor = local_op if k == subsystem_index else np.eye(d, dtype=complex)
        out = np.kron(out, factor)
    return out


def basis_ket(labels, layout: SpaceLayout) -> np.ndarray:
    """Rank-1 projector |labels><labels| onto a product basis state."""
    idx = layout.index(labels)
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    m[idx, idx] = 1.0
    return m
