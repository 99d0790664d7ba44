"""Dense operator algebra on the transmon (x) phonon (x) spin product space.

Operators and density matrices are dense complex numpy arrays tagged with a
:class:`SpaceLayout` giving the subsystem dimensions. Composite indexing is
row major, so the product basis state |n_sc, n_p, n_e> sits at flat index
(n_sc * N_ph + n_p) * 2 + n_e. Everything here is immutable after
construction; instances can be shared freely between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True)
class Operator:
    """Dense complex operator on the composite space described by ``layout``."""

    matrix: np.ndarray
    layout: SpaceLayout

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match layout dimension {self.layout.dim}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace state on the composite space.

    Positivity is monitored by the evolution code, not enforced here; small
    negative eigenvalues from integration noise are legal and reported.
    """

    matrix: np.ndarray
    layout: SpaceLayout

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.layout.dim:
            raise ValueError(f"density matrix shape {m.shape} does not match layout")
        defect = hermiticity_defect(m)
        if defect > 1e-10:
            raise NumericalIntegrityError(
                f"density matrix is not Hermitian (relative defect {defect:.3e})"
            )
        tr = m.trace()
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"density matrix trace {tr} is not 1")
        object.__setattr__(self, "matrix", _frozen(m))


def annihilator(n_levels: int) -> Operator:
    """Bosonic lowering operator <m|a|n> = sqrt(n) delta_{m,n-1} on n_levels."""
    n_levels = int(n_levels)
    if n_levels < 2:
        raise ValueError(f"annihilator needs at least 2 levels, got {n_levels}")
    a = np.diag(np.sqrt(np.arange(1, n_levels)), k=1).astype(complex)
    return Operator(a, SpaceLayout((n_levels,)))


def sigma_z(n_levels: int = 2) -> Operator:
    """2n - 1 on a truncated ladder; for a qubit this is diag(-1, +1).

    The excited state carries +1 so that a detuning term (delta/2) sigma_z
    raises the excited level by delta/2.
    """
    diag = 2.0 * np.arange(n_levels) - 1.0
    return Operator(np.diag(diag).astype(complex), SpaceLayout((n_levels,)))


def embed(local_op: Operator, subsystem_index: int, layout: SpaceLayout) -> Operator:
    """Kronecker-embed a local operator at ``subsystem_index`` of ``layout``."""
    n = len(layout.dims)
    if not 0 <= subsystem_index < n:
        raise ValueError(f"subsystem index {subsystem_index} out of range for {n} subsystems")
    if local_op.dim != layout.dims[subsystem_index]:
        raise ValueError(
            f"local operator dimension {local_op.dim} does not match "
            f"subsystem {subsystem_index} dimension {layout.dims[subsystem_index]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(layout.dims):
        factor = local_op.matrix if k == subsystem_index else np.eye(d, dtype=complex)
        out = np.kron(out, factor)
    return Operator(out, layout)


def basis_ket(labels, layout: SpaceLayout) -> DensityMatrix:
    """Rank-1 projector |labels><labels| onto a product basis state."""
    idx = layout.index(labels)
    m = np.zeros((layout.dim, layout.dim), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(m, layout)
