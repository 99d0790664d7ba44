"""Simulation toolkit for a transmon-phonon-spin quantum transducer.

Modules by concern: :mod:`qops` (dense operator algebra),
:mod:`spin` (emitter eigensystem and strain coupling), :mod:`device`
(zero-point normalizations, overlap couplings, loss budget),
:mod:`dynamics` (master-equation evolution), :mod:`protocols` (the three
transfer protocols and sweeps), :mod:`cli` (command-line front end).
"""

__version__ = "0.1.0"

from .device import (
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
    q_total,
    spin_coupling_map,
    transmon_frequency,
)
from .dynamics import (
    DetuningSchedule,
    Evolution,
    Segment,
    SimOptions,
    Trajectory,
    build_rotating_hamiltonian,
    evolve,
)
from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    GridMismatchError,
    IntegrationError,
    NumericalIntegrityError,
    TransducerError,
    TransducerWarning,
    UnachievableSplittingError,
)
from .protocols import (
    HierarchyReport,
    ProtocolResult,
    protocol_hierarchy,
    run_double_rabi,
    run_resonant,
    run_virtual,
    sweep,
)
from .qops import (
    SpaceLayout,
    annihilator,
    basis_ket,
    embed,
)
from .spin import (
    SpinEigenSystem,
    SpinParams,
    analytic_eigensystem,
    field_for_splitting,
    spin_phonon_coupling,
    strain_hamiltonian,
)
