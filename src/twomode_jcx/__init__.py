"""Two-mode Jaynes-Cummings-type models on truncated Fock spaces.

Construction of the coupled-mode spin-boson Hamiltonians, their conserved
charge sectors, closed-form spectra and eigenspinors, su(1,1)/su(2)
displacement machinery with Perelomov number coherent states, and the
brute-force diagonalization oracles everything is validated against.
"""

from .errors import (
    ConvergenceError,
    DegenerateCouplingError,
    DimensionMismatchError,
    DomainError,
    EdgeStateError,
    LeakageError,
    NonIntegerError,
    NotConvergedError,
    QuadratureError,
    SectorMismatchError,
    SingularBranchError,
    SingularParameterError,
    TailError,
    TwoModeJcxError,
)
from .fock import (
    ChargeKind,
    FockBasis,
    LadderKind,
    Mode,
    SectorBasis,
    build_basis,
    commutator,
    get_sector,
    ladder_op,
    project_operator,
    sector_basis,
    sector_decompose,
)
from .liealg import (
    AlgebraKind,
    GroupLabels,
    Su2Generators,
    Su11Generators,
    group_labels_from_physical,
    physical_from_group_labels,
    sector_generators,
    su2_generators,
    su11_generators,
    verify_algebra,
    verify_sector_algebra,
)
from .displace import (
    CoherentStateCoeffs,
    TiltingParams,
    displacement_direct,
    displacement_normal,
    similarity_coefficients,
    su2_ncs_coefficients,
    su11_ncs_coefficients,
    verify_similarity,
    zeta_to_xi,
)
from .models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    SectorPair,
    SpinorState,
    build_full_hamiltonian,
    build_kg_operator,
    build_spinor,
    eigen_residual,
    lower_from_upper,
    sector_pair,
    sector_spinor,
    sector_tridiagonal,
)
from .spectra import (
    CoupledOscillators,
    Dirac1p1,
    Dirac2p1,
    NondegenerateParametricAmplifier,
    analytic_energy_su2,
    analytic_energy_su11,
    coupled_osc_energy,
    ndpa_energy,
    nonrelativistic_limit_check,
    numeric_spectrum,
    special_case_params,
    tilting_parameters,
    verify_tilting,
)
from .wavefunc import (
    ClosedFormParams,
    closed_form_comparison,
    laguerre,
    ncs_wavefunction_closed,
    ncs_wavefunction_series,
    oscillator_wavefunction,
    quadrature_inner_product,
)

__version__ = "0.1.0"
