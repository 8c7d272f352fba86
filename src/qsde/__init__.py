"""Two-qubit entanglement sudden death under generic Markovian couplings.

Closed-form single-qubit channel dynamics for couplings lambda = u + i v,
Choi/Kraus machinery, two-qubit concurrence trajectories, sudden-death
criteria, and a Monte Carlo census of the coupling space.
"""

from .census import CensusReport, run_census
from .channel import (
    Coupling,
    Dissipative,
    Flip,
    asymptote,
    bloch_to_rho,
    classify,
    evolve,
    evolve_dissipative,
    evolve_flip,
    family,
    family_appc,
    kraus_flip,
)
from .choi import (
    choi_of_channel,
    completeness_residual,
    kraus_of_choi,
    kraus_of_coupling,
    partial_trace_second,
)
from .errors import (
    ConfigError,
    DegenerateCoupling,
    GridTooCoarse,
    IncompleteKraus,
    InvalidWeight,
    NotDissipative,
    NotEntangled,
    NotHermitian,
    NotPSD,
    QsdeError,
    WrongClass,
)
from .linalg import herm_eig, mat, psd_factor, sqrt_psd
from .pair import (
    ConcurrenceResult,
    concurrence,
    default_grid,
    evolve_pair,
    initial_state,
    lambda_at,
    lambda_trajectory,
)
from .sde import (
    SdeVerdict,
    detect_tau,
    predict_dissipative,
    predict_flip,
    rotate_pair,
    rotation_for,
    sde_check,
)

__version__ = "0.1.0"
