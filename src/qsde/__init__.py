"""Two-qubit entanglement sudden death under generic Markovian couplings.

Closed-form single-qubit channel dynamics for couplings lambda = u + i v,
Choi/Kraus machinery, two-qubit concurrence trajectories, sudden-death
criteria, and a Monte Carlo census of the coupling space.

The package exports the names its callers use; everything else is
imported from its submodule (``qsde.channel``, ``qsde.choi``,
``qsde.pair``, ``qsde.sde``, ``qsde.census``, ``qsde.errors``,
``qsde.linalg``), all of which ``import qsde`` loads.
"""

from .census import run_census
from .channel import Coupling, family_appc
from .errors import QsdeError
from .pair import initial_state
from .sde import sde_check

__version__ = "0.1.0"
