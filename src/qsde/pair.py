"""Two-qubit states under independent local channels, and their concurrence.

Basis ordering is |00>, |01>, |10>, |11> with qubit 1 as the left tensor
factor and spin-up identified with |0>.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import Coupling, check_array, check_real
from .choi import kraus_of_coupling
from .errors import InvalidInput
from .linalg import SIGMA_Y, herm_eig, psd_factor, psd_spectrum

# A trace of 1 + delta scales the state, and eigh reads one triangle: at 1e-10
# each left tau's bits over 40 random draws and moved lambda_inf by at most
# 7.3e-11, under lam's resolution of ~1.2e-7 (see concurrence).
HERMITIAN_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
# A state eigenvalue below this is an input error. It is stricter than
# linalg.PSD_ABORT_TOL, which bounds the matrices the library computes;
# check_state's message spells it "-1e-9", as the CLI always has.
STATE_EIGENVALUE_FLOOR = -1e-9
DEFAULT_GRID_SPAN = 10.0
DEFAULT_GRID_POINTS = 400

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


def initial_state(kind: str, alpha_sq: float) -> np.ndarray:
    """Pure two-qubit state of the parallel or antiparallel family.

    ``plus`` is alpha |00> + beta |11>, ``minus`` is alpha |01> + beta |10>,
    with real alpha = sqrt(alpha_sq) and beta = sqrt(1 - alpha_sq). Both
    have concurrence 2 alpha beta.
    """
    if kind not in ("plus", "minus"):
        raise InvalidInput("kind", f"must be 'plus' or 'minus', got {kind!r}")
    alpha_sq = check_real(alpha_sq, "alpha_sq")
    if not 0.0 <= alpha_sq <= 1.0:
        raise InvalidInput("alpha_sq", f"{alpha_sq!r} outside [0, 1]")
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq)
    psi = np.zeros(4, dtype=complex)
    if kind == "plus":
        psi[0], psi[3] = alpha, beta
    else:
        psi[1], psi[2] = alpha, beta
    return np.outer(psi, psi.conj())


def check_state(rho) -> np.ndarray:
    """The two-qubit state rule, applied once where a state enters the library.

    Returns rho as a complex array when its entries are finite numbers,
    not text or bools (channel.check_array), and it is 4x4, Hermitian
    within HERMITIAN_TOL, of trace 1 within DENSITY_TRACE_TOL and has no
    eigenvalue below -1e-9. Otherwise raises InvalidInput with
    field ``rho0``, whose message names the failed test. Functions past
    this point trust the states they are given.
    """
    rho = np.asarray(check_array(rho, "rho0", "iufc"), dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise InvalidInput("rho0", "state matrix entries must be finite")
    if rho.shape != (4, 4):
        raise InvalidInput("rho0", f"state matrix must be 4x4, got {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > HERMITIAN_TOL:
        raise InvalidInput("rho0", f"state matrix is not Hermitian within {HERMITIAN_TOL:g}")
    if abs(complex(np.trace(rho)) - 1.0) > DENSITY_TRACE_TOL:
        raise InvalidInput("rho0", f"state matrix trace must be 1 within {DENSITY_TRACE_TOL:g}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < STATE_EIGENVALUE_FLOOR:
        raise InvalidInput("rho0", f"state matrix has eigenvalue {smallest:.3e} < -1e-9")
    return rho


def evolve_pair(rho0, kraus1, kraus2) -> np.ndarray:
    """Evolve a complex 4x4 two-qubit state by independent local Kraus sets, each an (r, 2, 2) stack.

    rho(t) = sum_{ij} (K_i (x) K_j) rho0 (K_i (x) K_j)^dag. Every K_i (x) K_j
    is formed at once, by np.kron's products, as one (r1 r2, 4, 4) stack,
    which one batched product applies. The terms are added in the order i,
    then j, onto a +0 accumulator: numpy reduces a leading axis term by term
    (it sums pairwise only along a contiguous last axis), so the state is
    that of a double loop over the pairs, bit for bit.
    """
    k = (kraus1[:, None, :, None, :, None] * kraus2[None, :, None, :, None, :]).reshape(-1, 4, 4)
    return np.add.reduce(k @ rho0 @ k.conj().transpose(0, 2, 1), axis=0, initial=0j)


def concurrence(rho) -> float:
    """lam of a complex 4x4 two-qubit density matrix, whose concurrence is max(0, lam).

    The roots l_1 >= ... >= l_4 are the square roots of the eigenvalues of
    rho (sy (x) sy) rho* (sy (x) sy), obtained from the Hermitian-similar
    matrix sqrt(rho) (sy (x) sy) rho* (sy (x) sy) sqrt(rho), and
    lam = l_1 - l_2 - l_3 - l_4.

    Both spectra go through linalg.psd_spectrum, whose relative snap keeps
    eigensolver noise from surfacing as sqrt(eps)-sized roots on low-rank
    states. The price is resolution: lam is good only to
    sqrt(RELATIVE_SPECTRAL_ZERO) ~ 1.2e-7 (on the parallel state under
    double amplitude damping it drifts from its closed form by up to
    4.8e-8), so the death-time scan reads the sign of pt_min instead.
    """
    values, vectors = herm_eig(rho)
    root = psd_factor(values, vectors) @ vectors.conj().T
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    similar = root @ flipped @ root
    roots = np.sqrt(psd_spectrum(herm_eig(0.5 * (similar + similar.conj().T))[0]))
    return float(roots[0] - roots[1] - roots[2] - roots[3])


def state_at(rho0, c1: Coupling, c2: Coupling, t: float) -> np.ndarray:
    """The pair state at time t; one Coupling given for both qubits is built once."""
    kraus1 = kraus_of_coupling(c1, t)
    kraus2 = kraus1 if c2 is c1 else kraus_of_coupling(c2, t)
    return evolve_pair(rho0, kraus1, kraus2)


def lambda_at(rho0, c1: Coupling, c2: Coupling, t: float) -> float:
    """lam of the pair state at time t."""
    return concurrence(state_at(rho0, c1, c2, t))


def _partial_transpose(rho) -> np.ndarray:
    """The qubit-2 partial transpose of a 4x4 matrix."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def pt_min(rho) -> float:
    """Smallest eigenvalue of the qubit-2 partial transpose of rho, in [-1/2, 1] for a state.

    A two-qubit state is entangled exactly when it is negative (Peres-Horodecki);
    one eigvalsh and no square root resolve its sign to ~eps.
    """
    return float(np.linalg.eigvalsh(_partial_transpose(rho))[0])


def pt_det(rho) -> float:
    """Determinant of the qubit-2 partial transpose of rho, whose smallest eigenvalue is pt_min.

    An entangled two-qubit state's partial transpose has full rank and one
    negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), so
    this is negative exactly while rho is entangled (Augusiak, Demianowicz &
    Horodecki, PRA 77, 030301(R) (2008)). On the graded spectrum near a
    crossing LU keeps this sign where eigvalsh's ~eps error hides pt_min's.
    """
    return float(np.linalg.det(_partial_transpose(rho)).real)


def default_grid(gamma: float = 1.0) -> np.ndarray:
    """Uniform time grid of DEFAULT_GRID_POINTS covering gamma*t in [0, DEFAULT_GRID_SPAN]."""
    gamma = float(gamma)  # a Python float overflows to inf without a numpy warning
    if not math.isfinite(DEFAULT_GRID_SPAN / gamma):
        raise InvalidInput("gamma", f"default grid end {DEFAULT_GRID_SPAN:g}/gamma overflows at gamma = "
                                    f"{gamma!r}")
    return np.linspace(0.0, DEFAULT_GRID_SPAN / gamma, DEFAULT_GRID_POINTS)


def check_grid(grid) -> np.ndarray:
    """The grid rule of every time scan: 1-d, non-empty, real, from t = 0 and strictly increasing."""
    grid = np.asarray(check_array(grid, "grid", "iuf"), dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidInput("grid", "grid must be a non-empty 1-d array of times")
    if grid[0] != 0.0:
        raise InvalidInput("grid", "grid must start at t = 0")
    if not np.all(np.diff(grid) > 0.0):
        raise InvalidInput("grid", "grid must be strictly increasing")
    return grid


def lambda_trajectory(rho0, c1: Coupling, c2: Coupling, grid) -> list[tuple[float, float, float]]:
    """(t, lam, concurrence) records along a grid that passes check_grid."""
    records = []
    for t in check_grid(grid):
        lam = lambda_at(rho0, c1, c2, t)
        records.append((float(t), lam, max(0.0, lam)))
    return records
