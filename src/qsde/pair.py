"""Two-qubit states under independent local channels, and their concurrence.

Basis ordering is |00>, |01>, |10>, |11> with qubit 1 as the left tensor
factor and spin-up identified with |0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Coupling
from .choi import kraus_of_coupling
from .errors import InvalidInput
from .linalg import SIGMA_Y, herm_eig, psd_spectrum, sqrt_psd

HERMITIAN_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
# A state eigenvalue below this is an input error. It is stricter than
# linalg.PSD_ABORT_TOL, which bounds the matrices the library computes;
# check_state's message spells it "-1e-9", as the CLI always has.
STATE_EIGENVALUE_FLOOR = -1e-9
DEFAULT_GRID_SPAN = 10.0
DEFAULT_GRID_POINTS = 400

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True, eq=False)
class ConcurrenceResult:
    """Concurrence C = max(0, lam) plus the four spin-flip roots (descending)."""

    lam: float
    concurrence: float
    roots: np.ndarray


def initial_state(kind: str, alpha_sq: float) -> np.ndarray:
    """Pure two-qubit state of the parallel or antiparallel family.

    ``plus`` is alpha |00> + beta |11>, ``minus`` is alpha |01> + beta |10>,
    with real alpha = sqrt(alpha_sq) and beta = sqrt(1 - alpha_sq). Both
    have concurrence 2 alpha beta.
    """
    if kind not in ("plus", "minus"):
        raise InvalidInput("kind", f"must be 'plus' or 'minus', got {kind!r}")
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

    Returns rho as a complex array when its entries are finite and it is
    4x4, Hermitian within HERMITIAN_TOL, of trace 1 within DENSITY_TRACE_TOL
    and has no eigenvalue below -1e-9. Otherwise raises InvalidInput with
    field ``rho0``, whose message names the failed test. Functions past
    this point trust the states they are given.
    """
    rho = np.asarray(rho, dtype=complex)
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
    """Evolve a two-qubit state by independent local Kraus sets.

    rho(t) = sum_{ij} (K_i (x) K_j) rho0 (K_i (x) K_j)^dag.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for k1 in kraus1:
        for k2 in kraus2:
            # np.kron(k1, k2) by the same products, without its per-call overhead
            k = (k1[:, None, :, None] * k2[None, :, None, :]).reshape(4, 4)
            out += k @ rho0 @ k.conj().T
    return out


def concurrence(rho) -> ConcurrenceResult:
    """Concurrence of a two-qubit density matrix.

    The roots l_1 >= ... >= l_4 are the square roots of the eigenvalues of
    rho (sy (x) sy) rho* (sy (x) sy), obtained from the Hermitian-similar
    matrix sqrt(rho) (sy (x) sy) rho* (sy (x) sy) sqrt(rho), and
    lam = l_1 - l_2 - l_3 - l_4 with C = max(0, lam).

    Both spectra go through linalg.psd_spectrum, whose relative snap keeps
    eigensolver noise from surfacing as sqrt(eps)-sized roots on low-rank
    states. The price is resolution: lam is good only to
    sqrt(RELATIVE_SPECTRAL_ZERO) ~ 1.2e-7 (on the parallel state under
    double amplitude damping it drifts from its closed form by up to
    4.8e-8), so the death-time scan reads the sign of pt_min instead.
    """
    rho = np.asarray(rho, dtype=complex)
    root = sqrt_psd(rho)
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    similar = root @ flipped @ root
    roots = np.sqrt(psd_spectrum(herm_eig(0.5 * (similar + similar.conj().T))[0]))
    lam = float(roots[0] - roots[1] - roots[2] - roots[3])
    return ConcurrenceResult(lam=lam, concurrence=max(0.0, lam), roots=roots)


def state_at(rho0, c1: Coupling, c2: Coupling, t: float) -> np.ndarray:
    """The pair state at time t; one Coupling given for both qubits is built once."""
    kraus1 = kraus_of_coupling(c1, t)
    kraus2 = kraus1 if c2 is c1 else kraus_of_coupling(c2, t)
    return evolve_pair(rho0, kraus1, kraus2)


def lambda_at(rho0, c1: Coupling, c2: Coupling, t: float) -> float:
    """lam of the pair state at time t."""
    return concurrence(state_at(rho0, c1, c2, t)).lam


def pt_min(rho) -> float:
    """Smallest eigenvalue of the qubit-2 partial transpose of rho, in [-1/2, 1] for a state.

    A two-qubit state is entangled exactly when it is negative (Peres-Horodecki);
    one eigvalsh and no square root resolve its sign to ~eps.
    """
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def default_grid(gamma: float = 1.0) -> np.ndarray:
    """Uniform time grid of DEFAULT_GRID_POINTS covering gamma*t in [0, DEFAULT_GRID_SPAN]."""
    gamma = float(gamma)  # a Python float overflows to inf without a numpy warning
    if not math.isfinite(DEFAULT_GRID_SPAN / gamma):
        raise InvalidInput("gamma", f"default grid end {DEFAULT_GRID_SPAN:g}/gamma overflows at gamma = "
                                    f"{gamma!r}")
    return np.linspace(0.0, DEFAULT_GRID_SPAN / gamma, DEFAULT_GRID_POINTS)


def check_grid(grid) -> np.ndarray:
    """The grid rule of every time scan: a non-empty 1-d array, from t = 0, strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidInput("grid", "grid must be a non-empty 1-d array of times")
    if grid[0] != 0.0:
        raise InvalidInput("grid", "grid must start at t = 0")
    if not np.all(np.diff(grid) > 0.0):
        raise InvalidInput("grid", "grid must be strictly increasing")
    return grid


def lambda_trajectory(rho0, c1: Coupling, c2: Coupling, grid) -> list[tuple[float, float, float]]:
    """(t, lam, concurrence) records along a grid that passes check_grid."""
    rho0 = np.asarray(rho0, dtype=complex)
    records = []
    for t in check_grid(grid):
        lam = lambda_at(rho0, c1, c2, t)
        records.append((float(t), lam, max(0.0, lam)))
    return records
