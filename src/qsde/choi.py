"""Channel representations: 4x4 channel matrices (Choi form) and Kraus extraction.

The Choi matrix of a single-qubit channel C is assembled as

    choi = sum_{j,k} |j><k| (x) C(|j><k|),

where the operator-basis images follow from the closed-form Bloch dynamics
by linearity: the diagonal images from the +-z axial states, the
off-diagonal ones from combinations of the +-x and +-y images. Any
factorization S S^dag = choi yields Kraus operators by un-vectorizing the
columns of S; here S comes from the eigendecomposition, which gives the
canonical (minimal) set. Kraus sets are never unique, so tests compare
channel action, not operator lists.
"""

from __future__ import annotations

import logging

import numpy as np

from .channel import Coupling, Dissipative, bloch_to_rho, classify, evolve, kraus_flip
from .linalg import IDENTITY_2, herm_eig, psd_factor

logger = logging.getLogger(__name__)

# Negative eigenvalue dust in this band is clipped with a warning; anything
# below it is rejected as genuinely non-PSD.
CHOI_DUST_WARN = -1e-12


def choi_of_channel(coupling: Coupling, t: float) -> np.ndarray:
    """Choi matrix of the single-qubit channel generated by ``coupling`` at time t."""
    image = lambda r0: bloch_to_rho(evolve(np.asarray(r0, float), coupling, t))
    c00 = image((0.0, 0.0, 1.0))
    c11 = image((0.0, 0.0, -1.0))
    cpx = image((1.0, 0.0, 0.0))
    cmx = image((-1.0, 0.0, 0.0))
    cpy = image((0.0, 1.0, 0.0))
    cmy = image((0.0, -1.0, 0.0))
    c01 = 0.5 * (cpx - cmx + 1j * cpy - 1j * cmy)
    c10 = 0.5 * (cpx - cmx - 1j * cpy + 1j * cmy)
    return np.block([[c00, c01], [c10, c11]])


def kraus_of_choi(choi) -> tuple[list[np.ndarray], np.ndarray]:
    """Kraus operators of a Choi matrix, and its descending spectrum.

    Columns of the PSD factor S (S S^dag = choi) are un-stacked into 2x2
    operators; the zero columns, of eigenvalues the PSD rule snapped to
    zero, are dropped. One eigendecomposition serves the dust warning, the
    factor and the returned spectrum. Raises NotPSD (via the factorization)
    when the matrix is not PSD beyond dust level.
    """
    values, vectors = herm_eig(choi)
    if values[-1] < CHOI_DUST_WARN:
        logger.warning(
            "clipping negative Choi eigenvalue %.3e to zero", float(values[-1])
        )
    s = psd_factor(values, vectors)
    operators = [s[:, i].reshape(2, 2, order="F") for i in range(s.shape[1])]
    # A column is sqrt(snapped eigenvalue) times a unit vector: zero exactly when the
    # PSD rule snapped it, else of max-abs >= sqrt(64 eps lam_max) / 2 ~ 4.2e-8, since
    # the trace 2 gives lam_max >= 1/2 and a unit 4-vector has an entry >= 1/2.
    return [k for k in operators if float(np.max(np.abs(k))) > 0.0], values


def kraus_of_coupling(coupling: Coupling, t: float) -> list[np.ndarray]:
    """Kraus set of the channel at time t.

    Flip couplings use the closed two-operator form directly; dissipative
    ones go through the Choi factorization.
    """
    cls = classify(coupling)
    if isinstance(cls, Dissipative):
        return kraus_of_choi(choi_of_channel(coupling, t))[0]
    return kraus_flip(cls.u_hat, coupling.gamma, t)


def completeness_residual(kraus: list[np.ndarray]) -> float:
    """max |sum_i K_i^dag K_i - 1|, zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - IDENTITY_2)))
