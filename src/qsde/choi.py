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
from .linalg import IDENTITY_2, herm_eig, mat, psd_factor

logger = logging.getLogger(__name__)

CHOI_TOL = 1e-9
KRAUS_DROP_TOL = 1e-9
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


def partial_trace_second(m) -> np.ndarray:
    """Trace out the second tensor factor of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    return np.array(
        [
            [m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
            [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]],
        ]
    )


def _validate_choi(choi: np.ndarray) -> None:
    if choi.shape != (4, 4):
        raise ValueError(f"Choi matrix must be 4x4, got {choi.shape}")
    trace_err = abs(complex(np.trace(choi)) - 2.0)
    if trace_err > CHOI_TOL:
        raise ValueError(f"Choi trace deviates from 2 by {trace_err:.3e}")
    tp_err = float(np.max(np.abs(partial_trace_second(choi) - IDENTITY_2)))
    if tp_err > CHOI_TOL:
        raise ValueError(
            f"channel is not trace preserving: |tr_2 choi - 1| = {tp_err:.3e}"
        )


def kraus_of_choi(choi) -> list[np.ndarray]:
    """Extract Kraus operators from a Choi matrix.

    Columns of the PSD factor S (S S^dag = choi) are reshaped into 2x2
    operators; columns with max-norm below 1e-9 are dropped. One
    eigendecomposition serves the dust warning and the factor. Raises NotPSD
    (via the factorization) when the matrix is not PSD beyond dust level.
    """
    choi = np.asarray(choi, dtype=complex)
    _validate_choi(choi)
    values, vectors = herm_eig(choi)
    if values[-1] < CHOI_DUST_WARN:
        logger.warning(
            "clipping negative Choi eigenvalue %.3e to zero", float(values[-1])
        )
    s = psd_factor(values, vectors)
    operators = [mat(s[:, i]) for i in range(s.shape[1])]
    return [k for k in operators if float(np.max(np.abs(k))) >= KRAUS_DROP_TOL]


def kraus_of_coupling(coupling: Coupling, t: float) -> list[np.ndarray]:
    """Kraus set of the channel at time t.

    Flip couplings use the closed two-operator form directly; dissipative
    ones go through the Choi factorization.
    """
    cls = classify(coupling)
    if isinstance(cls, Dissipative):
        return kraus_of_choi(choi_of_channel(coupling, t))
    return kraus_flip(cls.u_hat, coupling.gamma, t)


def completeness_residual(kraus: list[np.ndarray]) -> float:
    """max |sum_i K_i^dag K_i - 1|, zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - IDENTITY_2)))
