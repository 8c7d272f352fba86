"""Channel representations: 4x4 channel matrices (Choi form) and Kraus extraction.

The Choi matrix of a single-qubit channel C is assembled as

    choi = sum_{j,k} |j><k| (x) C(|j><k|),

where the operator-basis images follow from the closed-form Bloch dynamics
by linearity: the diagonal images from the +-z axial states, the
off-diagonal ones from combinations of the +-x and +-y images. Any
factorization S S^dag = choi yields Kraus operators by un-vectorizing the
columns of S; here S comes from the eigendecomposition, which gives the
canonical (minimal) set, returned as an (r, 2, 2) stack like every Kraus
set in the library. Kraus sets are never unique, so tests compare
channel action, not operator lists.
"""

from __future__ import annotations

import numpy as np

from .channel import Coupling, Dissipative, bloch_to_rho, classify, evolve, kraus_flip
from .linalg import IDENTITY_2, herm_eig, psd_factor


# The six axial Bloch states whose images span the operator basis, in the
# order choi_of_channel unpacks them.
_AXIAL_STATES = np.array(
    [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
)


def choi_of_channel(coupling: Coupling, t: float) -> np.ndarray:
    """Choi matrix of the single-qubit channel generated by ``coupling`` at time t.

    One evolve call maps the six axial states; each of their Bloch vectors
    is that of a separate evolve call bit for bit, because a dot with +-e_k
    is exact.
    """
    c00, c11, cpx, cmx, cpy, cmy = bloch_to_rho(evolve(_AXIAL_STATES, coupling, t))
    choi = np.empty((4, 4), dtype=complex)
    choi[:2, :2] = c00
    choi[:2, 2:] = 0.5 * (cpx - cmx + 1j * cpy - 1j * cmy)
    choi[2:, :2] = 0.5 * (cpx - cmx - 1j * cpy + 1j * cmy)
    choi[2:, 2:] = c11
    return choi


def kraus_of_choi(choi) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators of a Choi matrix as an (r, 2, 2) stack, and its descending spectrum.

    Columns of the PSD factor S (S S^dag = choi) are un-stacked into 2x2
    operators, K_i[a, b] = S[a + 2 b, i]; one mask drops the zero columns,
    of eigenvalues the PSD rule snapped to zero, so r is the rank the rule
    leaves. One eigendecomposition serves the factor and the returned
    spectrum. Raises NotPSD (via the factorization) when the matrix is not
    PSD beyond dust level; dust is clipped silently.
    """
    values, vectors = herm_eig(choi)
    s = psd_factor(values, vectors)
    # A column is sqrt(snapped eigenvalue) times a unit vector: zero exactly when the
    # PSD rule snapped it, else of max-abs >= sqrt(64 eps lam_max) / 2 ~ 4.2e-8, since
    # the trace 2 gives lam_max >= 1/2 and a unit 4-vector has an entry >= 1/2.
    kept = s[:, s.any(axis=0)]
    return kept.reshape(2, 2, -1).transpose(2, 1, 0), values


def kraus_of_coupling(coupling: Coupling, t: float) -> np.ndarray:
    """Kraus set of the channel at time t, as an (r, 2, 2) stack.

    Flip couplings use the closed two-operator form directly; dissipative
    ones go through the Choi factorization.
    """
    cls = classify(coupling)
    if isinstance(cls, Dissipative):
        return kraus_of_choi(choi_of_channel(coupling, t))[0]
    return kraus_flip(cls.u_hat, coupling.gamma, t)


def completeness_residual(kraus) -> float:
    """max |sum_i K_i^dag K_i - 1| over an (r, 2, 2) stack, zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - IDENTITY_2)))
