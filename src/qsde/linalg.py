"""Dense complex linear algebra for the 2x2 and 4x4 matrices used throughout.

Everything operates on plain numpy arrays. The matrices are tiny, so the
eigenproblems go straight to LAPACK via ``numpy.linalg.eigh`` and the
factorizations are thin wrappers around it.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSD

# Eigenvalues of a nominally PSD matrix below this bound are a hard error;
# anything in [PSD_ABORT_TOL, 0) is numerical dust and gets clipped to zero.
# Accepted input leaves dust above -3e-9: a state has at most three eigenvalues
# below 0, each above pair.STATE_EIGENVALUE_FLOOR, and neither a channel nor
# concurrence's similar matrix goes below their sum; a Choi matrix's dust is
# above -channel.NORMALIZATION_TOL / 2.
PSD_ABORT_TOL = -1e-8
# Relative spectral floor: eigenvalues below this fraction of the largest
# one are indistinguishable from the eigensolver's own noise, and square
# roots would amplify that noise from eps to sqrt(eps).
RELATIVE_SPECTRAL_ZERO = 64.0 * float(np.finfo(float).eps)

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


# The Pauli vector (sigma_x, sigma_y, sigma_z), one flattened matrix per row
_PAULI_ROWS = np.array([[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=complex)


def dot_sigma(r) -> np.ndarray:
    """Return r . sigma, exact, for a float 3-vector r or for each row of an (n, 3) float stack."""
    return (r @ _PAULI_ROWS).reshape(r.shape[:-1] + (2, 2))


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, which the caller guarantees.

    Returns ``(values, vectors)`` with real eigenvalues sorted in descending
    order and the matching orthonormal eigenvectors as columns, so that
    ``m = vectors @ diag(values) @ vectors.conj().T``.
    """
    values, vectors = np.linalg.eigh(m)
    return values[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])


def psd_spectrum(values) -> np.ndarray:
    """The PSD rule on a descending spectrum, as returned by herm_eig.

    Raises NotPSD below PSD_ABORT_TOL, clips the remaining negative dust to
    zero and snaps values below RELATIVE_SPECTRAL_ZERO times the largest to
    exact zero, so low-rank inputs stay exactly low rank.
    """
    smallest = float(values[-1])
    if smallest < PSD_ABORT_TOL:
        raise NotPSD(
            f"smallest eigenvalue {smallest:.3e} below {PSD_ABORT_TOL:.0e}"
        )
    values = np.clip(values, 0.0, None)
    if values[0] > 0.0:
        values[values < RELATIVE_SPECTRAL_ZERO * values[0]] = 0.0
    return values


def psd_factor(values, vectors) -> np.ndarray:
    """Factor S = V diag(sqrt(values)) of a PSD matrix from its herm_eig output.

    S @ S^dag reproduces the matrix under psd_spectrum's rule. Columns of S
    are ordered by descending eigenvalue, so a rank-r input yields exactly r
    nonzero columns.
    """
    return vectors * np.sqrt(psd_spectrum(values))
