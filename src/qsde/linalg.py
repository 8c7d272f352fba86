"""Dense complex linear algebra for the 2x2 and 4x4 matrices used throughout.

Everything operates on plain numpy arrays. The matrices are tiny, so the
eigenproblems go straight to LAPACK via ``numpy.linalg.eigh`` and the
factorizations are thin wrappers around it.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, NotPSD

HERMITIAN_TOL = 1e-10
# Eigenvalues of a nominally PSD matrix below this bound are a hard error;
# anything in [PSD_ABORT_TOL, 0) is numerical dust and gets clipped to zero.
PSD_ABORT_TOL = -1e-8
# Relative spectral floor: eigenvalues below this fraction of the largest
# one are indistinguishable from the eigensolver's own noise, and square
# roots would amplify that noise from eps to sqrt(eps).
RELATIVE_SPECTRAL_ZERO = 64.0 * float(np.finfo(float).eps)

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dot_sigma(r) -> np.ndarray:
    """Return r . sigma for a real 3-vector r."""
    x, y, z = (float(c) for c in r)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with real eigenvalues sorted in descending
    order and the matching orthonormal eigenvectors as columns, so that
    ``m = vectors @ diag(values) @ vectors.conj().T``.

    Raises NotHermitian if ``max |m - m^dag|`` exceeds 1e-10.
    """
    m = _as_square(m)
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if deviation > HERMITIAN_TOL:
        raise NotHermitian(
            f"max |m - m^dag| = {deviation:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    values, vectors = np.linalg.eigh(m)
    return values[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])


def _clipped_psd_eig(m, relative_zero: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = herm_eig(m)
    smallest = float(values[-1])
    if smallest < PSD_ABORT_TOL:
        raise NotPSD(
            f"smallest eigenvalue {smallest:.3e} below {PSD_ABORT_TOL:.0e}"
        )
    values = np.clip(values, 0.0, None)
    if relative_zero > 0.0 and values[0] > 0.0:
        values[values < relative_zero * values[0]] = 0.0
    return values, vectors


def sqrt_psd(m, relative_zero: float = 0.0) -> np.ndarray:
    """Hermitian square root of a PSD matrix: result @ result == m.

    ``relative_zero`` additionally snaps eigenvalues below that fraction of
    the largest one to exact zero, keeping low-rank inputs exactly low rank.
    """
    values, vectors = _clipped_psd_eig(m, relative_zero)
    scaled = vectors * np.sqrt(values)
    return scaled @ vectors.conj().T


def psd_factor(m, relative_zero: float = 0.0) -> np.ndarray:
    """Factor a PSD matrix as S @ S^dag == m with S = V diag(sqrt(values)).

    Columns of S are ordered by descending eigenvalue, so a rank-r input
    yields exactly r nonzero columns. ``relative_zero`` as in sqrt_psd.
    """
    values, vectors = _clipped_psd_eig(m, relative_zero)
    return vectors * np.sqrt(values)


def vec(m) -> np.ndarray:
    """Vectorize a matrix by stacking its columns: [[a, c], [b, d]] -> (a, b, c, d)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F").copy()


def mat(v) -> np.ndarray:
    """Invert :func:`vec`: (a, b, c, d) -> [[a, c], [b, d]]."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F").copy()
