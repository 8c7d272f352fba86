import numpy as np
import pytest

from qsde.errors import NotPSD
from qsde.linalg import (
    PSD_ABORT_TOL,
    RELATIVE_SPECTRAL_ZERO,
    dot_sigma,
    herm_eig,
    psd_factor,
    psd_spectrum,
)

from helpers import random_hermitian


def bisection_eigenvalues(h: np.ndarray, tol: float = 1e-11) -> list[float]:
    """Independent eigenvalue oracle: bisect the sign changes of det(h - x)."""
    d = h.shape[0]
    bound = float(np.max(np.abs(h))) * d + 1.0
    xs = np.linspace(-bound, bound, 4001)
    dets = np.array([np.linalg.det(h - x * np.eye(d)).real for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if dets[i] * dets[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            flo = dets[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = np.linalg.det(h - mid * np.eye(d)).real
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return sorted(roots, reverse=True)


def test_identity_eigensystem():
    vals, vecs = herm_eig(np.eye(4, dtype=complex))
    assert np.array_equal(vals, np.ones(4))
    assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-15)


def test_zz_eigenvalues_descending():
    sigma_z = dot_sigma(np.array([0.0, 0.0, 1.0]))
    vals, _ = herm_eig(np.kron(sigma_z, sigma_z))
    assert np.allclose(vals, [1.0, 1.0, -1.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_random_hermitian_matches_bisection_oracle(seed):
    h = random_hermitian(np.random.default_rng(seed))
    vals, vecs = herm_eig(h)
    oracle = bisection_eigenvalues(h)
    assert len(oracle) == 4
    assert np.max(np.abs(np.array(oracle) - vals)) <= 1e-9
    # decomposition residual and orthonormality
    assert np.max(np.abs(h @ vecs - vecs * vals)) <= 1e-10
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-10
    # eigenvalue sum equals the trace
    assert abs(vals.sum() - np.trace(h).real) <= 1e-10


def test_psd_factor_identity():
    s = psd_factor(*herm_eig(np.eye(4, dtype=complex)))
    assert np.allclose(s @ s.conj().T, np.eye(4), atol=1e-12)


def test_psd_factor_diagonal_column_norms():
    s = psd_factor(*herm_eig(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)))
    norms = np.sort(np.linalg.norm(s, axis=0) ** 2)[::-1]
    assert np.allclose(norms, [4.0, 1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_psd_factor_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = a @ a.conj().T
    s = psd_factor(*herm_eig(psd))
    assert np.max(np.abs(s @ s.conj().T - psd)) <= 1e-9


def test_psd_factor_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_factor(*herm_eig(np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex)))


def sqrt_psd(m) -> np.ndarray:
    """The Hermitian square root of a PSD matrix as pair.concurrence forms it: S V^dag from psd_factor."""
    values, vectors = herm_eig(m)
    return psd_factor(values, vectors) @ vectors.conj().T


def test_sqrt_psd_identity_and_diagonal():
    assert np.allclose(sqrt_psd(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12)
    root = sqrt_psd(np.diag([4.0, 9.0, 0.0, 1.0]).astype(complex))
    assert np.allclose(root, np.diag([2.0, 3.0, 0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_psd_squares_back(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = a @ a.conj().T
    root = sqrt_psd(psd)
    assert np.max(np.abs(root @ root - psd)) <= 1e-9
    assert np.max(np.abs(root - root.conj().T)) <= 1e-10


def test_psd_factor_of_identity_channel_matrix_is_rank_one():
    # the 4x4 matrix sum_{jk} |jj><kk| has spectrum (2, 0, 0, 0); its
    # factor carries a single meaningful column of squared norm 2
    m = np.zeros((4, 4), dtype=complex)
    for j in (0, 3):
        for k in (0, 3):
            m[j, k] = 1.0
    vals, _ = herm_eig(m)
    assert np.allclose(vals, [2.0, 0.0, 0.0, 0.0], atol=1e-12)
    s = psd_factor(*herm_eig(m))
    norms = np.linalg.norm(s, axis=0)
    assert abs(norms[0] ** 2 - 2.0) <= 1e-12
    assert np.all(norms[1:] <= 1e-7)


# ---------------------------------------------------------------------------
# The PSD rule at its boundaries


def test_sqrt_psd_keeps_a_value_just_above_the_relative_floor():
    small = 1.01 * RELATIVE_SPECTRAL_ZERO
    root = sqrt_psd(np.diag([1.0, 0.5, small, 0.0]).astype(complex))
    assert root[2, 2].real == pytest.approx(np.sqrt(small), rel=1e-12)


def test_sqrt_psd_zeroes_a_value_just_below_the_relative_floor():
    small = 0.99 * RELATIVE_SPECTRAL_ZERO
    root = sqrt_psd(np.diag([1.0, 0.5, small, 0.0]).astype(complex))
    assert root[2, 2] == 0.0


def test_relative_floor_scales_with_the_largest_value():
    # the same absolute value survives next to a smaller leading eigenvalue
    values = psd_spectrum(np.array([1.0, 0.99 * RELATIVE_SPECTRAL_ZERO]))
    assert values[1] == 0.0
    values = psd_spectrum(np.array([0.5, 0.99 * RELATIVE_SPECTRAL_ZERO]))
    assert values[1] == 0.99 * RELATIVE_SPECTRAL_ZERO


def test_value_just_above_the_abort_bound_is_clipped():
    for scale in (0.5, 0.99):
        root = sqrt_psd(np.diag([1.0, 0.5, 0.0, scale * PSD_ABORT_TOL]).astype(complex))
        assert root[3, 3] == 0.0
        assert np.array_equal(psd_spectrum(np.array([1.0, scale * PSD_ABORT_TOL])), [1.0, 0.0])


def test_value_just_below_the_abort_bound_raises():
    for scale in (1.01, 2.0):
        m = np.diag([1.0, 0.5, 0.0, scale * PSD_ABORT_TOL]).astype(complex)
        with pytest.raises(NotPSD, match="below -1e-08"):
            psd_spectrum(herm_eig(m)[0])
        with pytest.raises(NotPSD):
            psd_factor(*herm_eig(m))
