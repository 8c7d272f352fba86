import math

import mpmath
import numpy as np
import pytest

from qsde.channel import Dissipative, classify, family_appc, kraus_flip
from qsde.choi import kraus_of_choi
from qsde.pair import (
    concurrence,
    default_grid,
    evolve_pair,
    initial_state,
    lambda_at,
    lambda_trajectory,
    pt_min,
    state_at,
)
from qsde.errors import InvalidInput
from qsde.linalg import IDENTITY_2, dot_sigma

from helpers import (
    assert_same_bits,
    branch_cases,
    choi_six_evolves,
    pure_concurrence,
    random_coupling,
    random_hs_state,
    random_pure_pair,
    random_unitary2,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])

BELL_PHI_PLUS = initial_state("plus", 0.5)


def test_evolve_pair_identity_channels():
    rho = initial_state("plus", 0.3)
    out = evolve_pair(rho, [IDENTITY_2], [IDENTITY_2])
    assert np.allclose(out, rho, atol=1e-15)


def test_double_dephasing_scales_bell_coherence():
    # phase flips on both qubits multiply rho[0, 3] by e^{-8 gamma t}
    for t in (0.1, 0.5, 2.0):
        ks = kraus_flip(Z_AXIS, 1.0, t)
        out = evolve_pair(BELL_PHI_PLUS, ks, ks)
        assert abs(out[0, 3] - 0.5 * math.exp(-8.0 * t)) <= 1e-14
        assert abs(out[0, 0] - 0.5) <= 1e-14


def test_double_dissipative_reaches_product_state():
    from qsde.choi import kraus_of_coupling

    c1 = family_appc(-math.pi / 4)
    c2 = family_appc(1.9)
    t = 25.0
    out = evolve_pair(
        initial_state("plus", 0.7),
        kraus_of_coupling(c1, t),
        kraus_of_coupling(c2, t),
    )
    expected = np.kron(
        0.5 * IDENTITY_2 + dot_sigma(np.cross(c1.u, c1.v)),
        0.5 * IDENTITY_2 + dot_sigma(np.cross(c2.u, c2.v)),
    )
    assert np.max(np.abs(out - expected)) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_trajectory_preserves_density_invariants(seed):
    rng = np.random.default_rng(800 + seed)
    from qsde.choi import kraus_of_coupling

    c1, c2 = random_coupling(rng), random_coupling(rng)
    rho, _ = random_pure_pair(rng)
    for t in (0.0, 0.4, 1.5, 6.0):
        out = evolve_pair(rho, kraus_of_coupling(c1, t), kraus_of_coupling(c2, t))
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert float(np.linalg.eigvalsh(out)[0]) >= -1e-9


# ---------------------------------------------------------------------------
# Concurrence


def test_concurrence_bell_state():
    res = concurrence(BELL_PHI_PLUS)
    assert abs(res.concurrence - 1.0) <= 1e-12
    assert abs(res.lam - 1.0) <= 1e-12


def test_concurrence_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert concurrence(rho).concurrence == 0.0


def test_concurrence_maximally_mixed():
    res = concurrence(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(res.roots, 0.25, atol=1e-12)
    assert abs(res.lam + 0.5) <= 1e-12
    assert res.concurrence == 0.0


def test_concurrence_werner_state():
    rho = 0.9 * BELL_PHI_PLUS + 0.1 * np.eye(4) / 4.0
    assert abs(concurrence(rho).concurrence - 0.85) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_concurrence_matches_pure_state_oracle(seed):
    rng = np.random.default_rng(900 + seed)
    rho, psi = random_pure_pair(rng, min_concurrence=0.0)
    assert abs(concurrence(rho).concurrence - pure_concurrence(psi)) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_concurrence_local_unitary_invariance(seed):
    rng = np.random.default_rng(1000 + seed)
    rho, _ = random_pure_pair(rng)
    rho = 0.8 * rho + 0.2 * np.eye(4) / 4.0
    big = np.kron(random_unitary2(rng), random_unitary2(rng))
    rotated = big @ rho @ big.conj().T
    assert abs(concurrence(rotated).lam - concurrence(rho).lam) <= 1e-10


def test_pure_product_state_has_nonpositive_lam():
    # for product states the whole spin-flip matrix is zero, so the roots
    # are pure eigensolver noise of order sqrt(eps * matmul error) ~ 1e-8
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert concurrence(np.outer(psi, psi.conj())).lam <= 1e-7


# ---------------------------------------------------------------------------
# Initial states


def test_initial_state_bell_point():
    assert abs(concurrence(initial_state("plus", 0.5)).concurrence - 1.0) <= 1e-12


def test_initial_state_partially_entangled():
    # 2 alpha beta = 2 sqrt(0.8 * 0.2) = 0.8, cross-checked by the pure oracle
    rho = initial_state("plus", 0.8)
    psi = np.array([math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)])
    assert abs(pure_concurrence(psi) - 0.8) <= 1e-15
    assert abs(concurrence(rho).concurrence - 0.8) <= 1e-12


def test_initial_state_product_limits():
    assert concurrence(initial_state("minus", 0.0)).concurrence == 0.0
    assert concurrence(initial_state("plus", 1.0)).concurrence == 0.0


def test_initial_state_rejects_bad_weight():
    with pytest.raises(InvalidInput, match=r"^alpha_sq: 1\.2 outside \[0, 1\]$"):
        initial_state("plus", 1.2)
    with pytest.raises(InvalidInput):
        initial_state("psi", 0.5)


# ---------------------------------------------------------------------------
# Partial-transpose minimum


def _pt_min_50_digits(rho) -> float:
    # partial transpose on qubit 2 by indices: <i j| PT |k l> = <i l| rho |k j>
    pt = mpmath.matrix(4, 4)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        pt[2 * i + j, 2 * k + l] = mpmath.mpc(complex(rho[2 * i + l, 2 * k + j]))
    with mpmath.workdps(50):
        return float(min(mpmath.eighe(pt, eigvals_only=True)))


@pytest.mark.parametrize("seed", range(20))
def test_pt_min_matches_a_50_digit_eigensolver(seed):
    rho = random_hs_state(np.random.default_rng(1600 + seed), rank=1 + seed % 4)
    assert abs(pt_min(rho) - _pt_min_50_digits(rho)) <= 4.0 * np.finfo(float).eps


def test_pt_min_of_named_states():
    assert abs(pt_min(BELL_PHI_PLUS) + 0.5) <= 1e-15
    assert pt_min(np.eye(4, dtype=complex) / 4.0) == 0.25
    assert pt_min(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)) == 0.0


# ---------------------------------------------------------------------------
# Trajectories


def test_trajectory_separable_state_never_entangles():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    c = family_appc(-math.pi / 4)
    for _, lam, conc in lambda_trajectory(rho, c, c, np.linspace(0.0, 4.0, 40)):
        assert conc == 0.0
        assert lam <= 1e-12


def test_trajectory_plus_08_crosses_zero():
    c = family_appc(-math.pi / 4)
    rows = lambda_trajectory(initial_state("plus", 0.8), c, c, default_grid())
    lams = np.array([r[1] for r in rows])
    assert lams[0] > 0.0
    assert lams.min() < -1e-3


def test_trajectory_minus_02_and_08_identical():
    c = family_appc(-math.pi / 4)
    grid = np.linspace(0.0, 6.0, 61)
    a = lambda_trajectory(initial_state("minus", 0.2), c, c, grid)
    b = lambda_trajectory(initial_state("minus", 0.8), c, c, grid)
    diff = max(abs(x[1] - y[1]) for x, y in zip(a, b))
    assert diff <= 1e-10


def test_shared_coupling_object_matches_two_equal_couplings():
    # one Coupling on both qubits reuses its Kraus set; the numbers must not change
    rho = initial_state("plus", 0.8)
    a, b = family_appc(-0.6), family_appc(-0.6)
    for t in (0.0, 0.1, 0.7, 3.0):
        assert lambda_at(rho, a, a, t) == lambda_at(rho, a, b, t)


def test_trajectory_first_record_is_initial_concurrence():
    rho = initial_state("plus", 0.7)
    c = family_appc(-math.pi / 5)
    rows = lambda_trajectory(rho, c, c, np.linspace(0.0, 1.0, 5))
    assert abs(rows[0][1] - concurrence(rho).lam) <= 1e-12
    assert rows[0][0] == 0.0


def test_trajectory_grid_validation():
    rho = initial_state("plus", 0.5)
    c = family_appc(-math.pi / 4)
    with pytest.raises(InvalidInput):
        lambda_trajectory(rho, c, c, np.array([]))
    with pytest.raises(InvalidInput):
        lambda_trajectory(rho, c, c, np.array([0.5, 1.0]))
    with pytest.raises(InvalidInput):
        lambda_trajectory(rho, c, c, np.array([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("seed", range(5))
def test_concurrence_monotone_under_markovian_noise(seed):
    rng = np.random.default_rng(1100 + seed)
    c1, c2 = random_coupling(rng), random_coupling(rng)
    rho, _ = random_pure_pair(rng)
    rows = lambda_trajectory(rho, c1, c2, np.linspace(0.0, 5.0, 80))
    conc = np.array([r[2] for r in rows])
    assert np.all(np.diff(conc) <= 1e-9)


def test_default_grid_shape():
    grid = default_grid()
    assert grid.shape == (400,)
    assert grid[0] == 0.0
    assert abs(grid[-1] - 10.0) <= 1e-12
    assert abs(default_grid(gamma=2.0)[-1] - 5.0) <= 1e-12


def _reference_kraus(c, t):
    # the Kraus set from the reference Choi assembly, or the flip pair
    cls = classify(c)
    if isinstance(cls, Dissipative):
        return kraus_of_choi(choi_six_evolves(c, t))[0]
    return kraus_flip(cls.u_hat, c.gamma, t)


@pytest.mark.parametrize("name, c1, c2, t", branch_cases(), ids=[case[0] for case in branch_cases()])
def test_state_at_is_the_six_evolve_pipeline_bit_for_bit(name, c1, c2, t):
    # the pair state from the stacked Choi assembly, against the same
    # evolution of the Kraus sets of the reference assembly
    rho0 = random_hs_state(np.random.default_rng(2600))
    expected = evolve_pair(rho0, _reference_kraus(c1, t), _reference_kraus(c2, t))
    assert_same_bits(state_at(rho0, c1, c2, t), expected)
