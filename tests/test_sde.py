import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qsde.channel import AD_TOL, FLIP_TOL, Coupling, Flip, classify, evolve, family_appc
from qsde.pair import concurrence, default_grid, initial_state, lambda_at, pt_det, pt_min, state_at
from qsde.sde import (
    CROSSING_FLOOR,
    TAU_TOL,
    detect_tau,
    predict_dissipative,
    predict_flip,
    sde_check,
)
from qsde.errors import GridTooCoarse, InvalidInput, NotEntangled
from qsde.linalg import RELATIVE_SPECTRAL_ZERO, dot_sigma

from helpers import (
    PairOracle,
    appc_x_state_tau,
    axis_frame,
    load_perfbench,
    oracle_rk4,
    random_bloch,
    random_coupling,
    random_coupling_at_w,
    random_dissipative_coupling,
    random_flip_coupling,
    random_hs_state,
    random_pure_pair,
    random_unit,
    random_unitary2,
)

inputs = load_perfbench("inputs")
oracles = load_perfbench("oracles")

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SIGMA_Z = dot_sigma(Z)

LN2_OVER_4 = 0.17328679513998632
BELL = initial_state("plus", 0.5)


def flip_coupling(axis) -> Coupling:
    return Coupling(u=np.asarray(axis, float), v=np.zeros(3))


# ---------------------------------------------------------------------------
# The flip-axis frame that builds the zero-weight test states


@pytest.mark.parametrize(
    "axis",
    [
        X,
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, -1.0]),
        np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    ],
)
def test_rotation_property_named_axes(axis):
    u = axis_frame(axis)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
    assert np.max(np.abs(u @ SIGMA_Z @ u.conj().T - dot_sigma(axis))) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_rotation_property_random_axes(seed):
    axis = random_unit(np.random.default_rng(1200 + seed))
    u = axis_frame(axis)
    assert np.max(np.abs(u @ SIGMA_Z @ u.conj().T - dot_sigma(axis))) <= 1e-10


# ---------------------------------------------------------------------------
# Flip criterion


def test_flip_criterion_bell_under_double_dephasing_no_sde():
    verdict = predict_flip(initial_state("plus", 0.5), Z, Z)
    assert verdict.predicted == "no"
    assert verdict.lambda_inf == 0.0
    assert verdict.method == "flip-criterion"


def test_flip_criterion_werner_state_yes():
    rho = 0.9 * initial_state("plus", 0.5) + 0.1 * np.eye(4) / 4.0
    verdict = predict_flip(rho, Z, Z)
    assert verdict.predicted == "yes"
    # rotated diagonal is (0.475, 0.025, 0.025, 0.475):
    # lam_inf = -2 sqrt(min(0.475^2, 0.025^2)) = -0.05
    assert abs(verdict.lambda_inf + 0.05) <= 1e-12
    # and the closed form matches the long-time trajectory
    c = flip_coupling(Z)
    assert abs(verdict.lambda_inf - lambda_at(rho, c, c, 20.0)) <= 1e-6


def test_flip_criterion_mismatched_axes_from_rotated_diagonal():
    # Bell state with axes x and z: every flip-axis weight is 1/4, so sudden
    # death must occur with lam_inf = -2 sqrt(1/16); cross-check numerically
    rho = initial_state("plus", 0.5)
    verdict = sde_check(rho, flip_coupling(X), flip_coupling(Z), np.linspace(0, 10, 201))
    assert verdict.predicted == "yes"
    assert abs(verdict.lambda_inf + 0.5) <= 1e-15
    assert verdict.tau is not None
    assert abs(lambda_at(rho, flip_coupling(X), flip_coupling(Z), verdict.tau)) <= 1e-6


@pytest.mark.parametrize(
    "theta, predicted, lambda_inf",
    [(2e-6, "yes", None), (1e-6, "no", -1.000044450290879e-12)],
)
def test_flip_criterion_zero_weight_boundary(theta, predicted, lambda_inf):
    # minus:0.5 with both axes tilted from z by theta has d++ = d-- =
    # sin(theta)^2 / 2: 2e-12 and 5e-13 here, either side of ZERO_DIAGONAL_TOL
    axis = np.array([math.sin(theta), 0.0, math.cos(theta)])
    verdict = predict_flip(initial_state("minus", 0.5), axis, axis)
    assert verdict.predicted == predicted
    if lambda_inf is not None:
        assert abs(verdict.lambda_inf - lambda_inf) <= 1e-15


def test_flip_criterion_rejects_separable_state(monkeypatch):
    # The flip criterion takes an entangled rho0 on trust; sde_check must
    # reject a product state before predict_flip ever sees it.
    import qsde.sde

    def unreachable(*args):
        raise AssertionError("predict_flip reached with a separable state")

    monkeypatch.setattr(qsde.sde, "predict_flip", unreachable)
    with pytest.raises(NotEntangled):
        sde_check(np.diag([1.0, 0, 0, 0]).astype(complex), flip_coupling(Z), flip_coupling(Z))


@pytest.mark.parametrize("seed", range(12))
def test_flip_criterion_matches_numerics(seed):
    # random axes; even seeds use generic entangled states (verdict yes),
    # odd seeds use states with an exact zero flip-axis weight
    rng = np.random.default_rng(1300 + seed)
    a1, a2 = random_unit(rng), random_unit(rng)
    if seed % 2 == 0:
        rho, _ = random_pure_pair(rng, min_concurrence=0.2)
    else:
        canonical = initial_state("plus", 0.3 + 0.4 * rng.random())
        big = np.kron(axis_frame(a1), axis_frame(a2))
        rho = big @ canonical @ big.conj().T
    c1, c2 = flip_coupling(a1), flip_coupling(a2)
    verdict = sde_check(rho, c1, c2, np.linspace(0.0, 12.0, 241))
    assert verdict.method == "flip-criterion"
    assert verdict.predicted == ("yes" if seed % 2 == 0 else "no")
    assert (verdict.tau is not None) == (verdict.predicted == "yes")
    assert abs(verdict.lambda_inf - lambda_at(rho, c1, c2, 20.0)) <= 1e-6


# ---------------------------------------------------------------------------
# Dissipative criterion


def test_dissipative_criterion_amplitude_damping_not_covered():
    c = family_appc(-math.pi / 4)
    verdict = predict_dissipative(BELL, c, c)
    assert verdict.predicted == "not-covered"
    assert verdict.lambda_inf == 0.0
    assert verdict.method == "dissipative-criterion"


def test_dissipative_criterion_off_damping_angle_yes():
    c = family_appc(-math.pi / 5)
    verdict = predict_dissipative(BELL, c, c)
    assert verdict.predicted == "yes"
    # lam_inf = -cos^2(2 pi / 5) / 2
    assert abs(verdict.lambda_inf - (-0.04774575140626315)) <= 1e-12


def test_dissipative_criterion_small_w_limit():
    c = family_appc(1e-4)
    verdict = predict_dissipative(BELL, c, c)
    assert verdict.predicted == "yes"
    assert abs(verdict.lambda_inf + 0.5) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_dissipative_criterion_sufficiency(seed):
    # whenever the criterion answers yes, every entangled initial state
    # must actually cross zero at a finite time
    rng = np.random.default_rng(1500 + seed)
    c1 = random_dissipative_coupling(rng, min_w=0.3)
    c2 = random_dissipative_coupling(rng, min_w=0.3)
    rho, _ = random_pure_pair(rng, min_concurrence=0.15)
    verdict = sde_check(rho, c1, c2, np.linspace(0.0, 10.0, 201))
    assert (verdict.predicted, verdict.method) == ("yes", "dissipative-criterion")
    assert verdict.tau is not None
    assert abs(lambda_at(rho, c1, c2, verdict.tau)) <= 1e-6


# ---------------------------------------------------------------------------
# Crossing detection


def _diagonal(*entries) -> np.ndarray:
    """A diagonal matrix is its own partial transpose: pt_min reads its smallest entry, pt_det their product."""
    return np.diag(np.array(entries, dtype=complex))


def test_detect_tau_none_for_double_dephasing_bell():
    rho = initial_state("plus", 0.5)
    c = flip_coupling(Z)
    assert detect_tau(np.linspace(0.0, 10.0, 101), lambda t: state_at(rho, c, c, t), lambda_inf=0.0) is None


@pytest.mark.parametrize("cut", [False, True], ids=["whole-scan", "cut-after-first-witness"])
def test_detect_tau_amplitude_damping_matches_closed_form(cut):
    # plus state with alpha^2 = 0.8 under double amplitude damping crosses
    # at t = ln(2) / 4; a state that turns maximally mixed, so separable,
    # past the first witness gives the same tau, bit for bit: nothing the
    # scan reads past its first witness moves tau
    rho = initial_state("plus", 0.8)
    c = family_appc(-math.pi / 4)
    grid = np.linspace(0.0, 10.0, 401)

    def state_of_t(t):
        return state_at(rho, c, c, t)

    whole = detect_tau(grid, state_of_t, lambda_inf=0.0)
    if cut:
        witness = next(t for t in grid if pt_min(state_of_t(t)) >= RELATIVE_SPECTRAL_ZERO)
        assert grid[1] < witness < grid[-1]
    else:
        witness = grid[-1]
    mixed = np.eye(4, dtype=complex) / 4.0
    tau = detect_tau(grid, lambda t: state_of_t(t) if t <= witness else mixed, lambda_inf=0.0)
    assert tau is not None
    assert tau.hex() == whole.hex()
    assert abs(tau - LN2_OVER_4) <= 1e-6
    assert abs(lambda_at(rho, c, c, tau)) <= 1e-6


def test_sde_check_tau_on_a_flat_amplitude_damping_crossing():
    # alpha_sq just above 1/2 makes mu pass through 0 at ~4e-9 per unit time,
    # so a bisection on mu >= RELATIVE_SPECTRAL_ZERO landed 3.9e-6 late
    c = family_appc(-math.pi / 4, gamma=1.478)
    inp = {"u1": c.u, "v1": c.v, "u2": c.u, "v2": c.v, "gamma": c.gamma, "state": {"alpha_sq": 0.50002}}
    verdict = sde_check(initial_state("plus", 0.50002), c, c)
    assert verdict.predicted == "not-covered"
    assert abs(verdict.tau - oracles.ad_closed_form_tau(inp)) <= oracles.TAU_CLOSED_FORM_TOL


# theta within 1e-6 to 1e-1 of the amplitude-damping angle -pi/4, or anywhere in [-pi/2, pi/2]
NEAR_AD_ANGLE = st.builds(lambda sign, power: -math.pi / 4 + sign * 10.0**power,
                          st.sampled_from((-1.0, 1.0)), st.floats(-6.0, -1.0))
APPC_ANGLE = NEAR_AD_ANGLE | st.floats(-math.pi / 2, math.pi / 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(theta1=-math.pi / 4, theta2=None, kind="plus", alpha_sq=0.50002, gamma=1.478)
@given(theta1=APPC_ANGLE, theta2=st.none() | APPC_ANGLE, kind=st.sampled_from(("plus", "minus")),
       alpha_sq=st.floats(0.05, 0.95), gamma=st.floats(0.5, 2.0))
def test_sde_check_tau_matches_the_x_state_oracle(theta1, theta2, kind, alpha_sq, gamma):
    # two appc couplings keep a plus or minus state in X form, where the
    # death time has a closed-form test (helpers.appc_x_state_tau); theta2
    # None draws the same coupling twice
    theta2 = theta1 if theta2 is None else theta2
    want = appc_x_state_tau(theta1, theta2, kind, alpha_sq, gamma, float(default_grid(gamma)[-1]))
    try:
        verdict = sde_check(initial_state(kind, alpha_sq), family_appc(theta1, gamma), family_appc(theta2, gamma))
    except GridTooCoarse:
        assert want is None
        return
    if verdict.tau is not None:
        assert want is not None
        assert abs(verdict.tau - want) <= oracles.TAU_CLOSED_FORM_TOL
    elif want is not None:
        # a crossing on the grid may go unreported only where mu can stay under the witness floor
        assert verdict.lambda_inf >= -CROSSING_FLOOR


def _frontier_miss(found: str):
    return pytest.mark.xfail(strict=True, reason=f"the lab-frame state cancels near the AD surface: {found}")


# appc(-pi/4 - delta) on both qubits, gamma 1, plus:alpha_sq. lambda_inf is
# about -2 delta^2, under CROSSING_FLOOR from delta 1e-4 on, hits included:
# what fails is a crossing as flat as alpha_sq near 1/2 makes it
@pytest.mark.parametrize("alpha_sq, delta", [
    (0.5, 1e-3),
    (0.5, 1e-4),
    # lambda_inf = -2e-10 and mu rises through 0 at ~9e-10 per unit time, so
    # eps-sized errors in the state move the crossing by ~1e-7; a pt_det
    # bisection on perfbench/oracles.py's transfer-matrix state lands 3.8e-8 early
    pytest.param(0.5, 1e-5, marks=_frontier_miss("tau 6.0e-8 before the oracle's 2.7918119578")),
    pytest.param(0.5, 1e-6, marks=_frontier_miss("tau 1.0e-5 after the oracle's 3.3672666656")),
    pytest.param(0.5, 1e-7, marks=_frontier_miss("no tau, though the oracle crosses at 3.9428849479")),
    (0.5002, 1e-5),
    (0.5002, 1e-6),
    pytest.param(0.5002, 1e-7, marks=_frontier_miss("tau 3.0e-8 after the oracle's 1.9560614573")),
])
def test_sde_check_tau_on_the_amplitude_damping_approach(alpha_sq, delta):
    # a tau is within 2e-9 of the X-state oracle's, and one is reported
    # whenever the oracle's crossing lies on the grid
    theta = -math.pi / 4 - delta
    c = family_appc(theta)
    tau = sde_check(initial_state("plus", alpha_sq), c, c).tau
    want = appc_x_state_tau(theta, theta, "plus", alpha_sq, 1.0, float(default_grid()[-1]))
    assert (tau is None) == (want is None)
    if tau is not None:
        assert abs(tau - want) <= oracles.TAU_CLOSED_FORM_TOL


def _hilbert_schmidt_draw(rng: np.random.Generator, pairing: str, surface: str | None):
    """An entangled Hilbert-Schmidt state of rank 1-4 and two couplings, of rates in [0.5, 2], for pairing.

    A dissipative coupling is generic (|w| > 1e-2, surface None) or lies 1e-6
    to 1e-2 off the "flip" or the "ad" (amplitude-damping) surface: the first
    one as surface says, a second one as rng picks.
    """
    while True:
        rho0 = random_hs_state(rng, rank=int(rng.integers(1, 5)))
        if pt_min(rho0) < -1e-3:
            break
    couplings = []
    for side, gamma in enumerate(rng.uniform(0.5, 2.0, size=2)):
        if pairing == "flip/flip" or (pairing == "mixed" and side == 0):
            couplings.append(random_flip_coupling(rng, gamma))
            continue
        near = surface if side == 0 or pairing == "mixed" else (None, "flip", "ad")[int(rng.integers(3))]
        distance = 10.0 ** rng.uniform(-6.0, -2.0)
        couplings.append(random_dissipative_coupling(rng, gamma) if near is None
                         else random_coupling_at_w(rng, distance if near == "flip" else 0.5 - distance, gamma))
    if pairing == "mixed" and rng.random() < 0.5:
        couplings.reverse()
    return rho0, *couplings


@pytest.mark.parametrize("pairing", ["flip/flip", "diss/diss", "mixed"])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), surface=st.sampled_from((None, "flip", "ad")))
def test_sde_check_matches_the_pair_oracle_on_hilbert_schmidt_states(pairing, seed, surface):
    # the oracle bisects within the library's own grid cell, which it checks
    # brackets a crossing; with no tau it checks the pair is still entangled
    # at the grid's end, unless lambda_inf lets mu stay under the witness floor
    rho0, c1, c2 = _hilbert_schmidt_draw(np.random.default_rng(seed), pairing, surface)
    grid = default_grid(min(c1.gamma, c2.gamma))
    try:
        verdict = sde_check(rho0, c1, c2)
    except GridTooCoarse:
        assert PairOracle(rho0, c1, c2, grid[-1]).tau(0.0, grid[-1]) is None
        return
    if verdict.tau is None:
        oracle = PairOracle(rho0, c1, c2, grid[-1])
        assert oracle.tau(0.0, grid[-1]) is None or verdict.lambda_inf >= -CROSSING_FLOOR
    else:
        k = int(np.searchsorted(grid, verdict.tau))
        oracle = PairOracle(rho0, c1, c2, grid[k])
        want = oracle.tau(grid[k - 1], grid[k])
        assert want is not None
        assert abs(verdict.tau - want) <= oracles.TAU_CLOSED_FORM_TOL
    assert abs(verdict.lambda_inf - oracle.lambda_inf()) <= oracles.LAMBDA_INF_TOL


def _so3(unitary: np.ndarray) -> np.ndarray:
    """R with U (r . sigma) U^dag = (R r) . sigma: R[a, b] = tr(sigma_a U sigma_b U^dag) / 2."""
    paulis = dot_sigma(np.eye(3))
    return np.einsum("aij,jk,bkl,il->ab", paulis, unitary, paulis, unitary.conj()).real / 2.0


def _swapped(rho0, c1, c2, rng):
    swap = np.eye(4)[[0, 2, 1, 3]]
    return swap @ rho0 @ swap, c2, c1, 1.0


def _rotated(rho0, c1, c2, rng):
    # L = (u + i v) . sigma goes to U L U^dag = (R u + i R v) . sigma
    u1, u2 = random_unitary2(rng), random_unitary2(rng)
    big = np.kron(u1, u2)
    r1, r2 = _so3(u1), _so3(u2)
    return (big @ rho0 @ big.conj().T, Coupling(r1 @ c1.u, r1 @ c1.v, c1.gamma),
            Coupling(r2 @ c2.u, r2 @ c2.v, c2.gamma), 1.0)


def _gauged(rho0, c1, c2, rng):
    # L -> e^{i phi} L leaves the dissipator L rho L^dag - {L^dag L, rho} / 2 unchanged
    def phase(c, phi):
        return Coupling(math.cos(phi) * c.u - math.sin(phi) * c.v, math.sin(phi) * c.u + math.cos(phi) * c.v, c.gamma)
    return rho0, phase(c1, 2.0 * math.pi * rng.random()), phase(c2, 2.0 * math.pi * rng.random()), 1.0


def _rescaled(rho0, c1, c2, rng):
    # both rates times k run the same dynamics k times as fast, on a grid k times as short
    k = 10.0 ** rng.uniform(-1.0, 1.0)
    return rho0, Coupling(c1.u, c1.v, k * c1.gamma), Coupling(c2.u, c2.v, k * c2.gamma), k


# (pairing, surface) of _hilbert_schmidt_draw, one draw each
COVARIANCE_DRAWS = [
    ("flip/flip", None), ("diss/diss", None), ("diss/diss", "flip"), ("diss/diss", "ad"),
    ("mixed", None), ("mixed", "flip"), ("mixed", "ad"), ("diss/diss", "ad"),
]


@pytest.mark.parametrize("relation", [_swapped, _rotated, _gauged, _rescaled], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("index", range(len(COVARIANCE_DRAWS)))
def test_sde_check_is_covariant(index, relation):
    # a frame the library builds wrongly breaks one of these before any closed form notices
    rng = np.random.default_rng(4100 + index)
    rho0, c1, c2 = _hilbert_schmidt_draw(rng, *COVARIANCE_DRAWS[index])
    rho, d1, d2, k = relation(rho0, c1, c2, rng)
    want, got = sde_check(rho0, c1, c2), sde_check(rho, d1, d2)
    assert (got.predicted, got.method) == (want.predicted, want.method)
    assert (got.tau is None) == (want.tau is None)
    if want.tau is not None:
        assert abs(got.tau - want.tau / k) <= oracles.TAU_CLOSED_FORM_TOL
    assert abs(got.lambda_inf - want.lambda_inf) <= oracles.LAMBDA_INF_TOL


def test_pair_oracle_scales_its_digits_with_the_horizon():
    # the X-state oracle misses this crossing from a horizon of 40, and the
    # double-flip Bell state never dies: its determinant is -7e-280 there
    c = family_appc(-math.pi / 4)
    oracle = PairOracle(initial_state("plus", 0.7), c, c, 40.0)
    assert appc_x_state_tau(-math.pi / 4, -math.pi / 4, "plus", 0.7, 1.0, 40.0) is None
    assert abs(oracle.tau(0.0, 40.0) - appc_x_state_tau(-math.pi / 4, -math.pi / 4, "plus", 0.7, 1.0, 10.0)) <= 1e-12
    z = flip_coupling(Z)
    assert PairOracle(BELL, z, z, 40.0).tau(0.0, 40.0) is None
    verdict = sde_check(BELL, z, z)
    assert (verdict.predicted, verdict.tau) == ("no", None)
    assert abs(verdict.lambda_inf - PairOracle(BELL, z, z, 10.0).lambda_inf()) <= oracles.LAMBDA_INF_TOL


def test_detect_tau_none_below_threshold_weight():
    rho = initial_state("plus", 0.2)
    c = family_appc(-math.pi / 4)
    assert detect_tau(np.linspace(0.0, 10.0, 401), lambda t: state_at(rho, c, c, t), lambda_inf=0.0) is None


def test_detect_tau_bisects_across_a_wide_grid_gap():
    # one crossing and no revival: a bracket of any width is bisected on the
    # sign of pt_det. The entry k (t - root)^3 runs from -0.8 to 1.6e-3 on the
    # grid but stays under the witness floor for 1.2e-4 past the root, so a
    # bisection on pt_min would land that late
    root = 0.8 / 0.18
    k = 0.8 / root**3
    tau = detect_tau([0.0, 5.0], lambda t: _diagonal(k * (t - root) ** 3, 1.0, 1.0, 1.0))
    assert abs(tau - root) <= TAU_TOL


def test_detect_tau_crossing_beyond_grid_raises():
    # mu = 0.4 t - 1 has no witness on [0, 1]; only a limit below -CROSSING_FLOOR guarantees one
    grid = [0.0, 0.5, 1.0]

    def state_of_t(t):
        return _diagonal(0.4 * t - 1.0, 1.0, 1.0, 1.0)

    with pytest.raises(GridTooCoarse, match="lambda_inf = -5.000e-01 guarantees"):
        detect_tau(grid, state_of_t, lambda_inf=-0.5)
    for lambda_inf in (-CROSSING_FLOOR, 0.0, None):
        assert detect_tau(grid, state_of_t, lambda_inf=lambda_inf) is None


@pytest.mark.parametrize("end", [1e3, 1e5])
def test_sde_check_near_amplitude_damping_raises_no_grid_too_coarse(end):
    # theta = -pi/4 + 1e-4: lambda_inf = -2.0e-8 lies above -CROSSING_FLOOR, and mu
    # tends to ~lambda_inf**2 / 4 = 1e-16, under the witness floor, so no grid
    # holds a witness; under a floor of 1e-9 every grid raised GridTooCoarse
    c = family_appc(-0.7852981633974483)
    verdict = sde_check(initial_state("plus", 0.4), c, c, np.linspace(0.0, end, 401))
    assert (verdict.predicted, verdict.tau) == ("yes", None)
    assert -CROSSING_FLOOR < verdict.lambda_inf < -1e-9


def test_detect_tau_requires_entangled_start():
    # -1e-14 lies inside the band of +-RELATIVE_SPECTRAL_ZERO, so it is no
    # proof of entanglement, nor is the band's edge itself
    for mu0, text in ((0.2, "2.000e-01"), (-1e-14, "-1.000e-14"), (-RELATIVE_SPECTRAL_ZERO, "-1.421e-14")):
        with pytest.raises(NotEntangled, match=rf"not entangled on the scan: mu\(0\) = {text}$"):
            detect_tau([0.0, 1.0], lambda t: _diagonal(mu0, 1.0, 1.0, 1.0))


def test_detect_tau_brackets_the_first_witness_with_the_point_before():
    # 5e-15 is positive but under the floor, and -1e-300 inside the floor's
    # band, so the first witness is t = 0.5; the determinant is negative at
    # 0.4, so the bracket is [0.4, 0.5]. Off the grid the entry is t - 0.45
    times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    on_grid = dict(zip(times, [-0.5, -0.3, -0.2, 5e-15, -1e-300, 0.2]))
    calls = []

    def state_of_t(t):
        calls.append(t)
        return _diagonal(on_grid.get(t, t - 0.45), 1.0, 1.0, 1.0)

    assert abs(detect_tau(times, state_of_t) - 0.45) <= TAU_TOL
    # the scan reads every grid point once, then the point before the witness, then the first mid
    assert calls[:8] == times + [0.4, 0.5 * (0.4 + 0.5)]


def test_detect_tau_steps_the_bracket_back_to_a_negative_determinant():
    # the entry 4e-11 (t - 0.25)^3 reads 5e-15 at 0.3, under the floor, and
    # 1.35e-13 at 0.4, the first witness; the determinant is already >= 0 at
    # 0.3, so the crossing at 0.25 lies before it
    times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert abs(detect_tau(times, lambda t: _diagonal(4e-11 * (t - 0.25) ** 3, 1.0, 1.0, 1.0)) - 0.25) <= TAU_TOL


def _oracle_pt_det(rho0, c1, c2, t):
    """det of the qubit-2 partial transpose of the oracle's state at t, from its transfer matrices."""
    r = oracles.transfer(c1.u, c1.v, c1.gamma, t) @ oracles.correlations(rho0) @ oracles.transfer(
        c2.u, c2.v, c2.gamma, t).T
    state = oracles.state_of(r)
    return float(np.linalg.det(state.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)).real)


@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 60.0, 361)], ids=["default", "60-over-gamma"])
def test_sde_check_tau_when_the_point_before_the_witness_is_past_the_crossing(grid):
    # the 1e-9 and 1e-12 populations make det(rho^Gamma) cross zero while mu
    # is still under the floor: a bracket from the point before the first
    # witness lay wholly past the crossing, and tau came back as that grid
    # point, 2.5313283 on the default grid and 2.5 on this one
    p = (1.0 - 1e-9 - 1e-12) / 2.0
    rho = np.diag([p, 1e-9, 1e-12, p]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.45
    c1, c2 = family_appc(-math.pi / 4), flip_coupling(Z)
    lo, hi = 2.0, 3.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _oracle_pt_det(rho, c1, c2, mid) >= 0.0 else (mid, hi)
    tau = sde_check(rho, c1, c2, grid).tau
    assert pt_det(state_at(rho, c1, c2, tau - 2.0 * TAU_TOL)) < 0.0
    # the crossing is conditioned to ~3e-5 in t here
    assert abs(tau - lo) <= 1e-4


def test_detect_tau_ends_where_adjacent_doubles_lie_more_than_tau_tol_apart():
    # near 4.3e7 adjacent doubles are 7.5e-9 apart, so hi - lo never reaches TAU_TOL
    root = 4.3e7 + 0.3
    tau = detect_tau([0.0, 5e7], lambda t: _diagonal((t - root) / root, 1.0, 1.0, 1.0))
    assert abs(tau - root) <= math.ulp(root)


def test_sde_check_keeps_gamma_tau_at_a_tiny_gamma():
    # at gamma = 1e-8 tau is 4e7, where the bisection ends on adjacent doubles
    taus = []
    for gamma in (1.0, 1e-8):
        c = family_appc(0.3, gamma=gamma)
        taus.append(gamma * sde_check(initial_state("plus", 0.4), c, c).tau)
    assert abs(taus[1] - taus[0]) <= 1e-9


# ---------------------------------------------------------------------------
# The theorem under the scan: one crossing, no revival, no jump at the surfaces

# deterministic draws, a handful per test, so the Tier-1 suite stays fast and repeatable
FEW_DRAWS = settings(max_examples=4, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("kind", ["flip", "dissipative", "mixed"])
@FEW_DRAWS
@given(seed=st.integers(0, 2**32 - 1))
def test_mu_never_revives_after_the_first_witness(kind, seed):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.5, 2.0)
    rho = random_hs_state(rng)
    draw1 = random_dissipative_coupling if kind == "dissipative" else random_flip_coupling
    draw2 = random_flip_coupling if kind == "flip" else random_dissipative_coupling
    c1, c2 = draw1(rng, gamma), draw2(rng, gamma)
    mu = [pt_min(state_at(rho, c1, c2, t)) for t in np.linspace(0.0, 60.0 / gamma, 361)]
    witnesses = np.flatnonzero(np.array(mu) >= RELATIVE_SPECTRAL_ZERO)
    assert witnesses.size > 0
    assert min(mu[witnesses[0]:]) >= -RELATIVE_SPECTRAL_ZERO


def _coupling_with_w(rng, w_norm: float, gamma: float) -> Coupling:
    # u = cos(a) e1, v = sin(a) e2 for orthonormal e1, e2: |u x v| = sin(2a) / 2
    e1 = random_unit(rng)
    e2 = np.cross(e1, random_unit(rng))
    a = 0.5 * math.asin(2.0 * w_norm)
    return Coupling(u=math.cos(a) * e1, v=math.sin(a) * e2 / np.linalg.norm(e2), gamma=gamma)


@pytest.mark.parametrize("surface", ["flip", "amplitude-damping"])
@FEW_DRAWS
@given(seed=st.integers(0, 2**32 - 1))
def test_tau_is_continuous_across_the_exempt_surfaces(surface, seed):
    # |w| a thousandth of the tolerance inside and outside the band: the
    # coupling's class (or the criterion's answer) changes, tau does not
    if surface == "flip":
        inside, outside = FLIP_TOL * (1.0 - 1e-3), FLIP_TOL * (1.0 + 1e-3)
    else:
        inside, outside = 0.5 - AD_TOL * (1.0 - 1e-3), 0.5 - AD_TOL * (1.0 + 1e-3)
    taus, sides = [], []
    for w_norm in (inside, outside):
        rng = np.random.default_rng(seed)  # the same state and orientations on both sides
        gamma = rng.uniform(0.5, 2.0)
        rho = random_hs_state(rng)
        c1, c2 = _coupling_with_w(rng, w_norm, gamma), _coupling_with_w(rng, w_norm, gamma)
        assume(pt_min(state_at(rho, c1, c2, 0.0)) < -RELATIVE_SPECTRAL_ZERO)
        taus.append(detect_tau(np.linspace(0.0, 20.0 / gamma, 101), lambda t: state_at(rho, c1, c2, t)))
        sides.append(isinstance(classify(c1), Flip) if surface == "flip"
                     else predict_dissipative(rho, c1, c2).predicted)
    assert sides == ([True, False] if surface == "flip" else ["not-covered", "yes"])
    assert None not in taus
    assert abs(taus[0] - taus[1]) <= 3e-7


# ---------------------------------------------------------------------------
# The long-time limit of a pair with a dissipative qubit


def test_mixed_limit_of_the_flip_dissipative_reproducer():
    # a Bell state's marginals are maximally mixed, so the flip qubit tends to
    # the centre and lam_inf = -1/2 sqrt(1 - |2 w|^2) = -cos(0.002) / 2
    verdict = sde_check(BELL, family_appc(0.0), family_appc(0.001))
    assert verdict.method == "numerical"
    assert abs(verdict.lambda_inf + 0.5 * math.cos(0.002)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), flip_first=st.booleans())
def test_mixed_limit_is_the_oracles_lam_after_sixty_lifetimes(seed, flip_first):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.5, 2.0)
    rho = random_hs_state(rng)
    flip, dis = random_flip_coupling(rng, gamma), random_dissipative_coupling(rng, gamma)
    c1, c2 = (flip, dis) if flip_first else (dis, flip)
    verdict = predict_dissipative(rho, c1, c2)
    # the flip qubit relaxes at 4 gamma, the dissipative one at 2 gamma (1 - 2 q) and faster
    t = 60.0 / (2.0 * gamma * (1.0 - 2.0 * classify(dis).q))
    assert verdict.method == "numerical"
    assert abs(verdict.lambda_inf - oracles.lam_at(rho, c1.u, c1.v, c2.u, c2.v, gamma, t)) <= 1e-11


def _slowest_rate(c: Coupling) -> float:
    cls = classify(c)
    return 4.0 * c.gamma if isinstance(cls, Flip) else 2.0 * c.gamma * (1.0 - 2.0 * cls.q)


@pytest.mark.parametrize("kind", ["flip", "dissipative", "mixed"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mu_after_sixty_lifetimes_is_at_least_a_quarter_of_lambda_inf_squared(kind, seed):
    # the bound behind CROSSING_FLOOR = 2 sqrt(RELATIVE_SPECTRAL_ZERO)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.5, 2.0)
    rho = random_hs_state(rng)
    draw1 = random_dissipative_coupling if kind == "dissipative" else random_flip_coupling
    draw2 = random_flip_coupling if kind == "flip" else random_dissipative_coupling
    c1, c2 = draw1(rng, gamma), draw2(rng, gamma)
    if kind == "flip":
        verdict = predict_flip(rho, classify(c1).u_hat, classify(c2).u_hat)
    else:
        verdict = predict_dissipative(rho, c1, c2)
    t = 60.0 / min(_slowest_rate(c1), _slowest_rate(c2))
    assert pt_min(state_at(rho, c1, c2, t)) >= verdict.lambda_inf**2 / 4.0


# ---------------------------------------------------------------------------
# RK4 oracle


def test_oracle_rk4_flip_decay():
    r = oracle_rk4(X, flip_coupling(Z), 1.5, 1e-4)
    assert np.max(np.abs(r - np.array([math.exp(-6.0), 0.0, 0.0]))) <= 1e-8


def test_oracle_rk4_dissipative_fixed_point():
    rng = np.random.default_rng(11)
    c = random_dissipative_coupling(rng, min_w=0.4)
    r = oracle_rk4(random_bloch(rng), c, 20.0, 1e-3)
    assert np.max(np.abs(r - 2.0 * np.cross(c.u, c.v))) <= 1e-6


def test_oracle_rk4_rejects_coarse_step():
    with pytest.raises(ValueError):
        oracle_rk4(X, flip_coupling(Z), 1.0, 0.01)
    with pytest.raises(ValueError):
        oracle_rk4(X, Coupling(u=Z, v=np.zeros(3), gamma=4.0), 1.0, 1e-3)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_rk4_agrees_with_closed_forms(seed):
    rng = np.random.default_rng(1400 + seed)
    c = random_coupling(rng)
    r0 = random_bloch(rng)
    for t in (0.4, 2.1):
        assert np.max(np.abs(oracle_rk4(r0, c, t, 1e-4) - evolve(r0, c, t))) <= 1e-6


# ---------------------------------------------------------------------------
# Orchestrated check


def test_sde_check_dispatches_flip():
    rho = initial_state("plus", 0.5)
    verdict = sde_check(rho, flip_coupling(Z), flip_coupling(Z))
    assert verdict.method == "flip-criterion"
    assert verdict.predicted == "no"
    assert verdict.tau is None


def test_sde_check_dispatches_dissipative_with_tau():
    verdict = sde_check(
        initial_state("plus", 0.8),
        family_appc(-math.pi / 4),
        family_appc(-math.pi / 4),
    )
    assert verdict.method == "dissipative-criterion"
    assert verdict.predicted == "not-covered"
    assert verdict.tau is not None and abs(verdict.tau - LN2_OVER_4) <= 1e-6


def test_sde_check_mixed_classes_numerical():
    verdict = sde_check(
        initial_state("plus", 0.8),
        flip_coupling(Z),
        family_appc(-math.pi / 5),
    )
    assert verdict.method == "numerical"
    assert verdict.predicted == "yes"
    assert verdict.tau is not None


@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 40.0, 400)], ids=["default", "40-over-gamma"])
def test_sde_check_mixed_pair_on_the_amplitude_damping_surface_is_not_covered(grid):
    # the criterion is silent on |w| = 1/2 with a flip qubit as without one;
    # no crossing on the grid does not make the verdict "no"
    verdict = sde_check(BELL, flip_coupling(Z), family_appc(-math.pi / 4), grid)
    assert (verdict.predicted, verdict.lambda_inf, verdict.tau) == ("not-covered", 0.0, None)


def test_sde_check_rejects_separable():
    with pytest.raises(NotEntangled):
        sde_check(np.eye(4, dtype=complex) / 4.0, flip_coupling(Z), flip_coupling(Z))


def test_sde_check_rejects_a_separable_state_before_scanning(monkeypatch):
    import qsde.sde

    def no_scan(*args):
        raise AssertionError("state_at reached")

    monkeypatch.setattr(qsde.sde, "state_at", no_scan)
    with pytest.raises(NotEntangled, match=r"^initial state has zero concurrence: mu\(0\) = 0\.000e\+00$"):
        sde_check(initial_state("plus", 0.0), family_appc(0.3), family_appc(0.3))
    # the patched name is the scan's: an entangled state reaches it
    with pytest.raises(AssertionError, match="state_at reached"):
        sde_check(initial_state("plus", 0.5), family_appc(0.3), family_appc(0.3))


def test_sde_check_takes_a_state_entangled_below_the_concurrence_resolution():
    # a Werner state with C = (3 p - 1) / 2 = 1e-9, far below lam's ~1.2e-7
    # resolution, but mu(0) = -C / 2, far below -RELATIVE_SPECTRAL_ZERO
    p = (1.0 + 2e-9) / 3.0
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = p * np.outer(psi, psi) + (1.0 - p) / 4.0 * np.eye(4)
    assert abs(pt_min(rho.astype(complex)) + 5e-10) <= 1e-15
    c = family_appc(-math.pi / 4)  # amplitude damping: 0 = lam(inf), not-covered
    verdict = sde_check(rho, c, c)
    assert verdict.method == "dissipative-criterion"
    assert verdict.predicted == "not-covered"
    # entangled at t = 0 and separable as soon as the damping shrinks the coherence
    assert verdict.tau is not None and 0.0 < verdict.tau < 1e-6


def test_sde_check_rejects_a_boundary_state_whose_scan_starts_at_lam_le_zero():
    # a Werner-type state at the separable boundary: its concurrence reads
    # +1.4e-16, but lam at t = 0, through the Kraus route, -2.8e-17, and both
    # pt_min(rho0) and the scan's mu(0) +2.8e-17, not below -RELATIVE_SPECTRAL_ZERO
    a, p = 0.7774538558746287, 0.37540020103303556
    psi = np.array([math.sqrt(a), 0.0, 0.0, math.sqrt(1.0 - a)])
    rho = p * np.outer(psi, psi) + (1.0 - p) / 4.0 * np.eye(4)
    c1, c2 = family_appc(0.3), family_appc(0.7)
    assert concurrence(rho.astype(complex)) > 0.0
    assert lambda_at(rho.astype(complex), c1, c2, 0.0) <= 0.0
    assert pt_min(state_at(rho.astype(complex), c1, c2, 0.0)) >= -RELATIVE_SPECTRAL_ZERO
    with pytest.raises(NotEntangled, match=r"mu\(0\) = 2\.776e-17"):
        sde_check(rho, c1, c2)


def test_sde_check_rejects_a_gamma_too_small_for_the_default_grid():
    # 10 / 1e-320 overflows: the default grid would end at t = inf
    c = family_appc(0.3, gamma=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as info:
            sde_check(initial_state("plus", 0.5), c, c)
    assert (info.value.field, info.value.message) == (
        "gamma", "default grid end 10/gamma overflows at gamma = 1e-320")


def test_sde_check_validates_rho0_exactly_once(monkeypatch):
    import qsde.pair
    import qsde.sde

    calls = []
    original = qsde.pair.check_state

    def counting(rho):
        calls.append(1)
        return original(rho)

    # both names: the one sde_check calls, and any call made inside pair
    monkeypatch.setattr(qsde.sde, "check_state", counting)
    monkeypatch.setattr(qsde.pair, "check_state", counting)
    verdict = sde_check(initial_state("minus", 0.3), family_appc(0.3), family_appc(-math.pi / 5))
    assert verdict.method == "dissipative-criterion"
    assert len(calls) == 1


def _bell_with_dust(eps: float) -> np.ndarray:
    # Phi+ plus eps on |01><01| and -eps on |10><10|: trace 1, one eigenvalue -eps
    return initial_state("plus", 0.5) + np.diag([0.0, eps, -eps, 0.0])


@pytest.mark.parametrize(
    "rho, message",
    [
        (initial_state("plus", 0.5) + np.triu(np.full((4, 4), 1e-6), 1),
         "state matrix is not Hermitian within 1e-10"),
        (np.eye(4) / 3.0, "state matrix trace must be 1 within 1e-10"),
        (_bell_with_dust(2e-9), "state matrix has eigenvalue -2.000e-09 < -1e-9"),
    ],
    ids=["not-hermitian", "trace-4/3", "eigenvalue-minus-2e-9"],
)
def test_sde_check_applies_the_state_rule_with_the_cli_text(rho, message):
    with pytest.raises(InvalidInput) as info:
        sde_check(rho, family_appc(0.3), family_appc(0.3))
    assert (info.value.field, info.value.message) == ("rho0", message)


def test_sde_check_rejects_a_nan_state_entry_by_name():
    rho = initial_state("plus", 0.5)
    rho[1, 1] = np.nan
    with pytest.raises(InvalidInput, match="^rho0: state matrix entries must be finite$") as info:
        sde_check(rho, flip_coupling(Z), flip_coupling(Z))
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_state_rule_accepts_dust_above_its_floor():
    verdict = sde_check(_bell_with_dust(5e-10), flip_coupling(Z), flip_coupling(Z))
    assert verdict.method == "flip-criterion"


# ---------------------------------------------------------------------------
# verdict-sweep inputs that a timed benchmark run may not reach


def _verdict_input_couplings(inp: dict) -> tuple[Coupling, Coupling]:
    return Coupling(inp["u1"], inp["v1"], inp["gamma"]), Coupling(inp["u2"], inp["v2"], inp["gamma"])


@pytest.mark.parametrize("seed, index", [(5, 103), (201, 738), (201, 598)])
def test_verdict_sweep_flat_crossings_pass_the_oracles(seed, index):
    # amplitude-damping-surface draws whose mu crosses zero flatly: a bisection
    # on mu put their taus 3.85e-6, 8.0e-6 and 6.5e-7 late, and the benchmark's
    # tau bracket let the last two pass; PairOracle bisects within tau's grid cell
    inp = inputs.verdict_input(seed, index)
    c1, c2 = _verdict_input_couplings(inp)
    verdict = sde_check(inp["state"]["rho"], c1, c2)
    assert oracles.check_verdict(inp, verdict.to_dict()) == []
    grid = default_grid(inp["gamma"])
    k = int(np.searchsorted(grid, verdict.tau))
    want = PairOracle(inp["state"]["rho"], c1, c2, grid[k]).tau(grid[k - 1], grid[k])
    assert abs(verdict.tau - want) <= oracles.TAU_CLOSED_FORM_TOL


@pytest.mark.parametrize("seed, index", [(407, 298), (401, 317)])
def test_verdict_sweep_separable_werner_draws_are_refused(seed, index):
    # the earliest separable Werner draws of the sweep's seeds
    inp = inputs.verdict_input(seed, index)
    with pytest.raises(NotEntangled):
        sde_check(inp["state"]["rho"], *_verdict_input_couplings(inp))
