import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qsde.channel import AD_TOL, FLIP_TOL, Coupling, Flip, classify, evolve, family_appc
from qsde.pair import concurrence, initial_state, lambda_at, pt_min, state_at
from qsde.sde import (
    TAU_TOL,
    detect_tau,
    predict_dissipative,
    predict_flip,
    sde_check,
)
from qsde.errors import GridTooCoarse, InvalidInput, NotEntangled
from qsde.linalg import RELATIVE_SPECTRAL_ZERO, dot_sigma

from helpers import (
    axis_frame,
    mu_scan,
    oracle_rk4,
    random_bloch,
    random_coupling,
    random_dissipative_coupling,
    random_flip_coupling,
    random_hs_state,
    random_pure_pair,
    random_unit,
)

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SIGMA_Z = dot_sigma(Z)

LN2_OVER_4 = 0.17328679513998632


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
    verdict = predict_flip(rho, X, Z)
    assert verdict.predicted == "yes"
    assert abs(verdict.lambda_inf + 0.5) <= 1e-15
    tau = detect_tau(*mu_scan(rho, flip_coupling(X), flip_coupling(Z), np.linspace(0, 10, 201)))
    assert tau is not None
    assert abs(lambda_at(rho, flip_coupling(X), flip_coupling(Z), tau)) <= 1e-6


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
    verdict = predict_flip(rho, a1, a2)
    c1, c2 = flip_coupling(a1), flip_coupling(a2)
    tau = detect_tau(*mu_scan(rho, c1, c2, np.linspace(0.0, 12.0, 241)), lambda_inf=verdict.lambda_inf)
    assert verdict.predicted == ("yes" if seed % 2 == 0 else "no")
    assert (tau is not None) == (verdict.predicted == "yes")
    assert abs(verdict.lambda_inf - lambda_at(rho, c1, c2, 20.0)) <= 1e-6


# ---------------------------------------------------------------------------
# Dissipative criterion


def test_dissipative_criterion_amplitude_damping_not_covered():
    c = family_appc(-math.pi / 4)
    verdict = predict_dissipative(c, c)
    assert verdict.predicted == "not-covered"
    assert verdict.lambda_inf == 0.0
    assert verdict.method == "dissipative-criterion"


def test_dissipative_criterion_off_damping_angle_yes():
    c = family_appc(-math.pi / 5)
    verdict = predict_dissipative(c, c)
    assert verdict.predicted == "yes"
    # lam_inf = -cos^2(2 pi / 5) / 2
    assert abs(verdict.lambda_inf - (-0.04774575140626315)) <= 1e-12


def test_dissipative_criterion_small_w_limit():
    c = family_appc(1e-4)
    verdict = predict_dissipative(c, c)
    assert verdict.predicted == "yes"
    assert abs(verdict.lambda_inf + 0.5) <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_dissipative_criterion_sufficiency(seed):
    # whenever the criterion answers yes, every entangled initial state
    # must actually cross zero at a finite time
    rng = np.random.default_rng(1500 + seed)
    c1 = random_dissipative_coupling(rng, min_w=0.3)
    c2 = random_dissipative_coupling(rng, min_w=0.3)
    verdict = predict_dissipative(c1, c2)
    assert verdict.predicted == "yes"
    rho, _ = random_pure_pair(rng, min_concurrence=0.15)
    tau = detect_tau(*mu_scan(rho, c1, c2, np.linspace(0.0, 10.0, 201)), lambda_inf=verdict.lambda_inf)
    assert tau is not None
    assert abs(lambda_at(rho, c1, c2, tau)) <= 1e-6


# ---------------------------------------------------------------------------
# Crossing detection


def test_detect_tau_none_for_double_dephasing_bell():
    rho = initial_state("plus", 0.5)
    c = flip_coupling(Z)
    assert detect_tau(*mu_scan(rho, c, c, np.linspace(0.0, 10.0, 101)), lambda_inf=0.0) is None


def test_detect_tau_amplitude_damping_matches_closed_form():
    # plus state with alpha^2 = 0.8 under double amplitude damping crosses
    # at t = ln(2) / 4
    rho = initial_state("plus", 0.8)
    c = family_appc(-math.pi / 4)
    tau = detect_tau(*mu_scan(rho, c, c, np.linspace(0.0, 10.0, 401)), lambda_inf=0.0)
    assert tau is not None
    assert abs(tau - LN2_OVER_4) <= 1e-6
    assert abs(lambda_at(rho, c, c, tau)) <= 1e-6


def test_detect_tau_none_below_threshold_weight():
    rho = initial_state("plus", 0.2)
    c = family_appc(-math.pi / 4)
    assert detect_tau(*mu_scan(rho, c, c, np.linspace(0.0, 10.0, 401)), lambda_inf=0.0) is None


def test_detect_tau_bisects_across_a_wide_grid_gap():
    # one crossing and no revival: a bracket of any width is bisected
    tau = detect_tau([0.0, 5.0], [-0.8, 0.1], lambda t: 0.18 * t - 0.8)
    assert abs(tau - (0.8 + RELATIVE_SPECTRAL_ZERO) / 0.18) <= TAU_TOL


def test_detect_tau_crossing_beyond_grid_raises():
    with pytest.raises(GridTooCoarse, match="lambda_inf = -5.000e-01 guarantees"):
        detect_tau([0.0, 0.5, 1.0], [-1.0, -0.8, -0.6], lambda t: 0.4 * t - 1.0, lambda_inf=-0.5)


def test_detect_tau_requires_entangled_start():
    # -1e-14 lies inside the band of +-RELATIVE_SPECTRAL_ZERO, so it is no proof of entanglement
    for mu0, text in ((0.2, "2.000e-01"), (-1e-14, "-1.000e-14")):
        with pytest.raises(NotEntangled, match=rf"not entangled on the scan: mu\(0\) = {text}$"):
            detect_tau([0.0, 1.0], [mu0, 0.4], lambda t: mu0)


def test_detect_tau_brackets_the_first_witness_with_the_point_before():
    # 5e-15 and 1e-14 lie under the floor, so the first witness is t = 0.5 and
    # the bracket is [0.4, 0.5], however close to zero the points before read
    times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    mu = [-0.5, -0.3, -5e-15, 5e-15, 1e-14, 0.2]
    calls = []

    def mu_of_t(t):
        calls.append(t)
        return t - 0.45

    assert abs(detect_tau(times, mu, mu_of_t) - 0.45) <= TAU_TOL
    assert calls[0] == 0.5 * (0.4 + 0.5)


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
    _, mu, _ = mu_scan(rho, c1, c2, np.linspace(0.0, 60.0 / gamma, 361))
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
        times, mu, mu_of_t = mu_scan(rho, c1, c2, np.linspace(0.0, 20.0 / gamma, 101))
        assume(mu[0] < -RELATIVE_SPECTRAL_ZERO)
        taus.append(detect_tau(times, mu, mu_of_t))
        sides.append(isinstance(classify(c1), Flip) if surface == "flip"
                     else predict_dissipative(c1, c2).predicted)
    assert sides == ([True, False] if surface == "flip" else ["not-covered", "yes"])
    assert None not in taus
    assert abs(taus[0] - taus[1]) <= 3e-7


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
    assert verdict.predicted in ("yes", "no")
    assert (verdict.tau is not None) == (verdict.predicted == "yes")


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
    assert concurrence(rho).lam > 0.0
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
