import math

import numpy as np
import pytest

from qsde.channel import (
    Coupling,
    Dissipative,
    Flip,
    asymptote,
    bloch_to_rho,
    classify,
    evolve,
    evolve_dissipative,
    evolve_flip,
    family,
    family_appc,
    kraus_flip,
)
from qsde.choi import _AXIAL_STATES
from qsde.errors import InvalidInput
from qsde.linalg import IDENTITY_2, dot_sigma

from helpers import (
    apply_channel,
    assert_same_bits,
    branch_cases,
    master_rhs,
    oracle_rk4,
    oracle_rk4_batch,
    random_bloch,
    random_coupling,
    random_dissipative_coupling,
    random_unit,
    rho_to_bloch,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# Coupling construction and classification


def test_coupling_requires_normalization():
    with pytest.raises(InvalidInput):
        Coupling(u=X, v=Y)  # |u|^2 + |v|^2 = 2
    with pytest.raises(InvalidInput):
        Coupling(u=X, v=np.zeros(3), gamma=-1.0)


def test_degenerate_coupling_rejected():
    with pytest.raises(InvalidInput):
        Coupling(u=np.zeros(3), v=np.zeros(3))


def test_classify_pure_u_is_flip():
    cls = classify(Coupling(u=X, v=np.zeros(3)))
    assert isinstance(cls, Flip)
    assert np.allclose(cls.u_hat, X, atol=0)


def test_classify_absorption_coupling_is_dissipative():
    s = 1.0 / math.sqrt(2.0)
    cls = classify(Coupling(u=s * X, v=s * Y))
    assert isinstance(cls, Dissipative)
    assert np.allclose(cls.w, [0.0, 0.0, 0.5], atol=1e-15)


def test_classify_derives_the_regime_once():
    for c in (family_appc(0.3), Coupling(u=X, v=np.zeros(3))):
        assert classify(c) is classify(c)


def test_classify_parallel_vectors_is_flip():
    cls = classify(Coupling(u=0.6 * X, v=0.8 * X))
    assert isinstance(cls, Flip)
    assert np.allclose(cls.u_hat, X, atol=1e-15)


# ---------------------------------------------------------------------------
# Flip dynamics


def test_evolve_flip_time_zero_returns_r0():
    rng = np.random.default_rng(0)
    r0, axis = random_bloch(rng), random_unit(rng)
    assert np.allclose(evolve_flip(r0, axis, 1.0, 0.0), r0, atol=1e-15)


def test_evolve_flip_axis_is_fixed_point():
    axis = random_unit(np.random.default_rng(1))
    for t in (0.0, 0.3, 2.0, 50.0):
        assert np.allclose(evolve_flip(axis, axis, 1.0, t), axis, atol=1e-15)


def test_evolve_flip_transverse_decay_matches_rk4():
    # z-axis flip acting on r0 = x: r(t) = (e^{-4 g t}, 0, 0)
    r = evolve_flip(X, Z, 1.0, 0.3)
    assert np.allclose(r, [math.exp(-1.2), 0.0, 0.0], atol=1e-15)
    rk4 = oracle_rk4(X, Coupling(u=Z, v=np.zeros(3)), 0.3, 1e-4)
    assert np.max(np.abs(r - rk4)) <= 1e-8


def test_evolve_flip_axis_component_constant_and_deterministic():
    rng = np.random.default_rng(2)
    axis, r0 = random_unit(rng), random_bloch(rng)
    base = float(r0 @ axis)
    for t in np.linspace(0.0, 6.0, 25):
        r = evolve_flip(r0, axis, 1.3, t)
        assert abs(float(r @ axis) - base) <= 5e-16
        assert np.array_equal(r, evolve_flip(r0, axis, 1.3, t))


def test_kraus_flip_limits():
    assert kraus_flip(Z, 1.0, 0.0).shape == (2, 2, 2)
    k1, k2 = kraus_flip(Z, 1.0, 0.0)
    assert np.array_equal(k1, np.eye(2, dtype=complex))
    assert np.array_equal(k2, np.zeros((2, 2), dtype=complex))
    k1, k2 = kraus_flip(Z, 1.0, 300.0)  # p -> 1/2
    assert np.allclose(k1, math.sqrt(0.5) * np.eye(2), atol=1e-15)


def test_kraus_flip_z_axis_is_phase_flip():
    _, k2 = kraus_flip(Z, 1.0, 0.7)
    scale = math.sqrt(0.5 * (1.0 - math.exp(-2.8)))
    assert np.allclose(k2, scale * np.diag([1.0, -1.0]), atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_kraus_flip_action_equals_bloch_form(seed):
    rng = np.random.default_rng(300 + seed)
    axis, r0 = random_unit(rng), random_bloch(rng)
    gamma = 0.5 + rng.random()
    for t in (0.0, 0.2, 1.0, 4.0):
        kraus = kraus_flip(axis, gamma, t)
        completeness = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(completeness - np.eye(2))) <= 1e-12
        via_kraus = rho_to_bloch(apply_channel(kraus, bloch_to_rho(r0)))
        assert np.max(np.abs(via_kraus - evolve_flip(r0, axis, gamma, t))) <= 1e-12


# ---------------------------------------------------------------------------
# Dissipative dynamics


def test_evolve_dissipative_time_zero_reconstructs_r0():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = random_dissipative_coupling(rng)
        r0 = random_bloch(rng)
        cls = classify(c)
        assert np.max(np.abs(evolve_dissipative(r0, cls, c.gamma, 0.0) - r0)) <= 1e-12


def test_evolve_dissipative_converges_to_2w():
    # slowest transverse rate is 2 g (1 - 2 q) ~ 4 g |w|^2 near the flip
    # boundary, so a fixed horizon resolves the limit only for |w| away
    # from 0; check gamma*t = 20 for |w| >= 0.4 and a rate-aware horizon
    # for arbitrary couplings
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_dissipative_coupling(rng, min_w=0.4)
        cls = classify(c)
        r = evolve_dissipative(random_bloch(rng), cls, 1.0, 20.0)
        assert np.max(np.abs(r - 2.0 * cls.w)) <= 1e-6
    for _ in range(10):
        c = random_dissipative_coupling(rng, min_w=1e-2)
        cls = classify(c)
        horizon = 18.0 / (2.0 * (1.0 - 2.0 * cls.q))
        r = evolve_dissipative(random_bloch(rng), cls, 1.0, horizon)
        assert np.max(np.abs(r - 2.0 * cls.w)) <= 1e-6


def test_standard_amplitude_damping_from_origin():
    # theta = -pi/4 coupling pumps the w component as 1 - e^{-4 g t}
    c = family_appc(-math.pi / 4)
    cls = classify(c)
    w_hat = cls.w / np.linalg.norm(cls.w)
    for t in (0.1, 0.5, 2.0):
        r = evolve_dissipative(np.zeros(3), cls, 1.0, t)
        assert abs(float(r @ w_hat) - (1.0 - math.exp(-4.0 * t))) <= 1e-14
        rk4 = oracle_rk4(np.zeros(3), c, t, 1e-4)
        assert np.max(np.abs(r - rk4)) <= 1e-8


def test_evolve_dissipative_exact_zero_q_matches_rk4():
    # u = s x, v = s y gives q == 0.0 exactly, the branch without expm1
    # (appc:-pi/4 reads q = 1.1e-16 and takes the expm1 branch)
    s = 0.7071067811865476
    c = Coupling(u=(s, 0.0, 0.0), v=(0.0, s, 0.0))
    assert classify(c).q == 0.0
    r0 = random_bloch(np.random.default_rng(31))
    times = (0.1, 0.5, 2.0, 5.0)
    rk4 = oracle_rk4_batch([r0], [c], times, 1e-4)
    for k, t in enumerate(times):
        assert np.max(np.abs(evolve(r0, c, t) - rk4[k, 0])) < 1e-6  # C1's bound


@pytest.mark.parametrize("seed", range(8))
def test_master_equation_residual(seed):
    # central finite difference of the closed form satisfies dr/dt = rhs
    rng = np.random.default_rng(400 + seed)
    c = random_coupling(rng)
    r0 = random_bloch(rng)
    h = 1e-5
    for t in 0.05 + 3.0 * rng.random(4):
        fd = (evolve(r0, c, t + h) - evolve(r0, c, t - h)) / (2.0 * h)
        assert np.max(np.abs(fd - master_rhs(evolve(r0, c, t), c))) <= 1e-6


def test_orthogonal_family_components_decay_exponentially():
    # with u.v = 0 the u and v components decouple into pure exponentials
    # at rates 4 g |v|^2 and 4 g |u|^2 (= 2 g (1 -+ 2 chi)); the fitted
    # rates must match the hyperbolic mixing matrix exactly
    rng = np.random.default_rng(5)
    for _ in range(6):
        theta, phi = 2 * np.pi * rng.random(), np.pi * rng.random()
        c = family(theta, phi, gamma=1.0)
        if not isinstance(classify(c), Dissipative):
            continue
        cls = classify(c)
        u_hat = c.u / np.linalg.norm(c.u)
        v_hat = c.v / np.linalg.norm(c.v)
        w_hat = cls.w / np.linalg.norm(cls.w)
        r0 = (u_hat + v_hat + w_hat) / math.sqrt(3.0)
        t = 0.7
        r = evolve_dissipative(r0, cls, 1.0, t)
        rate_u = -math.log(float(r @ u_hat) / float(r0 @ u_hat)) / t
        rate_v = -math.log(float(r @ v_hat) / float(r0 @ v_hat)) / t
        assert abs(rate_u - 4.0 * float(c.v @ c.v)) <= 1e-8
        assert abs(rate_v - 4.0 * float(c.u @ c.u)) <= 1e-8
        assert abs(rate_u - 2.0 * (1.0 - 2.0 * cls.chi)) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_gamma_rescales_time(seed):
    # gamma enters only through the product gamma*t
    rng = np.random.default_rng(600 + seed)
    r0 = random_bloch(rng)
    flip_axis = random_unit(rng)
    fast = Coupling(u=flip_axis, v=np.zeros(3), gamma=2.5)
    slow = Coupling(u=flip_axis, v=np.zeros(3), gamma=1.0)
    assert np.max(np.abs(evolve(r0, fast, 0.4) - evolve(r0, slow, 1.0))) <= 1e-14
    base = random_dissipative_coupling(rng)
    fast = Coupling(u=base.u, v=base.v, gamma=2.5)
    assert np.max(np.abs(evolve(r0, fast, 0.4) - evolve(r0, base, 1.0))) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_states_stay_physical(seed):
    rng = np.random.default_rng(500 + seed)
    c = random_coupling(rng)
    r0 = random_bloch(rng)
    for t in np.linspace(0.0, 8.0, 30):
        assert float(np.linalg.norm(evolve(r0, c, t))) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Asymptotics and named families


def test_asymptote_flip_projects():
    c = Coupling(u=Z, v=np.zeros(3))
    out = asymptote(c, np.array([0.3, 0.4, 0.5]))
    assert np.allclose(out, [0.0, 0.0, 0.5], atol=1e-15)


def test_asymptote_dissipative_ignores_r0():
    rng = np.random.default_rng(6)
    c = random_dissipative_coupling(rng)
    w = np.cross(c.u, c.v)
    for _ in range(5):
        assert np.allclose(asymptote(c, random_bloch(rng)), 2.0 * w, atol=1e-15)


def test_asymptote_standard_amplitude_damping_is_pure():
    c = family_appc(-math.pi / 4)
    assert abs(float(np.linalg.norm(asymptote(c, np.zeros(3)))) - 1.0) <= 1e-12


def test_family_amplitude_damping_point():
    c = family(math.pi / 4, math.pi / 2)
    assert np.allclose(c.u, [1 / math.sqrt(2), 0.0, 0.0], atol=1e-15)
    assert np.allclose(c.v, [0.0, -1 / math.sqrt(2), 0.0], atol=1e-15)
    assert abs(float(np.linalg.norm(np.cross(c.u, c.v))) - 0.5) <= 1e-15


def test_family_poles_are_flips():
    assert isinstance(classify(family(0.0, 0.0)), Flip)
    assert np.allclose(family(0.0, 0.0).u, Z, atol=1e-15)


def test_family_w_magnitude_frozen_value():
    # |w| = |sin(theta) sin(phi)| sqrt(cos^2(phi) + cos^2(theta) sin^2(phi))
    c = family(math.pi / 6, math.pi / 2)
    w_mag = float(np.linalg.norm(np.cross(c.u, c.v)))
    assert abs(w_mag - 0.4330127018922193) <= 1e-15  # sqrt(3)/4


def test_family_appc_magnitudes():
    assert abs(float(np.linalg.norm(np.cross(*[getattr(family_appc(-math.pi / 4), a) for a in "uv"]))) - 0.5) <= 1e-15
    assert isinstance(classify(family_appc(0.0)), Flip)
    c = family_appc(-math.pi / 5)
    w_mag = float(np.linalg.norm(np.cross(c.u, c.v)))
    assert abs(w_mag - 0.47552825814757677) <= 1e-15  # sin(2 pi / 5) / 2
    assert abs(w_mag - 0.5) > 1e-3  # clearly away from amplitude damping


# ---------------------------------------------------------------------------
# Stacked Bloch vectors


def test_branch_cases_reach_every_branch():
    cases = {name: (c1, c2, t) for name, c1, c2, t in branch_cases()}
    assert isinstance(classify(cases["flip"][0]), Flip) and isinstance(classify(cases["flip"][1]), Flip)
    assert isinstance(classify(cases["dissipative"][0]), Dissipative)
    assert classify(cases["q-zero"][0]).q == 0.0
    c, _, t = cases["q-zero-overflow"]
    assert classify(c).q == 0.0 and 4.0 * c.gamma * t == math.inf
    c, _, t = cases["late"]
    assert 8.0 * c.gamma * classify(c).q * t > 700.0
    assert cases["t-zero"][2] == 0.0
    assert cases["same"][1] is cases["same"][0]


@pytest.mark.parametrize("name, c1, c2, t", branch_cases(), ids=[case[0] for case in branch_cases()])
def test_evolve_of_a_stack_is_row_by_row_on_the_axial_states(name, c1, c2, t):
    for c in (c1, c2):
        assert_same_bits(evolve(_AXIAL_STATES, c, t), np.array([evolve(r, c, t) for r in _AXIAL_STATES]))


def test_bloch_to_rho_of_a_stack_is_the_dot_sigma_form_row_by_row():
    rng = np.random.default_rng(1900)
    signed_zeros = [(-0.0, 0.0, -1.0), (0.0, -0.0, 1.0), (-0.0, -0.0, -0.0), (0.5, -0.0, 0.0)]
    r = np.vstack([[random_bloch(rng) for _ in range(20)], _AXIAL_STATES, signed_zeros])
    expected = np.array([0.5 * (IDENTITY_2 + dot_sigma(row)) for row in r])
    assert_same_bits(bloch_to_rho(r), expected)
    for row, rho in zip(r, expected):
        assert_same_bits(bloch_to_rho(row), rho)
