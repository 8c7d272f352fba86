"""Seeded random inputs and independent oracles shared across the test suite."""

from __future__ import annotations

import numpy as np

from qsde.census import CensusReport, _chart, count_hits
from qsde.channel import AD_TOL, FLIP_TOL, Coupling, bloch_to_rho, evolve, family_appc
from qsde.linalg import IDENTITY_2, dot_sigma
from qsde.pair import check_grid, pt_min, state_at


def uv_from_draws(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, 5) array of uniform [0, 1) draws through the census chart to (u, v) rows."""
    ux, uy, uz, vx, vy, vz = _chart(x)
    return np.stack([ux, uy, uz], axis=1), np.stack([vx, vy, vz], axis=1)


def census_one_shot(n: int, seed: int) -> dict:
    """Reference census report: every draw at once, stacked (u, v) rows, np.cross and np.linalg.norm."""
    u, v = uv_from_draws(np.random.Generator(np.random.Philox(seed)).random((n, 5)))
    n_flip, n_ad, min_ad = count_hits(np.linalg.norm(np.cross(u, v), axis=1))
    return CensusReport(n, n_flip, n_ad, FLIP_TOL, AD_TOL, min_ad, seed).to_dict()


def mu_scan(rho0, c1: Coupling, c2: Coupling, grid) -> tuple:
    """(times, mu, mu_of_t) of sde_check's death-time scan, in detect_tau's argument order."""
    def mu_of_t(t):
        return pt_min(state_at(rho0, c1, c2, t))

    times = check_grid(grid)
    return times, [mu_of_t(t) for t in times], mu_of_t


def choi_six_evolves(coupling: Coupling, t: float) -> np.ndarray:
    """Reference Choi matrix: one evolve and one (1 + r . sigma) / 2 per axial state, then np.block."""
    def image(r0):
        return 0.5 * (IDENTITY_2 + dot_sigma(evolve(np.asarray(r0, float), coupling, t)))

    c00 = image((0.0, 0.0, 1.0))
    c11 = image((0.0, 0.0, -1.0))
    cpx = image((1.0, 0.0, 0.0))
    cmx = image((-1.0, 0.0, 0.0))
    cpy = image((0.0, 1.0, 0.0))
    cmy = image((0.0, -1.0, 0.0))
    c01 = 0.5 * (cpx - cmx + 1j * cpy - 1j * cmy)
    c10 = 0.5 * (cpx - cmx - 1j * cpy + 1j * cmy)
    return np.block([[c00, c01], [c10, c11]])


def assert_same_bits(a, b) -> None:
    """np.array_equal, and the same bytes, so that the signs of zeros agree too."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


# u = s x, v = s y: q == 0.0 exactly, evolve_dissipative's branch without expm1
AMPLITUDE_DAMPING = Coupling(u=(0.7071067811865476, 0.0, 0.0), v=(0.0, 0.7071067811865476, 0.0))


def branch_cases() -> list[tuple[str, Coupling, Coupling, float]]:
    """(name, c1, c2, t): both regimes, and each branch of evolve_dissipative, for bit-identity tests.

    The "late" case has 8 gamma q t > 700, where expm1 would overflow; in
    "same" c2 is c1, so state_at builds one Kraus set for both qubits.
    """
    rng = np.random.default_rng(1919)
    flip, dis = random_flip_coupling(rng, 1.3), random_dissipative_coupling(rng, 0.7)
    appc = family_appc(0.4, gamma=1.8)
    return [
        ("flip", flip, random_flip_coupling(rng), 0.37),
        ("dissipative", dis, appc, 0.37),
        ("mixed", flip, dis, 1.1),
        ("q-zero", AMPLITUDE_DAMPING, dis, 0.8),
        ("late", appc, dis, 300.0),
        ("t-zero", dis, flip, 0.0),
        ("same", appc, appc, 0.52),
    ]


def random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        p = rng.normal(size=3)
        n = float(np.linalg.norm(p))
        if n > 1e-6:
            return p / n


def random_bloch(rng: np.random.Generator, surface: bool = False) -> np.ndarray:
    direction = random_unit(rng)
    if surface:
        return direction
    return direction * rng.random() ** (1.0 / 3.0)


def random_flip_coupling(rng: np.random.Generator, gamma: float = 1.0) -> Coupling:
    axis = random_unit(rng)
    psi = 2.0 * np.pi * rng.random()
    return Coupling(u=np.cos(psi) * axis, v=np.sin(psi) * axis, gamma=gamma)


def random_dissipative_coupling(
    rng: np.random.Generator, gamma: float = 1.0, min_w: float = 1e-2
) -> Coupling:
    while True:
        u, v = uv_from_draws(rng.random((1, 5)))
        if float(np.linalg.norm(np.cross(u[0], v[0]))) > min_w:
            return Coupling(u=u[0], v=v[0], gamma=gamma)


def random_coupling(rng: np.random.Generator, gamma: float = 1.0) -> Coupling:
    if rng.random() < 0.5:
        return random_flip_coupling(rng, gamma)
    return random_dissipative_coupling(rng, gamma)


def random_hs_state(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    """Hilbert-Schmidt two-qubit state G G^dag / tr, G a 4 x rank complex Ginibre matrix.

    rank < 4 gives a rank-deficient state, and almost every draw has all
    sixteen entries nonzero (not an X state). The result is Hermitian bit
    for bit.
    """
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_density2(rng: np.random.Generator) -> np.ndarray:
    return bloch_to_rho(random_bloch(rng))


def pure_concurrence(psi: np.ndarray) -> float:
    """Independent oracle: a pure two-qubit state has C = 2 |c00 c11 - c01 c10|."""
    return 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])


def random_pure_pair(
    rng: np.random.Generator, min_concurrence: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Random entangled pure state; returns (rho, psi)."""
    while True:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        if pure_concurrence(psi) >= min_concurrence:
            return np.outer(psi, psi.conj()), psi


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def axis_frame(a) -> np.ndarray:
    """Unitary U with U sz U^dag = a . sigma, from the eigenvectors of a . sigma.

    The columns are the +1 and -1 eigenvectors of a . sigma for a unit
    vector a, so U maps |0> and |1> onto the flip-axis eigenstates.
    """
    _, vectors = np.linalg.eigh(dot_sigma(a))
    return vectors[:, ::-1]


def random_hermitian(rng: np.random.Generator, d: int = 4) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def master_rhs(r: np.ndarray, c: Coupling) -> np.ndarray:
    """Right-hand side of the Bloch master equation, written independently."""
    u, v, g = c.u, c.v, c.gamma
    w = np.cross(u, v)
    return 4.0 * g * (u * float(u @ r) + v * float(v @ r) + 2.0 * w - r)


def rho_to_bloch(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array(
        [
            2.0 * rho[1, 0].real,
            2.0 * rho[1, 0].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def apply_channel(kraus: list[np.ndarray], rho) -> np.ndarray:
    """Operator-sum action sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def partial_trace_second(m) -> np.ndarray:
    """Trace out the second tensor factor of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    return np.array(
        [
            [m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
            [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]],
        ]
    )


def _bloch_coefficients(u, v, g4):
    """(a00, a01, a02, a11, a12, a22, bx, by, bz) of dr/dt = A r + b, for floats or arrays alike."""
    ux, uy, uz = u
    vx, vy, vz = v
    wx = uy * vz - uz * vy
    wy = uz * vx - ux * vz
    wz = ux * vy - uy * vx
    return (
        g4 * (ux * ux + vx * vx - 1.0),
        g4 * (ux * uy + vx * vy),
        g4 * (ux * uz + vx * vz),
        g4 * (uy * uy + vy * vy - 1.0),
        g4 * (uy * uz + vy * vz),
        g4 * (uz * uz + vz * vz - 1.0),
        2.0 * g4 * wx,
        2.0 * g4 * wy,
        2.0 * g4 * wz,
    )


def _rk4_states(coefficients, start, times, dt: float) -> list[tuple]:
    """Classical RK4 states (x, y, z) at each of the ascending ``times``.

    Time t is reached by round(t / dt) steps of dt, plus one leftover step
    when the remainder exceeds 1e-15, so every t gets the same arithmetic
    as an integration from 0 to t alone. The state components and the
    coefficients may be floats or equal-shape arrays (one entry per
    coupling): the operations are elementwise either way.
    """
    a00, a01, a02, a11, a12, a22, bx, by, bz = coefficients

    def rhs(px, py, pz):
        return (
            a00 * px + a01 * py + a02 * pz + bx,
            a01 * px + a11 * py + a12 * pz + by,
            a02 * px + a12 * py + a22 * pz + bz,
        )

    def step(x, y, z, h):
        h2, h6 = 0.5 * h, h / 6.0
        k1x, k1y, k1z = rhs(x, y, z)
        k2x, k2y, k2z = rhs(x + h2 * k1x, y + h2 * k1y, z + h2 * k1z)
        k3x, k3y, k3z = rhs(x + h2 * k2x, y + h2 * k2y, z + h2 * k2z)
        k4x, k4y, k4z = rhs(x + h * k3x, y + h * k3y, z + h * k3z)
        return (
            x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y),
            z + h6 * (k1z + 2.0 * (k2z + k3z) + k4z),
        )

    state, done, out = tuple(start), 0, []
    for t in times:
        remaining = float(t)
        n = int(round(remaining / dt)) if remaining > 0.0 else 0
        if n < done:
            raise ValueError("times must be ascending")
        for _ in range(n - done):
            state = step(*state, dt)
        done = n
        leftover = remaining - n * dt
        out.append(step(*state, leftover) if abs(leftover) > 1e-15 else state)
    return out


def oracle_rk4(r0, coupling: Coupling, t_end: float, dt: float) -> np.ndarray:
    """Integrate dr/dt = 4 gamma {u (u.r) + v (v.r) + 2 w - r} with fixed-step RK4.

    Deliberately independent of the closed-form propagators: plain classical
    Runge-Kutta on the Bloch equation, global error O(dt^4). Requires
    dt <= 1e-3 / gamma.
    """
    gamma = coupling.gamma
    if dt > 1e-3 / gamma:
        raise ValueError("dt must be <= 1e-3 / gamma for the oracle")
    coefficients = _bloch_coefficients(
        [float(c) for c in coupling.u], [float(c) for c in coupling.v], 4.0 * gamma
    )
    start = [float(c) for c in np.asarray(r0, dtype=float)]
    return np.array(_rk4_states(coefficients, start, [t_end], dt)[0])


def oracle_rk4_batch(r0s, couplings: list[Coupling], times, dt: float) -> np.ndarray:
    """oracle_rk4 for every (r0, coupling) pair at once, at each of the ascending times.

    Returns an array of shape (len(times), len(couplings), 3) whose entries
    equal oracle_rk4(r0s[i], couplings[i], times[k], dt) bit for bit.
    """
    gamma = np.array([c.gamma for c in couplings])
    if dt > 1e-3 / float(gamma.max()):
        raise ValueError("dt must be <= 1e-3 / gamma for the oracle")
    u = np.array([c.u for c in couplings], dtype=float).T
    v = np.array([c.v for c in couplings], dtype=float).T
    start = np.array(r0s, dtype=float).T
    states = _rk4_states(_bloch_coefficients(u, v, 4.0 * gamma), start, times, dt)
    return np.array([np.stack(s, axis=1) for s in states])
