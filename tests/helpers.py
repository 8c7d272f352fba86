"""Seeded random inputs and independent oracles shared across the test suite."""

from __future__ import annotations

import math
import pathlib
import types

import mpmath
import numpy as np

from qsde.census import CensusReport, _chart, count_hits
from qsde.channel import AD_TOL, FLIP_TOL, Coupling, bloch_to_rho, evolve, family_appc
from qsde.linalg import IDENTITY_2, dot_sigma


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    """perfbench/<name>.py read as text and executed into a fresh module, so no bytecode is written beside it.

    The benchmark's modules import only the standard library and numpy, so each loads alone.
    """
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def uv_from_draws(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an (n, 5) array of uniform [0, 1) draws through the census chart to (u, v) rows."""
    ux, uy, uz, vx, vy, vz = _chart(x)
    return np.stack([ux, uy, uz], axis=1), np.stack([vx, vy, vz], axis=1)


def census_one_shot(n: int, seed: int) -> dict:
    """Reference census report: every draw at once, stacked (u, v) rows, np.cross and np.linalg.norm."""
    u, v = uv_from_draws(np.random.Generator(np.random.Philox(seed)).random((n, 5)))
    n_flip, n_ad, min_ad = count_hits(np.linalg.norm(np.cross(u, v), axis=1))
    return CensusReport(n, n_flip, n_ad, FLIP_TOL, AD_TOL, min_ad, seed).to_dict()


def appc_x_state_tau(theta1: float, theta2: float, kind: str, alpha_sq: float, gamma: float, t_end: float):
    """Death time of initial_state(kind, alpha_sq) under family_appc(theta1, gamma) (x) family_appc(theta2, gamma).

    An appc:theta qubit's Bloch map is closed form: x decays at 4 gamma
    sin^2 theta, y at 4 gamma cos^2 theta, and z relaxes at 4 gamma toward
    sin 2 theta. So a plus or minus state stays an X state, whose partial
    transpose splits into two 2x2 blocks, and it is entangled exactly while
    min(rho22 rho33 - rho14^2, rho11 rho44 - rho23^2) < 0 (Yu & Eberly,
    Quantum Inf. Comput. 7, 459 (2007)); entanglement never revives. The
    crossing is bisected at 60 digits to 1e-20 and returned as an mpf, or
    None when it lies past t_end.

    The end test is sound only while exp(-4 gamma t_end) stays far above
    1e-60: past that the Pauli correlations cancel at 60 digits, and
    (-pi/4, -pi/4, "plus", 0.7, 1.0, t_end) returns None for t_end = 40,
    though its crossing is at 0.266. Callers pass t_end = 10 / gamma;
    PairOracle scales its digits with the horizon instead.
    """
    with mpmath.workdps(60):
        sign = 1 if kind == "plus" else -1
        a, b = mpmath.sqrt(mpmath.mpf(alpha_sq)), mpmath.sqrt(1 - mpmath.mpf(alpha_sq))
        # Pauli correlations of alpha |00> + beta |11> (plus) or alpha |01> + beta |10> (minus)
        xx, yy, zz, z1, z2 = 2 * a * b, -sign * 2 * a * b, sign, a * a - b * b, sign * (a * a - b * b)
        thetas = (mpmath.mpf(theta1), mpmath.mpf(theta2))
        sin2 = [mpmath.sin(th) ** 2 for th in thetas]
        pole = [mpmath.sin(2 * th) for th in thetas]

        def entangled_block(t):
            e = mpmath.exp(-4 * mpmath.mpf(gamma) * t)
            shift1, shift2 = (1 - e) * pole[0], (1 - e) * pole[1]
            xx_t = e ** (sin2[0] + sin2[1]) * xx
            yy_t = e ** (2 - sin2[0] - sin2[1]) * yy
            z1_t, z2_t = shift1 + e * z1, shift2 + e * z2
            zz_t = shift1 * shift2 + e * (shift1 * z2 + shift2 * z1) + e * e * zz
            # 16 times rho11 rho44 - rho23^2 and rho22 rho33 - rho14^2
            outer = (1 + zz_t) ** 2 - (z1_t + z2_t) ** 2 - (xx_t + yy_t) ** 2
            inner = (1 - zz_t) ** 2 - (z1_t - z2_t) ** 2 - (xx_t - yy_t) ** 2
            return min(outer, inner)

        lo, hi = mpmath.mpf(0), mpmath.mpf(t_end)
        if entangled_block(hi) < 0:
            return None
        while hi - lo > mpmath.mpf("1e-20"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if entangled_block(mid) < 0 else (lo, mid)
        return hi


_PAULI = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
# the nonzero entries (row, column, value) of sigma_m (x) sigma_n, indexed [m][n]
_PAULI_PRODUCTS = [
    [[(2 * i + k, 2 * j + l, complex(a[i][j] * b[k][l]))
      for i in range(2) for j in range(2) for k in range(2) for l in range(2) if a[i][j] * b[k][l] != 0]
     for b in _PAULI]
    for a in _PAULI
]
# the partial transpose on qubit 2 maps sigma_n to its transpose, -sigma_y for n = 2
_TRANSPOSE_SIGN = (1, 1, -1, 1)


class PairOracle:
    """rho0 under c1 (x) c2 in mpmath, from the Bloch equations alone: death time and long-time limit.

    Each coupling is normalized at working precision, so it is the one the
    library's q = hypot(chi, u . v) describes. Its Bloch vector obeys
    dr/dt = A r + b with A = 4 gamma (u u^T + v v^T - 1), symmetric, and
    b = 8 gamma u x v; with A = Q diag(E) Q^T from mpmath.eigsy the qubit's
    map on (1, r) is T(t) = [[1, 0], [c, M]], M = Q diag(e^{E t}) Q^T and
    c = Q diag((e^{E t} - 1) / E) Q^T b. The Pauli correlations
    R[m, n] = tr(rho sigma_m (x) sigma_n) evolve as R(t) = T1(t) R0 T2(t)^T.

    Digits: 50, plus 32 gamma_max t_max / ln 10. Each qubit relaxes no faster
    than e^{-4 gamma t} (E is -4 gamma and -2 gamma (1 -+ 2 q)), and an entry
    of rho^Gamma is affine in each qubit's Bloch vector, so a term of the 4x4
    determinant is at least ~e^{-32 gamma_max t} of its O(1) entries; a
    double-flip Bell state's determinant is -7e-280 at gamma t = 40. With a
    fixed 60 digits the end test of appc_x_state_tau misses such terms.
    """

    def __init__(self, rho0, c1: Coupling, c2: Coupling, t_max: float):
        self.digits = 50 + math.ceil(32.0 * max(c1.gamma, c2.gamma) * t_max / math.log(10.0))
        with mpmath.workdps(self.digits):
            rho = [[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(rho0)]
            self.r0 = mpmath.matrix(4, 4)
            for m in range(4):
                for n in range(4):
                    self.r0[m, n] = mpmath.re(mpmath.fsum(rho[j][i] * x for i, j, x in _PAULI_PRODUCTS[m][n]))
            self.qubits = [self._bloch_generator(c) for c in (c1, c2)]

    @staticmethod
    def _bloch_generator(c: Coupling):
        norm = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in (*c.u, *c.v)))
        u = [mpmath.mpf(float(x)) / norm for x in c.u]
        v = [mpmath.mpf(float(x)) / norm for x in c.v]
        gamma = mpmath.mpf(c.gamma)
        a = mpmath.matrix(3, 3)
        for i in range(3):
            for j in range(3):
                a[i, j] = 4 * gamma * (u[i] * u[j] + v[i] * v[j] - (1 if i == j else 0))
        w = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        e, q = mpmath.eigsy(a)
        return e, q, q.T * mpmath.matrix([8 * gamma * x for x in w]), gamma

    @staticmethod
    def _transfer(qubit, t) -> mpmath.matrix:
        e, q, bq, gamma = qubit
        if t == mpmath.inf:
            # a mode slower than 1e-15 gamma, as on a coupling that classify calls
            # flip (|u x v| <= FLIP_TOL gives a rate <= 8e-18 gamma), is held; b
            # lies along u x v, the eigenvector of E = -4 gamma, so it has no
            # component on a held mode
            held = [abs(x) < mpmath.mpf("1e-15") * gamma for x in e]
            decay = [int(h) for h in held]
            growth = [0 if h else -1 / x for h, x in zip(held, e)]
        else:
            decay = [mpmath.exp(x * t) for x in e]
            growth = [mpmath.expm1(x * t) / x if x != 0 else t for x in e]
        m = q * mpmath.diag(decay) * q.T
        c = q * mpmath.matrix([g * b for g, b in zip(growth, bq)])
        out = mpmath.matrix(4, 4)
        out[0, 0] = 1
        for i in range(3):
            out[i + 1, 0] = c[i]
            for j in range(3):
                out[i + 1, j + 1] = m[i, j]
        return out

    def _state(self, t, partial_transpose: bool) -> mpmath.matrix:
        r = self._transfer(self.qubits[0], t) * self.r0 * self._transfer(self.qubits[1], t).T
        out = mpmath.matrix(4, 4)
        for m in range(4):
            for n in range(4):
                coefficient = r[m, n] * (_TRANSPOSE_SIGN[n] if partial_transpose else 1) / 4
                for i, j, x in _PAULI_PRODUCTS[m][n]:
                    out[i, j] += coefficient * mpmath.mpc(x)
        return out

    def pt_det(self, t):
        """det(rho(t)^Gamma), negative exactly while the pair is entangled."""
        with mpmath.workdps(self.digits):
            return mpmath.re(mpmath.det(self._state(mpmath.mpf(t), True)))

    def tau(self, lo: float, hi: float):
        """The crossing in [lo, hi], bisected to 1e-13 on the sign of pt_det, or None if still entangled at hi.

        Each end's sign must exceed 10^5 units of the working precision, else
        AssertionError: the pair must be entangled at lo, and at hi either
        side is accepted only when resolved.
        """
        with mpmath.workdps(self.digits):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            resolved = mpmath.mpf(10) ** (5 - self.digits)
            at_lo, at_hi = self.pt_det(lo), self.pt_det(hi)
            assert at_lo < -resolved and abs(at_hi) > resolved, (at_lo, at_hi)
            if at_hi < 0:
                return None
            while hi - lo > 1e-13:
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if self.pt_det(mid) >= 0 else (mid, hi)
            return (lo + hi) / 2

    def lambda_inf(self):
        """Wootters' lam of the limit state R(inf) = T1(inf) R0 T2(inf)^T: l1 - l2 - l3 - l4."""
        with mpmath.workdps(self.digits):
            rho = self._state(mpmath.inf, False)
            flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
            values = mpmath.eig(rho * flip * rho.conjugate() * flip, left=False, right=False)
            roots = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in values), reverse=True)
            return roots[0] - roots[1] - roots[2] - roots[3]


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
    "q-zero-overflow" 4 gamma t is inf while e^{-2 gamma t} is 0; in "same"
    c2 is c1, so state_at builds one Kraus set for both qubits.
    """
    rng = np.random.default_rng(1919)
    flip, dis = random_flip_coupling(rng, 1.3), random_dissipative_coupling(rng, 0.7)
    appc = family_appc(0.4, gamma=1.8)
    return [
        ("flip", flip, random_flip_coupling(rng), 0.37),
        ("dissipative", dis, appc, 0.37),
        ("mixed", flip, dis, 1.1),
        ("q-zero", AMPLITUDE_DAMPING, dis, 0.8),
        ("q-zero-overflow", Coupling(AMPLITUDE_DAMPING.u, AMPLITUDE_DAMPING.v, gamma=1e300), dis, 1e10),
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


def random_coupling_at_w(rng: np.random.Generator, w_norm: float, gamma: float = 1.0) -> Coupling:
    """A coupling with |u x v| = w_norm <= 1/2: u = a e1, v = b e2 with a^2 + b^2 = 1 and a b = w_norm, then a random phase.

    The phase maps u + i v to e^{i phi} (u + i v), which keeps both u x v and
    the normalization.
    """
    e1 = random_unit(rng)
    e2 = random_unit(rng)
    e2 = e2 - (e2 @ e1) * e1
    e2 /= np.linalg.norm(e2)
    a = math.sqrt(0.5 * (1.0 + math.sqrt(1.0 - 4.0 * w_norm * w_norm)))
    u, v = a * e1, (w_norm / a) * e2
    phi = 2.0 * math.pi * rng.random()
    return Coupling(u=math.cos(phi) * u - math.sin(phi) * v, v=math.sin(phi) * u + math.cos(phi) * v, gamma=gamma)


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


def evolve_pair_loop(rho0, kraus1, kraus2) -> np.ndarray:
    """Reference pair evolution: a double loop over K_i (x) K_j, each term added to a +0 accumulator."""
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for k1 in kraus1:
        for k2 in kraus2:
            # np.kron(k1, k2) by the same products, without its per-call overhead
            k = (k1[:, None, :, None] * k2[None, :, None, :]).reshape(4, 4)
            out += k @ rho0 @ k.conj().T
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
