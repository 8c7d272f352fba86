"""Single-qubit open-system dynamics for couplings lambda = u + i v.

A qubit coupled through the single operator L = (u + i v) . sigma to a
zero-temperature Markovian environment with rate ``gamma`` relaxes
according to a master equation whose Bloch-vector form is

    dr/dt = 4 gamma { u (u.r) + v (v.r) + 2 w - r },    w = u x v,

with the normalization |u|^2 + |v|^2 = 1. The geometry of (u, v) splits
the dynamics into two closed-form regimes:

* flip        -- u, v linearly dependent (w = 0). The component of r along
                 u_hat is conserved and the orthogonal components decay as
                 exp(-4 gamma t). Generalizes the bit/phase/bit-phase flip
                 channels, which are u_hat = x/y/z respectively.
* dissipative -- u, v linearly independent (w != 0). Every initial state
                 relaxes toward the fixed point r = 2 w. Standard amplitude
                 damping is exactly the case |w| = 1/2, where the fixed
                 point is pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput
from .linalg import IDENTITY_2, dot_sigma

# Off by delta, the amplitude-damping fixed point 2 w lies delta outside the Bloch
# ball: a Choi eigenvalue of -delta / 2, 2e4 times inside linalg.PSD_ABORT_TOL.
NORMALIZATION_TOL = 1e-12
# Below this |u x v| the dissipative formulas divide by ~0 and lose all
# precision, so the coupling is treated as flip.
FLIP_TOL = 1e-9
# Couplings with ||u x v| - 1/2| <= AD_TOL count as standard amplitude
# damping, where the dissipative sudden-death criterion does not decide.
AD_TOL = 1e-9


def check_array(value, field: str, kinds: str) -> np.ndarray:
    """value as a numpy array whose dtype kind is one of kinds: "iuf" for real, "iufc" for complex.

    Text, bools, objects and ragged nestings raise InvalidInput naming field,
    where a plain np.asarray(value, dtype) would parse "0.5", take True as 1
    or fail with a ValueError or TypeError of its own.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise InvalidInput(field, "expected an array of numbers, got a ragged nesting") from None
    if arr.dtype.kind not in kinds:
        wanted = "numbers" if "c" in kinds else "real numbers"
        raise InvalidInput(field, f"expected {wanted}, got dtype {arr.dtype}")
    return arr


def check_real(value, field: str) -> float:
    """value as a float when it is a finite real number, numpy's too, but no bool or text."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise InvalidInput(field, f"expected a finite real number, got {value!r}")


def _read_only(arr) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _vector3(value, name: str) -> np.ndarray:
    arr = np.asarray(check_array(value, name, "iuf"), dtype=float)
    if arr.shape != (3,):
        raise InvalidInput(name, f"must be a real 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(name, "must be finite")
    return _read_only(arr)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Environment coupling lambda = u + i v with decay rate gamma.

    The vectors must satisfy |u|^2 + |v|^2 = 1; gamma is the (positive)
    rate constant of the master equation, in inverse time units.
    """

    u: np.ndarray
    v: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        u = _vector3(self.u, "u")
        v = _vector3(self.v, "v")
        norm2 = float(u @ u + v @ v)
        if norm2 < NORMALIZATION_TOL:
            raise InvalidInput("coupling", "u and v are both zero vectors")
        if abs(norm2 - 1.0) > NORMALIZATION_TOL:
            raise InvalidInput(
                "coupling", f"|u|^2 + |v|^2 = {norm2!r} must equal 1 within {NORMALIZATION_TOL:.0e}"
            )
        gamma = check_real(self.gamma, "gamma")
        if not gamma > 0.0:
            raise InvalidInput("gamma", "gamma must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "gamma", gamma)

    @cached_property
    def regime(self) -> Flip | Dissipative:
        """Flip frame if |u x v| <= FLIP_TOL, else Dissipative; derived on first use and kept."""
        u, v = self.u, self.v
        norm_u = float(np.linalg.norm(u))
        norm_v = float(np.linalg.norm(v))
        w = np.cross(u, v)
        norm_w = float(np.linalg.norm(w))
        if norm_w <= FLIP_TOL:
            axis = u / norm_u if norm_u >= FLIP_TOL else v / norm_v
            return Flip(u_hat=_read_only(axis))
        chi = 0.5 * (norm_u**2 - norm_v**2)
        return Dissipative(
            u=u,
            v=v,
            w=_read_only(w),
            chi=chi,
            q=math.hypot(chi, float(u @ v)),
            v_cross_w=_read_only(np.cross(v, w)),
            w_cross_u=_read_only(np.cross(w, u)),
        )


@dataclass(frozen=True, eq=False)
class Flip:
    """Flip-type coupling: u, v parallel; dynamics set by the axis u_hat."""

    u_hat: np.ndarray


@dataclass(frozen=True, eq=False)
class Dissipative:
    """Dissipative coupling: u, v independent, with the derived frame data.

    w = u x v, chi = (|u|^2 - |v|^2) / 2 and q = sqrt(chi^2 + (u.v)^2)
    control the transverse decay rates 2 gamma (1 -+ 2 q). v x w and w x u
    project r onto u and v. Coupling.regime builds the frame whole, once.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    chi: float
    q: float
    v_cross_w: np.ndarray
    w_cross_u: np.ndarray


def classify(coupling: Coupling) -> Flip | Dissipative:
    """The coupling's flip or dissipative frame (see Coupling.regime)."""
    return coupling.regime


def bloch_to_rho(r) -> np.ndarray:
    """Density matrix (1 + r . sigma) / 2 of a Bloch vector, or one per row of an (n, 3) stack."""
    return 0.5 * (IDENTITY_2 + dot_sigma(r))


def evolve_flip(r0, u_hat, gamma: float, t: float) -> np.ndarray:
    """Propagate a Bloch vector, or each row of an (n, 3) stack, under a flip coupling.

    r(t) = exp(-4 gamma t) r0 + (1 - exp(-4 gamma t)) (r0 . u_hat) u_hat:
    the u_hat component is conserved, the rest decays at rate 4 gamma.
    """
    t = float(t)  # a Python float overflows to inf without a numpy warning
    parallel = (r0 @ u_hat)[..., None] * u_hat
    return parallel + math.exp(-4.0 * gamma * t) * (r0 - parallel)


def kraus_flip(u_hat, gamma: float, t: float) -> np.ndarray:
    """Kraus pair of the flip channel at time t, as a (2, 2, 2) stack.

    K1 = sqrt(p) 1, K2 = sqrt(1 - p) (u_hat . sigma), p = (1 + e^{-4 gamma t}) / 2.
    """
    p = 0.5 * (1.0 + math.exp(-4.0 * gamma * float(t)))
    return np.stack([
        math.sqrt(p) * IDENTITY_2,
        math.sqrt(1.0 - p) * dot_sigma(u_hat),
    ])


def evolve_dissipative(r0, dis: Dissipative, gamma: float, t: float) -> np.ndarray:
    """Propagate a Bloch vector, or each row of an (n, 3) stack, under a dissipative coupling.

    Decomposes r(t) = f(t) u + g(t) v + h(t) w. The w component relaxes as
    h(t) = 2 - (2 - r0.w / |w|^2) e^{-4 gamma t}; the (f, g) pair obeys
    [f, g]' = -2 gamma [f, g] + 4 gamma [(u.v) sx + chi sz] [f, g], so it is
    mixed by cosh(4 gamma q t) 1 + sinh(4 gamma q t) [(u.v) sx + chi sz]/q
    times e^{-2 gamma t}, evaluated here in an overflow-free form. The q -> 0
    limit (standard amplitude damping) is taken analytically. The time's
    exponentials are taken once, however many rows r0 has.
    """
    t = float(t)  # a Python float overflows to inf without a numpy warning
    u, v, w = dis.u, dis.v, dis.w
    wn2 = float(w @ w)
    f0 = (r0 @ dis.v_cross_w) / wn2
    g0 = (r0 @ dis.w_cross_u) / wn2
    h = 2.0 - (2.0 - (r0 @ w) / wn2) * math.exp(-4.0 * gamma * t)

    q, chi, uv = dis.q, dis.chi, float(u @ v)
    # e^{-2 g t} cosh(4 g q t) and e^{-2 g t} sinh(4 g q t)/q written via
    # e^{-2 g (1 +- 2 q) t}; q < 1/2 keeps every exponent negative. expm1
    # preserves the small-q*t regime; past its overflow threshold the
    # smaller exponential has underflowed and plain subtraction is exact. At
    # q == 0, s = 4 g t ep is 0 once ep underflows, where 4 g t may be inf.
    arg = 8.0 * gamma * q * t
    ep = math.exp(-2.0 * gamma * (1.0 + 2.0 * q) * t)
    if q == 0.0:
        s = 4.0 * gamma * t * ep if ep else 0.0
    elif arg <= 700.0:
        s = ep * math.expm1(arg) / (2.0 * q)
    else:
        s = (math.exp(-2.0 * gamma * (1.0 - 2.0 * q) * t) - ep) / (2.0 * q)
    c = ep + q * s
    f = (c + chi * s) * f0 + uv * s * g0
    g = uv * s * f0 + (c - chi * s) * g0
    return f[..., None] * u + g[..., None] * v + h[..., None] * w


def evolve(r0, coupling: Coupling, t: float) -> np.ndarray:
    """Propagate a Bloch vector, or each row of an (n, 3) stack, dispatching on the coupling class.

    A stack goes through the same closed form as a single vector, row by
    row, with the time's exponentials taken once. Its dot products run as
    one matrix-vector product, so a general row can differ from a separate
    call in the last bit; a row that is +-e_k, whose dots are exact, cannot.
    """
    cls = classify(coupling)
    if isinstance(cls, Flip):
        return evolve_flip(r0, cls.u_hat, coupling.gamma, t)
    return evolve_dissipative(r0, cls, coupling.gamma, t)


def asymptote(coupling: Coupling, r0) -> np.ndarray:
    """Long-time limit of the Bloch vector.

    Flip couplings keep the projection (r0 . u_hat) u_hat; dissipative ones
    forget r0 entirely and converge to 2 w.
    """
    cls = classify(coupling)
    if isinstance(cls, Flip):
        return float(r0 @ cls.u_hat) * cls.u_hat
    return 2.0 * cls.w


def family(theta: float, phi: float, gamma: float = 1.0) -> Coupling:
    """Two-angle coupling family with orthogonal u, v.

    u = sin(phi) cos(theta) x + cos(phi) z and v = -sin(phi) sin(theta) y,
    normalized by construction. phi = pi/2, |theta| = pi/4 gives standard
    amplitude damping; theta = 0 or phi in {0, pi} degenerates to a flip.
    """
    theta, phi = check_real(theta, "theta"), check_real(phi, "phi")
    sin_phi = math.sin(phi)
    u = np.array([sin_phi * math.cos(theta), 0.0, math.cos(phi)])
    v = np.array([0.0, -sin_phi * math.sin(theta), 0.0])
    return Coupling(u=u, v=v, gamma=gamma)


def family_appc(theta: float, gamma: float = 1.0) -> Coupling:
    """One-angle coupling family u = cos(theta) x, v = sin(theta) y.

    |u x v| = |sin(2 theta)| / 2, so theta = -pi/4 is standard amplitude
    damping and theta in {0, pi/2, pi, ...} degenerates to a flip.
    """
    theta = check_real(theta, "theta")
    u = np.array([math.cos(theta), 0.0, 0.0])
    v = np.array([0.0, math.sin(theta), 0.0])
    return Coupling(u=u, v=v, gamma=gamma)
