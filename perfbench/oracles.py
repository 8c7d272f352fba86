"""Independent checks of library outputs.

None of these call into ``qsde``: single-qubit dynamics come from the
eigendecomposition of the Bloch-equation generator, two-qubit states are
propagated as Pauli correlation matrices, and concurrence is taken from
the singular values of Wootters' symmetric matrix. Each checker returns a
list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math

import numpy as np

# Death times are bisected to 1e-9; a reported tau must sit between two
# times this far either side of it, with lam not below -LAM_ZERO before
# and not above LAM_ZERO after. LAM_ZERO is the program's own noise band
# around zero (CROSSING_FLOOR); near-flip pairs cross so slowly that a
# tighter band would judge eigensolver noise. A crossing with slope above
# 2e-3 shifted by 1e-6 fails.
TAU_BRACKET = 3e-7
LAM_ZERO = 1e-9
# The closed-form death time on the amplitude-damping surface.
TAU_CLOSED_FORM_TOL = 2e-9
LAMBDA_INF_TOL = 1e-12
# On |w| = 1/2 the closed-form lam_inf is 0; rounding in |w| enters
# through a square root.
AD_LAMBDA_INF_TOL = 1e-7
FLIP_ZERO_TOL = 1e-12
SURFACE_TOL = 1e-9

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI4 = (_I2, _SX, _SY, _SZ)
_BASIS = np.array([[np.kron(a, b) for b in _PAULI4] for a in _PAULI4])
_YY = np.kron(_SY, _SY)


def cross(a, b) -> np.ndarray:
    ax, ay, az = (float(x) for x in a)
    bx, by, bz = (float(x) for x in b)
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def w_norm(u, v) -> float:
    return float(math.sqrt(float(np.sum(cross(u, v) ** 2))))


def transfer(u, v, gamma: float, t: float) -> np.ndarray:
    """4x4 Pauli transfer matrix [[1, 0], [c, M]] of the channel at time t.

    dr/dt = A r + b with A = 4 gamma (u u^T + v v^T - 1) symmetric and
    b = 8 gamma (u x v), so r(t) = e^{At} r0 + (e^{At} - 1) A^{-1} b, taken
    eigenvalue by eigenvalue with the A -> 0 limit t.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    a = 4.0 * gamma * (np.outer(u, u) + np.outer(v, v) - np.eye(3))
    b = 8.0 * gamma * cross(u, v)
    lam, q = np.linalg.eigh(a)
    decay = np.exp(lam * t)
    integral = np.array([t if abs(x * t) < 1e-300 else math.expm1(x * t) / x for x in lam])
    out = np.zeros((4, 4))
    out[0, 0] = 1.0
    out[1:, 1:] = (q * decay) @ q.T
    out[1:, 0] = (q * integral) @ (q.T @ b)
    return out


def correlations(rho) -> np.ndarray:
    """R_ij = tr[rho sigma_i (x) sigma_j], i, j in 0..3."""
    rho = np.asarray(rho, complex)
    return np.einsum("ijab,ba->ij", _BASIS, rho).real


def state_of(r) -> np.ndarray:
    return np.einsum("ij,ijab->ab", r, _BASIS) / 4.0


def lam_of_state(rho) -> float:
    """l1 - l2 - l3 - l4 from the singular values of tau = V^T (sy sy) V.

    V holds the eigenvectors of rho scaled by the square roots of their
    eigenvalues, so V V^dag = rho; the singular values of the symmetric
    matrix tau are Wootters' roots.
    """
    rho = np.asarray(rho, complex)
    rho = 0.5 * (rho + rho.conj().T)
    p, e = np.linalg.eigh(rho)
    vecs = e * np.sqrt(np.clip(p, 0.0, None))
    roots = np.linalg.svd(vecs.T @ _YY @ vecs, compute_uv=False)
    return float(roots[0] - roots[1] - roots[2] - roots[3])


def lam_at(rho0, u1, v1, u2, v2, gamma: float, t: float) -> float:
    r = transfer(u1, v1, gamma, t) @ correlations(rho0) @ transfer(u2, v2, gamma, t).T
    return lam_of_state(state_of(r))


def check_tau_bracket(inp: dict, tau: float) -> list[str]:
    """lam changes sign from + to - across [tau - d, tau + d], up to LAM_ZERO."""
    args = (inp["state"]["rho"], inp["u1"], inp["v1"], inp["u2"], inp["v2"], inp["gamma"])
    before = lam_at(*args, max(0.0, tau - TAU_BRACKET))
    after = lam_at(*args, tau + TAU_BRACKET)
    if before > -LAM_ZERO and after < LAM_ZERO:
        return []
    return [f"tau={tau!r} does not bracket a sign change (lam {before:.3e} -> {after:.3e})"]


def flip_diagonal(rho, a1, a2) -> list[float]:
    """tr[rho P(a1) (x) P(a2)] for P = (1 +- a.sigma)/2, in ++, +-, -+, -- order."""
    def proj(a, s):
        return 0.5 * (_I2 + s * (a[0] * _SX + a[1] * _SY + a[2] * _SZ))

    rho = np.asarray(rho, complex)
    return [float(np.trace(rho @ np.kron(proj(a1, s1), proj(a2, s2))).real)
            for s1 in (1, -1) for s2 in (1, -1)]


def flip_axis(u, v) -> np.ndarray:
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    vec = u if float(u @ u) >= float(v @ v) else v
    return vec / math.sqrt(float(vec @ vec))


def ad_closed_form_tau(inp: dict) -> float | None:
    """Death time of a plus state under amplitude damping along z on both qubits.

    With both qubits decaying to the same pole and the doubly excited
    amplitude a_e above the ground amplitude a_g,
    lam(t) = 2 p (a_e a_g - a_e^2 (1 - p)), p = e^{-4 gamma t}, so
    tau = -ln(1 - a_g / a_e) / (4 gamma). Otherwise lam stays positive.
    """
    wz1 = cross(inp["u1"], inp["v1"])[2]
    wz2 = cross(inp["u2"], inp["v2"])[2]
    if (wz1 > 0) != (wz2 > 0):
        return None
    alpha = math.sqrt(inp["state"]["alpha_sq"])
    beta = math.sqrt(1.0 - inp["state"]["alpha_sq"])
    # w along -z relaxes to spin down, |1>, so |00> is doubly excited
    excited, ground = (alpha, beta) if wz1 < 0 else (beta, alpha)
    if excited <= ground:
        return None
    return -math.log(1.0 - ground / excited) / (4.0 * inp["gamma"])


def check_verdict(inp: dict, out: dict) -> list[str]:
    """Check one sde_check result ``out`` (predicted, lambda_inf, tau, method)."""
    problems = []
    cls = inp["class"]
    predicted, lam_inf, tau = out["predicted"], out["lambda_inf"], out["tau"]
    covered = out["method"] in ("flip-criterion", "dissipative-criterion") and predicted in ("yes", "no")
    if covered and (predicted == "yes") != (tau is not None):
        problems.append(f"covered verdict {predicted!r} with tau={tau!r}")
    if cls == "flip/flip":
        d = flip_diagonal(inp["state"]["rho"], flip_axis(inp["u1"], inp["v1"]), flip_axis(inp["u2"], inp["v2"]))
        want = "yes" if all(x > FLIP_ZERO_TOL for x in d) else "no"
        want_inf = -2.0 * math.sqrt(max(0.0, min(d[0] * d[3], d[1] * d[2])))
        if out["method"] != "flip-criterion" or predicted != want:
            problems.append(f"flip criterion: want {want!r}, got {predicted!r} ({out['method']})")
        if abs(lam_inf - want_inf) > LAMBDA_INF_TOL:
            problems.append(f"flip lambda_inf {lam_inf!r} != {want_inf!r}")
    elif cls in ("diss/diss", "near-flip"):
        m1, m2 = w_norm(inp["u1"], inp["v1"]), w_norm(inp["u2"], inp["v2"])
        want_inf = -0.5 * math.sqrt((1.0 - 4.0 * m1 * m1) * (1.0 - 4.0 * m2 * m2))
        if out["method"] != "dissipative-criterion" or predicted != "yes":
            problems.append(f"dissipative criterion: want 'yes', got {predicted!r} ({out['method']})")
        if abs(lam_inf - want_inf) > LAMBDA_INF_TOL:
            problems.append(f"dissipative lambda_inf {lam_inf!r} != {want_inf!r}")
    elif cls == "ad-surface":
        if out["method"] != "dissipative-criterion" or predicted != "not-covered":
            problems.append(f"ad surface: want 'not-covered', got {predicted!r} ({out['method']})")
        if abs(lam_inf) > AD_LAMBDA_INF_TOL:
            problems.append(f"ad surface lambda_inf {lam_inf!r} != 0")
        if inp["state"]["kind"] == "plus":
            want_tau = ad_closed_form_tau(inp)
            if (want_tau is None) != (tau is None) or (
                tau is not None and abs(tau - want_tau) > TAU_CLOSED_FORM_TOL
            ):
                problems.append(f"ad closed form: want tau={want_tau!r}, got {tau!r}")
    elif out["method"] != "numerical":
        problems.append(f"mixed pair: want the numerical route, got {out['method']!r}")
    if tau is not None:
        problems += check_tau_bracket(inp, tau)
    return problems


def census_stream(n: int, seed: int) -> tuple[int, int, float]:
    """(flip hits, ad hits, min |(|w| - 1/2)|) recomputed from the Philox stream.

    The census chart draws five uniforms per sample (R, t, t', p, p'),
    u = R (cos t cos p, sin t cos p, sin p) and likewise v with
    sqrt(1 - R^2); the exempt surfaces are |u x v| = 0 and 1/2.
    """
    x = np.random.Generator(np.random.Philox(seed)).random((n, 5))
    r, t1, t2, p1, p2 = x[:, 0], 2 * np.pi * x[:, 1], 2 * np.pi * x[:, 2], np.pi * x[:, 3], np.pi * x[:, 4]
    s = np.sqrt(np.clip(1.0 - r * r, 0.0, None))
    ux, uy, uz = r * np.cos(t1) * np.cos(p1), r * np.sin(t1) * np.cos(p1), r * np.sin(p1)
    vx, vy, vz = s * np.cos(t2) * np.cos(p2), s * np.sin(t2) * np.cos(p2), s * np.sin(p2)
    w = np.sqrt((uy * vz - uz * vy) ** 2 + (uz * vx - ux * vz) ** 2 + (ux * vy - uy * vx) ** 2)
    return int(np.sum(w <= SURFACE_TOL)), int(np.sum(np.abs(w - 0.5) <= SURFACE_TOL)), float(np.min(np.abs(w - 0.5)))


def check_census(n: int, seed: int, out: dict, recompute: bool) -> list[str]:
    """Echo, hit counts and closest approach of one census report.

    A tolerance band of width 1e-9 around a surface has positive measure,
    so a run of millions of samples may legitimately count a hit; what
    must hold is that the counts agree with the stream. Small calls are
    recomputed from it in full; large ones are checked for consistency
    between the AD hit count and the closest approach.
    """
    problems = []
    if out["n_samples"] != n or out["seed"] != seed:
        problems.append(f"census echoed n={out['n_samples']}, seed={out['seed']}")
    if not out["min_distance_to_ad"] >= 0.0 or (out["n_ad_hits"] > 0) != (out["min_distance_to_ad"] <= SURFACE_TOL):
        problems.append(f"census AD hits {out['n_ad_hits']} disagree with the closest approach "
                        f"{out['min_distance_to_ad']!r}")
    if recompute:
        flip, ad, min_ad = census_stream(n, seed)
        if (flip, ad) != (out["n_flip_hits"], out["n_ad_hits"]) or abs(out["min_distance_to_ad"] - min_ad) > 1e-12:
            problems.append(f"census disagrees with the stream: hits {flip}, {ad}, min distance {min_ad!r}")
    return problems
