"""Sudden-death-of-entanglement predicates and crossing detection.

Two closed-form criteria cover the pure regimes:

* flip couplings on both qubits -- sudden death occurs if and only if the
  initial state puts positive weight d[s1 s2] = tr[rho0 P_s1(a1) (x) P_s2(a2)]
  on all four products of the flip-axis eigenstates, where
  P_s(a) = (1 + s a . sigma) / 2. The long-time limit of lam is
  -2 sqrt(min(d++ d--, d+- d-+)).
* dissipative couplings on both qubits -- |u x v| != 1/2 on both qubits is
  sufficient for sudden death from any entangled initial state, with
  lam_inf = -1/2 sqrt((1 - |2 w1|^2)(1 - |2 w2|^2)). When some |w| = 1/2
  (standard amplitude damping) the criterion is silent: sudden death may
  or may not occur.

Mixed flip/dissipative pairs are handled numerically from the lam(t)
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import AD_TOL, Coupling, Dissipative, Flip, bloch_to_rho, classify
from .errors import GridTooCoarse, NotEntangled
from .pair import check_state, concurrence, default_grid, lambda_at, lambda_trajectory

# A flip-axis weight at or below this counts as zero. Each weight is a trace of
# products with no square root, so its rounding error is about eps * |rho0| ~
# 1e-16: an exact zero reads four orders of magnitude below this bound.
ZERO_DIAGONAL_TOL = 1e-12
# lam values inside (-CROSSING_FLOOR, CROSSING_FLOOR) count as zero, so only a
# drop below -CROSSING_FLOOR counts as a genuine sign change. The floor keeps
# rounding noise on a lam at or near zero from reading as a crossing; it is
# not the resolution of lam. concurrence snaps eigenvalues below RELATIVE_SPECTRAL_ZERO times the
# largest, so lam is resolved only to sqrt(RELATIVE_SPECTRAL_ZERO) ~ 1.2e-7:
# the measured drift from the closed form on the amplitude-damping surface is
# 1.5e-8 to 4.8e-8, 15 to 48 times this floor. Inside that band the sign of
# lam is not meaningful (the weight-0.8 parallel state under double damping
# reads +2.0e-14 at gamma*t ~ 7.92, where the closed form gives -1.4e-14).
CROSSING_FLOOR = 1e-9
GAP_TOL = 0.5
TAU_TOL = 1e-9

METHOD_FLIP = "flip-criterion"
METHOD_DISSIPATIVE = "dissipative-criterion"
METHOD_NUMERICAL = "numerical"


@dataclass(frozen=True)
class SdeVerdict:
    """Outcome of a sudden-death check.

    predicted is "yes", "no" or "not-covered"; tau (time units 1/gamma) is
    filled when a crossing was located numerically; method records which
    criterion produced the verdict.
    """

    predicted: str
    lambda_inf: float
    tau: float | None
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


def predict_flip(rho0, u_hat1, u_hat2) -> SdeVerdict:
    """Necessary-and-sufficient sudden-death verdict for two flip couplings.

    rho0 must be entangled (sde_check establishes it). The answer is yes
    exactly when the weights d[s1 s2] = tr[rho0 P_s1(u_hat1) (x) P_s2(u_hat2)],
    with P_s(a) = bloch_to_rho(s a), all exceed ZERO_DIAGONAL_TOL.
    """
    signs = (1.0, -1.0)
    d = [float(np.trace(rho0 @ np.kron(bloch_to_rho(s1 * u_hat1), bloch_to_rho(s2 * u_hat2))).real)
         for s1 in signs for s2 in signs]
    lam_inf = -2.0 * math.sqrt(max(min(d[0] * d[3], d[1] * d[2]), 0.0)) + 0.0
    predicted = "yes" if min(d) > ZERO_DIAGONAL_TOL else "no"
    return SdeVerdict(predicted, lam_inf, None, METHOD_FLIP)


def predict_dissipative(c1: Coupling, c2: Coupling) -> SdeVerdict:
    """Sufficient sudden-death verdict for two couplings that are both dissipative.

    Yes whenever both |u x v| differ from 1/2 by more than AD_TOL; this
    holds for every entangled initial state. If either qubit sits on the
    amplitude-damping surface |w| = 1/2 the criterion does not decide and
    the verdict is "not-covered".
    """
    magnitudes = [float(np.linalg.norm(classify(c).w)) for c in (c1, c2)]
    covered = all(abs(m - 0.5) > AD_TOL for m in magnitudes)
    product = 1.0
    for m in magnitudes:
        product *= max(0.0, 1.0 - 4.0 * m * m)
    lam_inf = -0.5 * math.sqrt(product) + 0.0
    return SdeVerdict("yes" if covered else "not-covered", lam_inf, None, METHOD_DISSIPATIVE)


def detect_tau(traj, lambda_of_t, lambda_inf: float | None = None) -> float | None:
    """Locate the first time lam(t) crosses zero on a trajectory.

    ``traj`` is a sequence of (t, lam, ...) records with lam(0) > 0. A
    crossing is registered when lam drops below -1e-9 (values inside the
    noise band around zero do not count). The bracket is then refined to
    TAU_TOL by bisection on ``lambda_of_t``, recomputed from the exact
    channel at each candidate time.

    Returns None when lam stays positive on the whole grid and the supplied
    lambda_inf (if any) is >= -1e-9. Raises GridTooCoarse when the bracket
    spans more than GAP_TOL in time, or when the grid ends before a
    crossing that lambda_inf < -1e-9 guarantees.
    """
    times = [float(row[0]) for row in traj]
    lams = [float(row[1]) for row in traj]
    if not lams or lams[0] <= 0.0:
        raise ValueError("trajectory must start with lam(0) > 0")

    neg = next((i for i, lam in enumerate(lams) if lam < -CROSSING_FLOOR), None)
    if neg is None:
        if lambda_inf is not None and lambda_inf < -CROSSING_FLOOR:
            raise GridTooCoarse(
                "lam stays positive on the grid but its long-time limit is "
                f"{lambda_inf:.3e}; extend the grid past the crossing"
            )
        return None

    pos = neg - 1
    while pos > 0 and lams[pos] <= CROSSING_FLOOR:
        pos -= 1
    if lams[pos] <= 0.0:
        raise GridTooCoarse("no clearly positive point precedes the crossing")
    if times[neg] - times[pos] > GAP_TOL:
        raise GridTooCoarse(
            f"sign change straddles a gap of {times[neg] - times[pos]:.3g} "
            f"(> {GAP_TOL:g}) in time"
        )

    lo, hi = times[pos], times[neg]
    while hi - lo > TAU_TOL:
        mid = 0.5 * (lo + hi)
        if lambda_of_t(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sde_check(rho0, c1: Coupling, c2: Coupling, grid=None) -> SdeVerdict:
    """Full sudden-death check for an entangled pair under two couplings.

    Dispatches to the flip or dissipative criterion when both couplings
    share a class, otherwise falls back to the numerical route. In every
    case the lam(t) trajectory is scanned and tau is filled when a crossing
    lies on the grid (the dissipative "not-covered" verdict can still come
    with a finite tau). rho0 is checked here, once, by pair.check_state,
    whose errors propagate. A separable rho0 raises NotEntangled, and so
    does one whose scan reads lam(0) <= 0.
    """
    rho0 = check_state(rho0)
    if concurrence(rho0).concurrence <= 0.0:
        raise NotEntangled("initial state has zero concurrence")
    cls1, cls2 = classify(c1), classify(c2)
    gamma_min = min(c1.gamma, c2.gamma)
    if grid is None:
        grid = default_grid(gamma=gamma_min)

    if isinstance(cls1, Flip) and isinstance(cls2, Flip):
        verdict = predict_flip(rho0, cls1.u_hat, cls2.u_hat)
    elif isinstance(cls1, Dissipative) and isinstance(cls2, Dissipative):
        verdict = predict_dissipative(c1, c2)
    else:
        lam_late = lambda_at(rho0, c1, c2, 20.0 / gamma_min)
        verdict = SdeVerdict("no", lam_late, None, METHOD_NUMERICAL)

    traj = lambda_trajectory(rho0, c1, c2, grid)
    if traj[0][1] <= 0.0:  # at the separable boundary the Kraus route can read lam(0) <= 0
        raise NotEntangled(f"initial state is not entangled on the scan: lam(0) = {traj[0][1]:.3e}")
    tau = detect_tau(
        traj,
        lambda_of_t=lambda t: lambda_at(rho0, c1, c2, t),
        lambda_inf=verdict.lambda_inf,
    )
    if verdict.method == METHOD_NUMERICAL:
        verdict = replace(verdict, predicted="yes" if tau is not None else "no")
    return replace(verdict, tau=tau)
