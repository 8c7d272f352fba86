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

Mixed flip/dissipative pairs are handled numerically. Every route scans
for the death time tau on the sign of mu(t) = pair.pt_min, negative exactly
while the pair is entangled; local channels keep separable states
separable, so entanglement holds on one interval [0, tau) and never revives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import AD_TOL, Coupling, Dissipative, Flip, bloch_to_rho, classify
from .errors import GridTooCoarse, NotEntangled
from .linalg import RELATIVE_SPECTRAL_ZERO
from .pair import check_grid, check_state, default_grid, lambda_at, pt_min, state_at
# perfbench/tracing.py wraps these two under the names sde imports them by
from .pair import concurrence, lambda_trajectory  # noqa: F401

# A flip-axis weight at or below this counts as zero. Each weight is a trace of
# products with no square root, so its rounding error is about eps * |rho0| ~
# 1e-16: an exact zero reads four orders of magnitude below this bound.
ZERO_DIAGONAL_TOL = 1e-12
# A long-time limit lambda_inf below -CROSSING_FLOOR guarantees a crossing, so
# a scan that finds none raises GridTooCoarse; a limit at or above it, such as
# the exact 0 on the amplitude-damping surface, guarantees nothing. The floor
# sits above the ~1e-12 rounding of the closed forms for lambda_inf.
CROSSING_FLOOR = 1e-9
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


def detect_tau(times, mu, mu_of_t, lambda_inf: float | None = None) -> float | None:
    """The death time tau from mu = mu_of_t(times) on a grid that passes pair.check_grid.

    With floor = RELATIVE_SPECTRAL_ZERO, the scan must start entangled,
    mu[0] < -floor, or NotEntangled is raised. The first grid point with
    mu >= floor witnesses separability; as entanglement never revives, tau
    lies between it and the grid point before, and bisection on
    mu_of_t(mid) >= floor narrows that bracket to TAU_TOL. With no witness,
    returns None, or raises GridTooCoarse if lambda_inf (when given) is below
    -CROSSING_FLOOR and so guarantees a crossing past the grid.
    """
    floor = RELATIVE_SPECTRAL_ZERO  # the partial transpose of a state has spectrum in [-1/2, 1]
    if not mu[0] < -floor:
        raise NotEntangled(f"initial state is not entangled on the scan: mu(0) = {mu[0]:.3e}")
    witness = next((i for i, m in enumerate(mu) if m >= floor), None)
    if witness is None:
        if lambda_inf is not None and lambda_inf < -CROSSING_FLOOR:
            raise GridTooCoarse(
                "the grid ends before the crossing that the long-time limit "
                f"lambda_inf = {lambda_inf:.3e} guarantees; extend the grid"
            )
        return None

    lo, hi = float(times[witness - 1]), float(times[witness])
    while hi - lo > TAU_TOL:
        mid = 0.5 * (lo + hi)
        if mu_of_t(mid) >= floor:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sde_check(rho0, c1: Coupling, c2: Coupling, grid=None) -> SdeVerdict:
    """Full sudden-death check for an entangled pair under two couplings.

    Dispatches to the flip or dissipative criterion when both couplings
    share a class, otherwise falls back to the numerical route. In every
    case mu(t) is scanned on the grid and tau is filled when a crossing
    lies on it (the dissipative "not-covered" verdict can still come with a
    finite tau). rho0 is checked here, once, by pair.check_state, and the
    grid by pair.check_grid; their errors propagate. A rho0 whose
    mu(0) = pt_min(rho0) is not below -RELATIVE_SPECTRAL_ZERO raises
    NotEntangled before any scan; detect_tau applies the same test to the
    scan's first point.
    """
    rho0 = check_state(rho0)
    mu0 = pt_min(rho0)
    if not mu0 < -RELATIVE_SPECTRAL_ZERO:
        # a two-qubit state has C = 0 exactly when its partial transpose is PSD
        raise NotEntangled(f"initial state has zero concurrence: mu(0) = {mu0:.3e}")
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

    def mu_of_t(t):
        return pt_min(state_at(rho0, c1, c2, t))

    times = check_grid(grid)
    tau = detect_tau(times, [mu_of_t(t) for t in times], mu_of_t, verdict.lambda_inf)
    if verdict.method == METHOD_NUMERICAL:
        verdict = replace(verdict, predicted="yes" if tau is not None else "no")
    return replace(verdict, tau=tau)
