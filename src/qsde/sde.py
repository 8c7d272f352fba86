"""Sudden-death-of-entanglement predicates and crossing detection.

Two closed-form routes cover every pair:

* flip couplings on both qubits -- sudden death occurs if and only if the
  initial state puts positive weight d[s1 s2] = tr[rho0 P_s1(a1) (x) P_s2(a2)]
  on all four products of the flip-axis eigenstates, where
  P_s(a) = (1 + s a . sigma) / 2. The long-time limit of lam is
  -2 sqrt(min(d++ d--, d+- d-+)).
* a dissipative coupling on at least one qubit -- the pair tends to a
  product state: a dissipative qubit to the Bloch vector 2 w whatever its
  input, a flip qubit to its marginal's component along u_hat. A product
  state with limit Bloch vectors a1, a2 has
  lam_inf = -1/2 sqrt((1 - |a1|^2)(1 - |a2|^2)). With both qubits
  dissipative, |u x v| != 1/2 on both is sufficient for sudden death from
  any entangled initial state; when some |w| = 1/2 (standard amplitude
  damping) the criterion is silent: sudden death may or may not occur.
  A flip qubit's limit has |a| < 1 from an entangled state, so a mixed
  flip/dissipative pair obeys the same criterion on its dissipative qubit.

The verdict comes from the criterion alone. Every route also scans for the
death time tau on the sign of mu(t) = pair.pt_min and bisects the crossing
on the sign of pair.pt_det, both negative exactly while the pair is
entangled; local channels keep separable states separable, so entanglement
holds on one interval [0, tau) and never revives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import AD_TOL, Coupling, Flip, bloch_to_rho, classify
from .errors import GridTooCoarse, InvalidInput, NotEntangled
from .linalg import IDENTITY_2, RELATIVE_SPECTRAL_ZERO, dot_sigma
from .pair import check_grid, check_state, default_grid, pt_det, pt_min, state_at
# perfbench/tracing.py wraps these three under the names sde imports them by
from .pair import concurrence, lambda_at, lambda_trajectory  # noqa: F401

# A flip-axis weight at or below this counts as zero. Each weight is a trace of
# products with no square root, so its rounding error is about eps * |rho0| ~
# 1e-16: an exact zero reads four orders of magnitude below this bound.
ZERO_DIAGONAL_TOL = 1e-12
# A long-time limit lambda_inf below -CROSSING_FLOOR guarantees a witness, so a
# scan that finds none raises GridTooCoarse; a limit at or above it, such as the
# exact 0 on the amplitude-damping surface, guarantees nothing. A witness needs
# mu >= RELATIVE_SPECTRAL_ZERO, and the limit obeys mu_inf >= lambda_inf**2 / 4
# on both routes: a product limit has mu_inf = (1 - |a1|)(1 - |a2|) / 4 and
# lambda_inf**2 = (1 - a1**2)(1 - a2**2) / 4, a flip limit mu_inf = min d and
# lambda_inf**2 = 4 min(d++ d--, d+- d-+). So lambda_inf < -2 sqrt(floor) puts
# mu_inf above the witness floor; a limit in between, such as -2e-8 at
# appc:-pi/4 + 1e-4, can leave mu under the floor (there ~1e-16) on any grid.
CROSSING_FLOOR = 2.0 * math.sqrt(RELATIVE_SPECTRAL_ZERO)
TAU_TOL = 1e-9

METHOD_FLIP = "flip-criterion"
METHOD_DISSIPATIVE = "dissipative-criterion"
METHOD_NUMERICAL = "numerical"


@dataclass(frozen=True)
class SdeVerdict:
    """Outcome of a sudden-death check.

    predicted is "yes", "no" or "not-covered", from the criterion alone;
    tau is the death time t itself (not gamma t), filled when the scan finds
    a crossing on the grid; method names the criterion's route, "numerical"
    for a mixed flip/dissipative pair.
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


def predict_dissipative(rho0, c1: Coupling, c2: Coupling) -> SdeVerdict:
    """Sudden-death verdict and long-time limit for a pair with a dissipative coupling.

    The pair tends to a product state, so lambda_inf = -1/2 sqrt((1 - |a1|^2)
    (1 - |a2|^2)) over the limit Bloch vectors: |a| = 2 |w| on a dissipative
    qubit, and on a flip qubit its marginal's component along u_hat, below 1
    for an entangled rho0. So the verdict is yes when every dissipative
    |u x v| differs from 1/2 by more than AD_TOL, for any entangled rho0,
    else "not-covered", with a flip qubit or without. Two dissipative
    couplings give METHOD_DISSIPATIVE, a mixed pair METHOD_NUMERICAL.
    """
    product, covered, mixed = 1.0, True, False
    for side, c in enumerate((c1, c2)):
        cls = classify(c)
        if isinstance(cls, Flip):
            axis = dot_sigma(cls.u_hat)
            observable = np.kron(axis, IDENTITY_2) if side == 0 else np.kron(IDENTITY_2, axis)
            a = float(np.trace(rho0 @ observable).real)
            product *= max(0.0, 1.0 - a * a)
            mixed = True
        else:
            m = float(np.linalg.norm(cls.w))
            covered = covered and abs(m - 0.5) > AD_TOL
            product *= max(0.0, 1.0 - 4.0 * m * m)
    lam_inf = -0.5 * math.sqrt(product) + 0.0
    method = METHOD_NUMERICAL if mixed else METHOD_DISSIPATIVE
    return SdeVerdict("yes" if covered else "not-covered", lam_inf, None, method)


def detect_tau(grid, state_of_t, lambda_inf: float | None = None) -> float | None:
    """The death time tau of the pair state state_of_t(t) on a grid that passes pair.check_grid.

    With floor = RELATIVE_SPECTRAL_ZERO, mu = pt_min(state_of_t(t)) is
    scanned at every grid point. The scan must start entangled,
    mu(0) < -floor, or NotEntangled is raised. The first grid point with
    mu >= floor witnesses separability. As entanglement never revives, tau
    lies between it and the point before, unless that point's mu, in
    [0, floor), sat past the crossing already: the bracket steps back while
    pt_det(state_of_t(t)), negative exactly while the pair is entangled, is
    >= 0 at its lower end. Bisection on the sign of pt_det at mid narrows
    the bracket to TAU_TOL, or until mid is no double strictly inside it,
    as happens past t = 2**23. With no witness, returns None, or raises
    GridTooCoarse if lambda_inf (when given) is below -CROSSING_FLOOR =
    -2 sqrt(floor): mu tends to at least lambda_inf**2 / 4, above floor, so
    a witness lies past the grid. With |lambda_inf| <= CROSSING_FLOOR, mu
    can stay under floor after the crossing, and tau is None although a
    crossing lies on the grid.
    """
    floor = RELATIVE_SPECTRAL_ZERO  # the partial transpose of a state has spectrum in [-1/2, 1]
    times = check_grid(grid)
    mu = [pt_min(state_of_t(t)) for t in times]
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

    while witness > 1 and pt_det(state_of_t(times[witness - 1])) >= 0.0:
        witness -= 1
    lo, hi = float(times[witness - 1]), float(times[witness])
    while hi - lo > TAU_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if pt_det(state_of_t(mid)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sde_check(rho0, c1: Coupling, c2: Coupling, grid=None) -> SdeVerdict:
    """Full sudden-death check for an entangled pair under two couplings.

    The verdict is predict_flip's when both couplings are flips and
    predict_dissipative's otherwise, mixed pairs included. tau is
    detect_tau's on the grid, whatever the verdict: a "not-covered" verdict
    can come with a finite tau, and a "yes" with None (see detect_tau).
    c1 and c2 must be Couplings, else InvalidInput names them. rho0 is
    checked here, once, by pair.check_state, and the grid by
    pair.check_grid in detect_tau; their errors propagate. A rho0 whose
    mu(0) = pt_min(rho0) is not below -RELATIVE_SPECTRAL_ZERO raises
    NotEntangled before any scan.
    """
    for field, c in (("c1", c1), ("c2", c2)):
        if not isinstance(c, Coupling):
            raise InvalidInput(field, f"expected a Coupling, got {type(c).__name__}")
    rho0 = check_state(rho0)
    mu0 = pt_min(rho0)
    if not mu0 < -RELATIVE_SPECTRAL_ZERO:
        # a two-qubit state has C = 0 exactly when its partial transpose is PSD
        raise NotEntangled(f"initial state has zero concurrence: mu(0) = {mu0:.3e}")
    cls1, cls2 = classify(c1), classify(c2)
    if grid is None:
        grid = default_grid(gamma=min(c1.gamma, c2.gamma))

    if isinstance(cls1, Flip) and isinstance(cls2, Flip):
        verdict = predict_flip(rho0, cls1.u_hat, cls2.u_hat)
    else:
        verdict = predict_dissipative(rho0, c1, c2)

    tau = detect_tau(grid, lambda t: state_at(rho0, c1, c2, t), verdict.lambda_inf)
    return replace(verdict, tau=tau)
