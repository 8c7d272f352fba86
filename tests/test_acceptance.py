"""Acceptance battery.

One test per criterion, each printing a PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

Criterion 4 checks the no-sudden-death trajectory (weight 0.2 under double
amplitude damping) against its closed form 0.4 e^{-4t} (1 + e^{-4t}) at
every grid point, within the resolution of lam, instead of against an
absolute floor: the exact curve falls below 1e-9 near gamma*t ~ 4.95 and
ends at ~1.7e-18 at gamma*t = 10, so no correct program keeps lam > 1e-9
on that window.
"""

import math
import time

import numpy as np
from qsde.census import run_census
from qsde.channel import Coupling, bloch_to_rho, evolve, family_appc
from qsde.choi import choi_of_channel, completeness_residual, kraus_of_choi
from qsde.cli import main
from qsde.linalg import RELATIVE_SPECTRAL_ZERO
from qsde.pair import concurrence, initial_state, lambda_at, lambda_trajectory, pt_min, state_at
from qsde.sde import detect_tau, predict_dissipative, predict_flip

from helpers import (
    apply_channel,
    axis_frame,
    master_rhs,
    mu_scan,
    oracle_rk4_batch,
    random_bloch,
    random_density2,
    random_dissipative_coupling,
    random_flip_coupling,
    random_pure_pair,
    random_unit,
    rho_to_bloch,
)

AD = family_appc(-math.pi / 4)
OFF_AD = family_appc(-math.pi / 5)
GRID = np.linspace(0.0, 10.0, 400)

# Resolution of lam. concurrence zeroes every eigenvalue of rho below
# RELATIVE_SPECTRAL_ZERO * lambda_max(rho) before it takes sqrt(rho); a
# snapped eigenvalue mu drops a term of size sqrt(mu) from sqrt(rho), so the
# roots, and lam with them, are resolved only to
# sqrt(RELATIVE_SPECTRAL_ZERO) ~ 1.19e-7 (lambda_max <= 1). For the parallel
# state under double amplitude damping the genuine eigenvalue
# alpha^4 p^2 (1 - p)^2, p = e^{-4 gamma t}, falls under the threshold at
# gamma*t ~ 3.58; from there on lam deviates from the closed form by up to
# 1.46e-8 for weight 0.2 (6.2% high) and 4.84e-8 for weight 0.8.
LAM_RESOLUTION = math.sqrt(RELATIVE_SPECTRAL_ZERO)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def test_c01_closed_forms_match_rk4_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20250101)
    couplings, r0s = [], []
    for i in range(100):
        couplings.append(random_flip_coupling(rng) if i < 50 else random_dissipative_coupling(rng))
        r0s.append(random_bloch(rng))
    times = (0.5, 2.5, 5.0)
    # one pass integrates every coupling to t = 5, reading t = 0.5 and 2.5 on the way
    rk4 = oracle_rk4_batch(r0s, couplings, times, 1e-4)
    worst = max(
        float(np.max(np.abs(evolve(r0, c, t) - rk4[k, i])))
        for i, (r0, c) in enumerate(zip(r0s, couplings))
        for k, t in enumerate(times)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(
        "C1 closed forms vs RK4 oracle, 100 couplings",
        ok,
        f"max dev {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 30.0


def test_c02_master_equation_residual():
    rng = np.random.default_rng(20250102)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        c = random_dissipative_coupling(rng) if rng.random() < 0.5 else random_flip_coupling(rng)
        r0 = random_bloch(rng)
        for t in 0.05 + 4.0 * rng.random(10):
            fd = (evolve(r0, c, t + h) - evolve(r0, c, t - h)) / (2.0 * h)
            residual = float(np.max(np.abs(fd - master_rhs(evolve(r0, c, t), c))))
            worst = max(worst, residual)
    ok = worst < 1e-6
    _report("C2 master-equation residual at 1000 points", ok, f"max {worst:.2e}")
    assert worst < 1e-6


def test_c03_kraus_choi_round_trip():
    rng = np.random.default_rng(20250103)
    worst_action = 0.0
    worst_completeness = 0.0
    for _ in range(50):
        c = random_dissipative_coupling(rng) if rng.random() < 0.7 else random_flip_coupling(rng)
        t = 3.0 * rng.random()
        rho = random_density2(rng)
        kraus, _ = kraus_of_choi(choi_of_channel(c, t))
        worst_completeness = max(worst_completeness, completeness_residual(kraus))
        direct = bloch_to_rho(evolve(rho_to_bloch(rho), c, t))
        dev = float(np.max(np.abs(apply_channel(kraus, rho) - direct)))
        worst_action = max(worst_action, dev)
    ok = worst_action < 1e-9 and worst_completeness < 1e-9
    _report(
        "C3 Kraus/Choi round trip, 50 triples",
        ok,
        f"action {worst_action:.2e}, completeness {worst_completeness:.2e}",
    )
    assert worst_action < 1e-9
    assert worst_completeness < 1e-9


def _lam_and_mu(rho, c1, c2, grid):
    """lam and mu at every grid point, from one evolved state per point."""
    states = [state_at(rho, c1, c2, t) for t in grid]
    return [concurrence(s).lam for s in states], [pt_min(s) for s in states]


def test_c04_parallel_state_amplitude_damping():
    start = time.perf_counter()
    results = {}
    for alpha_sq in (0.2, 0.5, 0.8):
        rho = initial_state("plus", alpha_sq)
        lams, mus = _lam_and_mu(rho, AD, AD, GRID)
        tau = detect_tau(
            GRID, mus, lambda t: pt_min(state_at(rho, AD, AD, t)), lambda_inf=0.0
        )
        results[alpha_sq] = (lams, tau)
    elapsed = time.perf_counter() - start

    lams02, tau02 = results[0.2]
    # lam = 2 p (alpha beta - alpha^2 (1 - p)) with p = e^{-4 gamma t}; at
    # weight 0.2 this is 0.4 p (1 + p), positive but decaying through any
    # fixed floor, and tau02 is None. lam is pinned to the exact curve
    # within LAM_RESOLUTION.
    worst_dev_02 = max(
        abs(lam - 0.4 * math.exp(-4.0 * t) * (1.0 + math.exp(-4.0 * t)))
        for t, lam in zip(GRID, lams02)
    )
    lams05, tau05 = results[0.5]
    _, tau08 = results[0.8]
    lam_at_tau = abs(lambda_at(initial_state("plus", 0.8), AD, AD, tau08)) if tau08 else math.inf

    ok_crossings = (
        tau02 is None
        and tau05 is None
        and abs(lams05[-1]) <= 1e-6
        and tau08 is not None
        and lam_at_tau <= 1e-6
    )
    ok_curve = len(lams02) == GRID.size and worst_dev_02 <= LAM_RESOLUTION
    ok_time = elapsed < 10.0
    tau08_text = "None" if tau08 is None else f"{tau08:.6f}"
    _report(
        "C4 weight-0.2/0.5/0.8 crossings under double amplitude damping",
        ok_crossings,
        f"tau(0.8) = {tau08_text}",
    )
    _report(
        "C4 weight-0.2 lam on the closed form 0.4 e^(-4t)(1+e^(-4t)) at every grid point",
        ok_curve,
        f"max dev {worst_dev_02:.2e}, resolution {LAM_RESOLUTION:.2e}",
    )
    _report("C4 wall time under 10 s", ok_time, f"{elapsed:.1f}s")
    assert ok_crossings
    assert ok_curve
    assert ok_time


def test_c05_antiparallel_states():
    lams = {}
    taus = {}
    for theta, label in ((-math.pi / 4, "ad"), (-math.pi / 5, "offad")):
        c = family_appc(theta)
        for alpha_sq in (0.2, 0.5, 0.8):
            rho = initial_state("minus", alpha_sq)
            lams[(label, alpha_sq)], mus = _lam_and_mu(rho, c, c, GRID)
            taus[(label, alpha_sq)] = detect_tau(
                GRID, mus, lambda t: pt_min(state_at(rho, c, c, t)), lambda_inf=None
            )
    identical = max(
        abs(a - b) for a, b in zip(lams[("ad", 0.2)], lams[("ad", 0.8)])
    )
    no_sde_ad = all(taus[("ad", a)] is None for a in (0.2, 0.5, 0.8))
    all_sde_off = all(taus[("offad", a)] is not None for a in (0.2, 0.5, 0.8))
    lam_at_taus = max(
        abs(lambda_at(initial_state("minus", a), OFF_AD, OFF_AD, taus[("offad", a)]))
        for a in (0.2, 0.5, 0.8)
    )
    ok = identical <= 1e-10 and no_sde_ad and all_sde_off and lam_at_taus <= 1e-6
    _report(
        "C5 antiparallel states: damping-free subspace and off-angle sudden death",
        ok,
        f"0.2-vs-0.8 max diff {identical:.2e}, off-angle lam(tau) {lam_at_taus:.2e}",
    )
    assert identical <= 1e-10
    assert no_sde_ad
    assert all_sde_off
    assert lam_at_taus <= 1e-6


def test_c06_flip_criterion_equivalence_200_cases():
    start = time.perf_counter()
    rng = np.random.default_rng(20250106)
    grid = np.linspace(0.0, 12.0, 241)
    mismatches = 0
    n_yes = 0
    for case in range(200):
        a1, a2 = random_unit(rng), random_unit(rng)
        if case % 2 == 0:
            rho, _ = random_pure_pair(rng, min_concurrence=0.2)
        else:
            canonical = initial_state("plus", 0.2 + 0.6 * rng.random())
            big = np.kron(axis_frame(a1), axis_frame(a2))
            rho = big @ canonical @ big.conj().T
        c1 = Coupling(u=a1, v=np.zeros(3))
        c2 = Coupling(u=a2, v=np.zeros(3))
        verdict = predict_flip(rho, a1, a2)
        tau = detect_tau(*mu_scan(rho, c1, c2, grid), lambda_inf=verdict.lambda_inf)
        if (tau is not None) != (verdict.predicted == "yes"):
            mismatches += 1
        n_yes += verdict.predicted == "yes"
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _report(
        "C6 flip criterion vs numerics, 200 cases",
        ok,
        f"{mismatches} mismatches, {n_yes} sudden-death cases, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 120.0


def test_c07_dissipative_lambda_inf_closed_form():
    rng = np.random.default_rng(20250107)
    worst = 0.0
    for _ in range(50):
        # |u x v| >= 0.42 keeps the slowest relaxation rate 2(1 - 2q)
        # above ~0.9, so the state has converged by gamma*t = 20
        c1 = random_dissipative_coupling(rng, min_w=0.42)
        c2 = random_dissipative_coupling(rng, min_w=0.42)
        rho, _ = random_pure_pair(rng, min_concurrence=0.2)
        verdict = predict_dissipative(c1, c2)
        dev = abs(verdict.lambda_inf - lambda_at(rho, c1, c2, 20.0))
        worst = max(worst, dev)
    # pinned value for theta = -pi/5 on both qubits
    pinned = -0.04774575140626315  # -cos^2(2 pi / 5) / 2
    verdict = predict_dissipative(OFF_AD, OFF_AD)
    formula_dev = abs(verdict.lambda_inf - pinned)
    sim_dev = abs(
        verdict.lambda_inf
        - lambda_at(initial_state("plus", 0.5), OFF_AD, OFF_AD, 20.0)
    )
    ok = worst < 1e-6 and formula_dev <= 1e-9 and sim_dev <= 1e-6
    _report(
        "C7 dissipative lambda_inf closed form vs simulation",
        ok,
        f"50-pair max dev {worst:.2e}, pinned-angle formula dev {formula_dev:.1e}",
    )
    assert worst < 1e-6
    assert formula_dev <= 1e-9
    assert sim_dev <= 1e-6


def test_c08_census_zero_hits():
    start = time.perf_counter()
    report = run_census(100_000, seed=424242)
    elapsed = time.perf_counter() - start
    again = run_census(100_000, seed=424242)
    ok = (
        report.n_flip_hits == 0
        and report.n_ad_hits == 0
        and report == again
        and elapsed < 10.0
    )
    _report(
        "C8 census: 1e5 samples, zero exempt-surface hits",
        ok,
        f"min |w|-distance to 1/2: {report.min_distance_to_ad:.2e}, {elapsed:.2f}s",
    )
    assert report.n_flip_hits == 0
    assert report.n_ad_hits == 0
    assert report == again
    assert elapsed < 10.0


def test_c09_concurrence_units_and_monotonicity():
    bell = concurrence(initial_state("plus", 0.5))
    product = concurrence(np.diag([1.0, 0, 0, 0]).astype(complex))
    mixed = concurrence(np.eye(4, dtype=complex) / 4.0)
    units_ok = (
        abs(bell.concurrence - 1.0) <= 1e-12
        and product.concurrence == 0.0
        and abs(mixed.lam + 0.5) <= 1e-12
    )

    rng = np.random.default_rng(20250109)
    grid = np.linspace(0.0, 6.0, 120)
    worst_increase = -math.inf
    for _ in range(100):
        c1 = random_dissipative_coupling(rng) if rng.random() < 0.5 else random_flip_coupling(rng)
        c2 = random_dissipative_coupling(rng) if rng.random() < 0.5 else random_flip_coupling(rng)
        rho, _ = random_pure_pair(rng)
        conc = [row[2] for row in lambda_trajectory(rho, c1, c2, grid)]
        worst_increase = max(worst_increase, float(np.max(np.diff(conc))))
    ok = units_ok and worst_increase <= 1e-9
    _report(
        "C9 concurrence units and Markovian monotonicity",
        ok,
        f"worst step increase {worst_increase:.2e}",
    )
    assert units_ok
    assert worst_increase <= 1e-9


def test_c10_bloch_export_flip_ellipsoid(tmp_path):
    out = tmp_path / "bloch.csv"
    code = main(
        [
            "bloch-export",
            "--coupling", "uv:0,0,1;0,0,0",
            "--times", "0.3,0.7",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().split("\n")
    worst = 0.0
    for line in lines[1:-1]:
        row = [float(x) for x in line.split(",")]
        t, r0, r = row[0], np.array(row[1:4]), np.array(row[4:7])
        scale = math.exp(-4.0 * t)
        worst = max(
            worst,
            abs(r[2] - r0[2]),
            abs(r[0] - scale * r0[0]),
            abs(r[1] - scale * r0[1]),
        )
    ok = worst <= 1e-9 and len(lines) == 2 + 2 * 642
    _report(
        "C10 exported Bloch ellipsoid axes (1, e^-4t, e^-4t)",
        ok,
        f"max axis deviation {worst:.2e}",
    )
    assert len(lines) == 2 + 2 * 642
    assert worst <= 1e-9
