"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py        (from the repository root)

1. Runs every workload at a tiny size, plain and traced, and checks that
   the result line has exactly the metrics BENCHMARK.json names.
2. Feeds the checkers tampered outputs (a flipped verdict, tau shifted by
   1e-6, a wrong exit code, a census hit) and requires each to be caught.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, where it must fail without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import climix  # noqa: E402
import inputs  # noqa: E402
import numpy as np  # noqa: E402
import oracles  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--trace-rounds", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                expect(False, f"{workload} trace {trace}: no result line ({proc.stderr[-300:]})")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            numbers = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                          for m in result["metrics"].values())
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and got == want and numbers and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {result['attempted']} ops, {result['failed']} failed, "
                   f"{len(got)} metrics as named")


def _ad_plus_input() -> dict:
    u, v = np.array([math.sqrt(0.5), 0.0, 0.0]), np.array([0.0, -math.sqrt(0.5), 0.0])
    state = {"kind": "plus", "family": "plus", "alpha_sq": 0.8, "werner_p": None,
             "rho": np.outer(*(2 * [np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)], complex)]))}
    return {"class": "ad-surface", "gamma": 1.0, "u1": u, "v1": v, "u2": u, "v2": v, "state": state}


def tampered_outputs() -> None:
    import qsde

    ad = _ad_plus_input()
    tau = oracles.ad_closed_form_tau(ad)
    right = {"predicted": "not-covered", "lambda_inf": 0.0, "tau": tau, "method": "dissipative-criterion"}
    expect(oracles.check_verdict(ad, right) == [], "ad-surface closed-form output passes")
    expect(oracles.check_verdict(ad, dict(right, tau=tau + 1e-6)) != [], "ad-surface tau + 1e-6 is caught")

    diss = inputs.verdict_input(3, 1)
    c1 = qsde.Coupling(diss["u1"], diss["v1"], diss["gamma"])
    c2 = qsde.Coupling(diss["u2"], diss["v2"], diss["gamma"])
    out = qsde.sde_check(diss["state"]["rho"], c1, c2).to_dict()
    expect(oracles.check_verdict(diss, out) == [], "diss/diss program output passes")
    expect(oracles.check_verdict(diss, dict(out, predicted="no")) != [], "diss/diss flipped verdict is caught")
    expect(oracles.check_verdict(diss, dict(out, tau=out["tau"] + 1e-6)) != [], "diss/diss tau + 1e-6 is caught")
    expect(oracles.check_verdict(diss, dict(out, tau=out["tau"] - 1e-6)) != [], "diss/diss tau - 1e-6 is caught")

    flip = inputs.verdict_input(3, 0)
    d = oracles.flip_diagonal(flip["state"]["rho"], oracles.flip_axis(flip["u1"], flip["v1"]),
                              oracles.flip_axis(flip["u2"], flip["v2"]))
    lam_inf = -2.0 * math.sqrt(max(0.0, min(d[0] * d[3], d[1] * d[2])))
    flipped = "yes" if min(d) <= oracles.FLIP_ZERO_TOL else "no"
    expect(oracles.check_verdict(flip, {"predicted": flipped, "lambda_inf": lam_inf, "tau": None,
                                        "method": "flip-criterion"}) != [], "flip/flip flipped verdict is caught")

    report = qsde.run_census(1000, seed=5).to_dict()
    expect(oracles.check_census(1000, 5, report, True) == [], "census output passes")
    expect(oracles.check_census(1000, 5, dict(report, n_ad_hits=1), True) != [], "census surface hit is caught")

    ref = climix.load_reference()
    ad_json = json.loads(ref["sde-ad"]["stdout"])
    diss_json = json.loads(ref["sde-diss"]["stdout"])
    cases = (
        ("sde-ad", 0, dict(ad_json, tau=ad_json["tau"] + 1e-6), "CLI tau + 1e-6"),
        ("sde-diss", 0, dict(diss_json, predicted="no"), "CLI flipped verdict"),
    )
    for name, code, payload, what in cases:
        text = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        expect(climix.check(name, code, text, b"", ref) != [], f"{what} is caught")
    expect(climix.check("separable", 0, b"", b"", ref) != [], "CLI wrong exit code is caught")
    expect(climix.check("bad-coupling", 1, b"", b"error: x", ref) != [], "CLI exit 1 for a config error is caught")
    for name, *_ in climix.MIX:
        expect(climix.check(name, ref[name]["exit"], ref[name]["stdout"], b"error: x", ref) == [],
               f"CLI capture {name} passes its own check")


def bare_directory() -> None:
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verdict-sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and proc.stdout.strip() == "",
               f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tampered_outputs()
    bare_directory()
    tiny_runs()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
