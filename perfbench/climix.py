"""The cli-mix workload: a fixed mix of ``qsde`` command lines and their checks.

Expected outputs were captured from the CLI at commit 5b03e5a (see
capture_reference.py) and are compared semantically: exit code, JSON keys,
CSV header and row count, and every number within FLOAT_ATOL + FLOAT_RTOL
|expected| (TAU_ATOL for a death time). Where the paper gives a closed
form, the expectation is the closed form, not the captured number.
Byte-for-byte equality with the capture is reported apart, as a byte
mismatch, so a legitimate refinement in the last digits is not a failure.

Pure Python: the client process that runs this mix never imports numpy, so
its own memory does not show up in the children's peak RSS.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
WERNER_FILE = "werner.json"
WERNER_P = 0.8

FLOAT_ATOL = 1e-12
FLOAT_RTOL = 1e-12
# sde_check bisects tau to 1e-9; a closed-form tau may sit anywhere in
# that bracket.
TAU_ATOL = 2e-9
# lam comes from square roots of eigenvalues that the program snaps to
# zero below 64 eps of the largest (RELATIVE_SPECTRAL_ZERO), so a root,
# and lam with it, is resolved only to sqrt(64 eps) ~ 1.2e-7. The same
# bound covers lam_inf = 0 on the amplitude-damping surface, where the
# rounding of |w| enters through a square root.
LAM_ATOL = math.sqrt(64.0 * 2.220446049250313e-16)

AD = "appc:-0.7853981633974483"

# (name, label, argv, expected exit code). The label groups the per-command
# breakdown: the subcommand, or the kind of deliberate error.
MIX = (
    ("sde-ad", "sde-check", ["sde-check", "--coupling1", AD, "--coupling2", AD, "--state", "plus:0.8"], 0),
    ("sde-diss", "sde-check", ["sde-check", "--coupling1", "family:0.4,1.2", "--coupling2", "appc:0.3",
                               "--state", "minus:0.3", "--gamma", "1.5"], 0),
    ("sde-flip-werner", "sde-check", ["sde-check", "--coupling1", "uv:0.6,0,0.8;0,0,0", "--coupling2",
                                      "uv:0,1,0;0,0,0", "--state", "file:" + WERNER_FILE], 0),
    ("trajectory-ad", "trajectory", ["trajectory", "--coupling1", AD, "--coupling2", AD, "--state", "plus:0.2"], 0),
    ("choi", "choi", ["choi", "--coupling", "appc:0.5", "--t", "0.3"], 0),
    ("evolve", "evolve", ["evolve", "--coupling", "family:0.7,1.1", "--r0", "0.3,0.2,0.5",
                          "--times", "0,0.1,0.5,2"], 0),
    ("bloch-export", "bloch-export", ["bloch-export", "--coupling", "appc:0.4", "--times", "0.25,1"], 0),
    ("census", "census", ["census", "--n", "100000", "--seed", "7"], 0),
    ("help", "help", ["--help"], 0),
    ("bad-coupling", "config-error", ["sde-check", "--coupling1", "bogus:1", "--coupling2", "appc:0.3",
                                      "--state", "plus:0.5"], 2),
    ("negative-time", "config-error", ["choi", "--coupling", "appc:0.5", "--t", "-1"], 2),
    ("separable", "separable", ["sde-check", "--coupling1", "appc:0.3", "--coupling2", "appc:0.3",
                                "--state", "plus:0"], 1),
)
LABELS = tuple(dict.fromkeys(label for _, label, _, _ in MIX))
SUBCOMMANDS = ("evolve", "trajectory", "sde-check", "choi", "census", "bloch-export")


def werner_matrix(p: float = WERNER_P) -> list:
    """p |Phi+><Phi+| + (1 - p) 1/4 as a 4x4 list of [re, im] pairs."""
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            value = (1.0 - p) / 4.0 if i == j else 0.0
            if i in (0, 3) and j in (0, 3):
                value += p / 2.0
            row.append([value, 0.0])
        rows.append(row)
    return rows


def write_inputs(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, WERNER_FILE), "w", encoding="utf-8") as fh:
        json.dump({"matrix": werner_matrix()}, fh)


def load_reference() -> dict:
    """name -> {"exit": code, "stdout": bytes} as captured at commit 5b03e5a."""
    with open(os.path.join(REFERENCE_DIR, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = {}
    for name, _, argv, _ in MIX:
        entry = manifest[name]
        if entry["argv"] != argv:
            raise ValueError(f"reference for {name} was captured for another command line")
        with open(os.path.join(REFERENCE_DIR, name + ".out"), "rb") as fh:
            out[name] = {"exit": entry["exit"], "stdout": fh.read()}
    return out


# ---------------------------------------------------------------------------
# Closed forms from the paper


def _w_norm(u, v) -> float:
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return math.sqrt(sum(x * x for x in w))


def _appc(theta):
    return (math.cos(theta), 0.0, 0.0), (0.0, math.sin(theta), 0.0)


def _family(theta, phi):
    return ((math.sin(phi) * math.cos(theta), 0.0, math.cos(phi)),
            (0.0, -math.sin(phi) * math.sin(theta), 0.0))


def _dissipative_lambda_inf(m1: float, m2: float) -> float:
    return -0.5 * math.sqrt((1.0 - 4.0 * m1 * m1) * (1.0 - 4.0 * m2 * m2))


def ad_lambda(alpha_sq: float, t: float, gamma: float = 1.0) -> float:
    """lam(t) = 2 p (a b - a^2 (1 - p)) of a plus state, both qubits damped to |1>."""
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    p = math.exp(-4.0 * gamma * t)
    return 2.0 * p * (a * b - a * a * (1.0 - p))


def ad_tau(alpha_sq: float, gamma: float = 1.0) -> float:
    a, b = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    return -math.log(1.0 - b / a) / (4.0 * gamma)


# name -> {json key: (closed-form value, tolerance)}; numbers the paper fixes.
PAPER = {
    "sde-ad": {"tau": (ad_tau(0.8), TAU_ATOL), "lambda_inf": (0.0, LAM_ATOL),
               "predicted": ("not-covered", 0.0)},
    "sde-diss": {"lambda_inf": (_dissipative_lambda_inf(_w_norm(*_family(0.4, 1.2)), _w_norm(*_appc(0.3))),
                                FLOAT_ATOL),
                 "predicted": ("yes", 0.0)},
    # both flip axes are orthogonal, so each projector product of the
    # Werner state has weight 1/4 and lam_inf = -2 sqrt(1/16)
    "sde-flip-werner": {"lambda_inf": (-0.5, FLOAT_ATOL), "predicted": ("yes", 0.0)},
}


# ---------------------------------------------------------------------------
# Semantic comparison


def _close(got, want, atol: float) -> bool:
    return abs(got - want) <= atol + FLOAT_RTOL * abs(want)


def _compare(got, want, path: str, problems: list, atol: float = FLOAT_ATOL) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}", problems, TAU_ATOL if key == "tau" else atol)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", problems, atol)
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want:
            problems.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, int) and not isinstance(want, bool) and isinstance(got, int):
        if got != want:
            problems.append(f"{path}: {got!r} != {want!r}")
    elif not isinstance(got, (int, float)) or isinstance(got, bool) or not _close(got, want, atol):
        problems.append(f"{path}: {got!r} != {want!r}")


def _csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def _check_trajectory(rows: list, want_rows: list, problems: list) -> None:
    # the captured lam drifts from the closed form by up to 1.5e-8 once p^2
    # nears the spectral snap, so lam follows the paper and only the time
    # column follows the capture
    _compare([r[0] for r in rows], [r[0] for r in want_rows], "trajectory-ad.t", problems)
    for t, lam, conc in rows:
        want = ad_lambda(0.2, t)
        if not _close(lam, want, LAM_ATOL) or not _close(conc, max(0.0, want), LAM_ATOL):
            problems.append(f"trajectory at t={t!r}: lam {lam!r} != closed form {want!r}")
            return


def _check_choi(got: dict, problems: list) -> None:
    # Kraus sets are unique only up to a unitary mix, so compare
    # sum_k vec(K) vec(K)^dag with the Choi matrix instead of the list
    choi = [[complex(*z) for z in row] for row in got["choi"]]
    rebuilt = [[0j] * 4 for _ in range(4)]
    for k in got["kraus"]:
        vec = [complex(*k[r][c]) for c in range(2) for r in range(2)]
        for i in range(4):
            for j in range(4):
                rebuilt[i][j] += vec[i] * vec[j].conjugate()
    err = max(abs(rebuilt[i][j] - choi[i][j]) for i in range(4) for j in range(4))
    if err > 1e-12:
        problems.append(f"Kraus operators rebuild the Choi matrix only to {err:.3e}")
    if not got["completeness_residual"] <= 1e-12:
        problems.append(f"completeness residual {got['completeness_residual']!r}")


def check(name: str, exit_code: int, stdout: bytes, stderr: bytes, reference: dict) -> list[str]:
    """Problems with one command's result; empty when it is right."""
    ref = reference[name]
    if exit_code != ref["exit"]:
        return [f"exit code {exit_code} != {ref['exit']}"]
    if exit_code != 0:
        problems = [] if stdout == b"" else ["output on a failing run"]
        if not stderr.startswith(b"error: "):
            problems.append("no error message on stderr")
        return problems
    text = stdout.decode("utf-8", "replace")
    want_text = ref["stdout"].decode("utf-8")
    problems: list[str] = []
    if name == "help":
        if not text.startswith("usage: qsde") or any(s not in text for s in SUBCOMMANDS):
            problems.append("help text lacks the usage line or a subcommand")
        return problems
    if want_text.startswith("{"):
        try:
            got = json.loads(text)
        except ValueError:
            return ["stdout is not JSON"]
        want = json.loads(want_text)
        paper = PAPER.get(name, {})
        for key, (value, atol) in paper.items():
            if key in got:
                _compare(got[key], value, f"{name}.{key}", problems, atol)
        _compare({k: v for k, v in got.items() if k not in paper},
                 {k: v for k, v in want.items() if k not in paper}, name, problems)
        if name == "choi":
            _check_choi(got, problems)
        return problems
    try:
        header, rows = _csv(text)
    except ValueError:
        return ["stdout is not numeric CSV"]
    want_header, want_rows = _csv(want_text)
    if header != want_header or len(rows) != len(want_rows):
        return [f"CSV shape {header!r} x {len(rows)} != {want_header!r} x {len(want_rows)}"]
    if name == "trajectory-ad":
        _check_trajectory(rows, want_rows, problems)
    else:
        _compare(rows, want_rows, name, problems)
    return problems
