"""Command-line interface: deterministic CSV/JSON emission for every operation.

Subcommands: evolve, trajectory, sde-check, choi, census, bloch-export.
Run configuration comes from an optional JSON file (--config) with CLI
flags taking precedence. All numeric output uses 17 significant digits so
files round-trip double precision exactly; files are written to a
temporary name and atomically renamed, so failures never leave partial
output behind. Exit codes: 0 success, 1 numerical failure, 2 invalid
configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile

import numpy as np

from .census import run_census
from .channel import Coupling, Flip, asymptote, classify, evolve, family, family_appc
from .choi import choi_of_channel, completeness_residual, kraus_of_choi
from .errors import ConfigError, QsdeError
from .linalg import HERMITIAN_TOL, herm_eig
from .pair import (
    DEFAULT_GRID_POINTS, DENSITY_TRACE_TOL, default_grid, initial_state, lambda_trajectory,
)
from .sde import sde_check

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _complex_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _number(value, field: str) -> float:
    """A finite config number; JSON true/false are not numbers, though float() takes them."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(field, "value must be finite")
    return out


def _need_float(cfg: dict, field: str, default=None) -> float:
    value = cfg.get(field, default)
    if value is None:
        raise ConfigError(field, "required value is missing")
    return _number(value, field)


def _need_int(cfg: dict, key: str, default=None, field: str | None = None) -> int:
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field or key, f"expected an integer, got {value!r}")


def _vec3(value, field: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(field, f"expected a finite 3-vector, got {value!r}")
    return np.array([_number(x, field) for x in value])


def _parse_floats(text: str, field: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(field, f"expected comma-separated numbers, got {text!r}")


def _coupling_spec_from_string(text: str, field: str) -> dict:
    kind, _, rest = text.partition(":")
    if kind == "uv":
        u_txt, _, v_txt = rest.partition(";")
        return {"type": "uv", "u": _parse_floats(u_txt, field), "v": _parse_floats(v_txt, field)}
    if kind == "family":
        vals = _parse_floats(rest, field)
        if len(vals) != 2:
            raise ConfigError(field, "family takes exactly theta,phi")
        return {"type": "family", "theta": vals[0], "phi": vals[1]}
    if kind == "appc":
        vals = _parse_floats(rest, field)
        if len(vals) != 1:
            raise ConfigError(field, "appc takes exactly one theta")
        return {"type": "family_appc", "theta": vals[0]}
    raise ConfigError(field, f"unknown coupling form {kind!r} (use uv:/family:/appc:)")


def _coupling_from_spec(spec, field: str, gamma: float) -> Coupling:
    if isinstance(spec, str):
        spec = _coupling_spec_from_string(spec, field)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(field, "coupling spec must be an object with a 'type'")
    kind = spec["type"]
    try:
        if kind == "uv":
            return Coupling(
                u=_vec3(spec.get("u"), f"{field}.u"),
                v=_vec3(spec.get("v"), f"{field}.v"),
                gamma=gamma,
            )
        if kind == "family":
            return family(_need_float(spec, "theta"), _need_float(spec, "phi"), gamma=gamma)
        if kind == "family_appc":
            return family_appc(_need_float(spec, "theta"), gamma=gamma)
    except ConfigError:
        raise
    except (ValueError, QsdeError) as exc:
        raise ConfigError(field, str(exc))
    raise ConfigError(field, f"unknown coupling type {kind!r}")


def _state_from_spec(spec, field: str) -> np.ndarray:
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        if kind == "file":
            spec = {"file": rest}
        else:
            try:
                spec = {"kind": kind, "alpha_sq": float(rest)}
            except ValueError:
                raise ConfigError(field, f"expected kind:alpha_sq or file:path, got {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(field, "state spec must be an object or spec string")
    if "file" in spec:
        return _state_from_file(spec["file"], field)
    kind = spec.get("kind")
    if kind not in ("plus", "minus"):
        raise ConfigError(field, f"state kind must be 'plus' or 'minus', got {kind!r}")
    alpha_sq = _need_float(spec, "alpha_sq")
    if not 0.0 <= alpha_sq <= 1.0:
        raise ConfigError(f"{field}.alpha_sq", f"{alpha_sq!r} outside [0, 1]")
    return initial_state(kind, alpha_sq)


def _state_from_file(path: str, field: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(field, str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON in state file: {exc}")
    raw = payload.get("matrix") if isinstance(payload, dict) else payload
    try:
        rows = [
            [complex(cell[0], cell[1]) if isinstance(cell, (list, tuple)) else complex(cell)
             for cell in row]
            for row in raw
        ]
        rho = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError):
        raise ConfigError(field, "state file must hold a 4x4 matrix of numbers or [re, im] pairs")
    if rho.shape != (4, 4):
        raise ConfigError(field, f"state matrix must be 4x4, got {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > HERMITIAN_TOL:
        raise ConfigError(field, f"state matrix is not Hermitian within {HERMITIAN_TOL:g}")
    if abs(complex(np.trace(rho)) - 1.0) > DENSITY_TRACE_TOL:
        raise ConfigError(field, f"state matrix trace must be 1 within {DENSITY_TRACE_TOL:g}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -1e-9:
        raise ConfigError(field, f"state matrix has eigenvalue {smallest:.3e} < -1e-9")
    return rho


def _grid_from_spec(spec, field: str, gamma: float) -> np.ndarray:
    if spec is None:
        return default_grid(gamma)
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(field, f"expected start:end:points, got {spec!r}")
        spec = {"start": parts[0], "end": parts[1], "points": parts[2]}
    if not isinstance(spec, dict):
        raise ConfigError(field, "grid spec must be an object or start:end:points")
    start = _need_float(spec, "start", 0.0)
    end = _need_float(spec, "end")
    points = _need_int(spec, "points", DEFAULT_GRID_POINTS, f"{field}.points")
    if start != 0.0:
        raise ConfigError(f"{field}.start", "grid must start at t = 0")
    if points < 1:
        raise ConfigError(f"{field}.points", "grid needs at least one point")
    if points > 1 and end <= start:
        raise ConfigError(f"{field}.end", "grid end must exceed start")
    return np.linspace(start, end, points)


def _times_from_spec(spec, field: str) -> list[float]:
    if spec is None:
        raise ConfigError(field, "required value is missing")
    if isinstance(spec, str):
        spec = _parse_floats(spec, field)
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(field, f"expected a list of times, got {spec!r}")
    times = [_number(t, field) for t in spec]
    if not times:
        raise ConfigError(field, "at least one time is required")
    if any(t < 0.0 for t in times):
        raise ConfigError(field, "times must be finite and >= 0")
    return times


# Namespace attributes that steer the CLI itself rather than a computation.
_NOT_CONFIG = ("command", "func", "config", "out")


def _resolve(args: argparse.Namespace) -> dict:
    """The --config file's values, overridden by every flag that was set."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key not in _NOT_CONFIG and value is not None:
            cfg[key] = value
    return cfg


def _gamma_of(cfg: dict) -> float:
    gamma = _need_float(cfg, "gamma", 1.0)
    if gamma <= 0.0:
        raise ConfigError("gamma", "gamma must be positive")
    return gamma


def _pair_inputs(cfg: dict) -> tuple[float, Coupling, Coupling, np.ndarray]:
    """gamma, both couplings and the initial state of a two-qubit run."""
    gamma = _gamma_of(cfg)
    spec1, spec2 = cfg.get("coupling1"), cfg.get("coupling2")
    c1 = _coupling_from_spec(spec1, "coupling1", gamma)
    c2 = c1 if spec2 == spec1 else _coupling_from_spec(spec2, "coupling2", gamma)
    return gamma, c1, c2, _state_from_spec(cfg.get("state"), "state")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Geodesic sphere mesh for the Bloch-ball export


def geodesic_sphere(subdivisions: int = 3) -> np.ndarray:
    """Unit-sphere mesh from repeated icosahedron subdivision.

    Level 3 gives the fixed 642-vertex mesh used by bloch-export. Vertex
    order is deterministic.
    """
    t = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = [np.asarray(p, dtype=float) / np.linalg.norm(p) for p in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            next_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = next_faces
    return np.array(verts)


# ---------------------------------------------------------------------------
# Subcommands (each takes the resolved configuration and returns the full
# output text)


def cmd_evolve(cfg: dict) -> str:
    gamma = _gamma_of(cfg)
    coupling = _coupling_from_spec(cfg.get("coupling"), "coupling", gamma)
    r0 = _vec3(_parse_floats(cfg["r0"], "r0") if isinstance(cfg.get("r0"), str)
               else cfg.get("r0", (0.0, 0.0, 1.0)), "r0")
    if float(np.linalg.norm(r0)) > 1.0 + 1e-9:
        raise ConfigError("r0", "initial Bloch vector must satisfy |r0| <= 1")
    if cfg.get("times") is not None:
        times = _times_from_spec(cfg.get("times"), "times")
    else:
        times = [float(t) for t in _grid_from_spec(cfg.get("grid"), "grid", gamma)]
    records = [
        {"t": t, "r": [float(c) for c in evolve(r0, coupling, t)]} for t in times
    ]
    payload = {
        "class": "flip" if isinstance(classify(coupling), Flip) else "dissipative",
        "gamma": gamma,
        "r0": [float(c) for c in r0],
        "records": records,
        "asymptote": [float(c) for c in asymptote(coupling, r0)],
    }
    return _json(payload)


def cmd_trajectory(cfg: dict) -> str:
    gamma, c1, c2, rho0 = _pair_inputs(cfg)
    grid = _grid_from_spec(cfg.get("grid"), "grid", gamma)
    rows = lambda_trajectory(rho0, c1, c2, grid)
    lines = ["t,lambda,concurrence"]
    lines += [f"{_fmt(t)},{_fmt(lam)},{_fmt(conc)}" for t, lam, conc in rows]
    return "\n".join(lines) + "\n"


def cmd_sde_check(cfg: dict) -> str:
    gamma, c1, c2, rho0 = _pair_inputs(cfg)
    grid = _grid_from_spec(cfg.get("grid"), "grid", gamma)
    return _json(sde_check(rho0, c1, c2, grid=grid).to_dict())


def cmd_choi(cfg: dict) -> str:
    gamma = _gamma_of(cfg)
    coupling = _coupling_from_spec(cfg.get("coupling"), "coupling", gamma)
    t = _need_float(cfg, "t")
    if t < 0.0:
        raise ConfigError("t", "time must be >= 0")
    choi = choi_of_channel(coupling, t)
    kraus = kraus_of_choi(choi)
    payload = {
        "t": t,
        "gamma": gamma,
        "choi": _complex_pairs(choi),
        "choi_eigenvalues": [float(v) for v in herm_eig(choi)[0]],
        "kraus": [_complex_pairs(k) for k in kraus],
        "completeness_residual": completeness_residual(kraus),
    }
    return _json(payload)


def cmd_census(cfg: dict) -> str:
    n = _need_int(cfg, "n")
    if n < 1:
        raise ConfigError("n", "n must be >= 1")
    seed = _need_int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError("seed", f"seed must be >= 0, got {seed}")
    return _json(run_census(n, seed=seed).to_dict())


def cmd_bloch_export(cfg: dict) -> str:
    gamma = _gamma_of(cfg)
    coupling = _coupling_from_spec(cfg.get("coupling"), "coupling", gamma)
    times = _times_from_spec(cfg.get("times"), "times")
    mesh = geodesic_sphere()
    lines = ["t,x0,y0,z0,x,y,z"]
    for t in times:
        for point in mesh:
            image = evolve(point, coupling, t)
            lines.append(
                ",".join(
                    [_fmt(t)] + [_fmt(c) for c in point] + [_fmt(c) for c in image]
                )
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qsde-", suffix=".tmp")
        # mkstemp makes the file 0600; give it open()'s mode (the umask is read by setting it)
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out_path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


_GAMMA = ("--gamma", float, "decay rate (default 1)")
_COUPLING = ("--coupling", None, "coupling spec")
_GRID = ("--grid", None, "time grid start:end:points")
_TIMES = ("--times", None, "comma-separated times")
_PAIR = (
    _GAMMA,
    ("--coupling1", None, "coupling spec for qubit 1"),
    ("--coupling2", None, "coupling spec for qubit 2"),
    ("--state", None, "plus:alpha_sq | minus:alpha_sq | file:rho.json"),
    _GRID,
)

# (name, help, handler, flags as (flag, type, help)), in --help order
SUBCOMMANDS = (
    ("evolve", "single-qubit Bloch trajectory (JSON)", cmd_evolve, (
        _GAMMA,
        ("--coupling", None, "uv:ux,uy,uz;vx,vy,vz | family:theta,phi | appc:theta"),
        ("--r0", None, "initial Bloch vector x,y,z (default 0,0,1)"),
        _TIMES,
        _GRID,
    )),
    ("trajectory", "two-qubit lam/concurrence trajectory (CSV)", cmd_trajectory, _PAIR),
    ("sde-check", "sudden-death verdict (JSON)", cmd_sde_check, _PAIR),
    ("choi", "Choi matrix and Kraus operators at one time (JSON)", cmd_choi,
     (_GAMMA, _COUPLING, ("--t", float, "evolution time"))),
    ("census", "coupling-space census (JSON)", cmd_census, (
        ("--n", int, "number of samples"),
        ("--seed", int, "RNG seed (default 0)"),
    )),
    ("bloch-export", "Bloch-ball image of a sphere mesh (CSV)", cmd_bloch_export,
     (_GAMMA, _COUPLING, _TIMES)),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration (flags override it)")
    common.add_argument("--out", help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="qsde",
        description="Two-qubit entanglement sudden death under Markovian couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kind, flag_help in flags:
            p.add_argument(flag, type=kind, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(_resolve(args)), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QsdeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
