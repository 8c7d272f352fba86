"""Command-line interface: deterministic CSV/JSON emission for every operation.

Subcommands: evolve, trajectory, sde-check, choi, census, bloch-export.
Run configuration comes from an optional JSON file (--config) with CLI
flags taking precedence. All numeric output uses 17 significant digits so
files round-trip double precision exactly; files are written to a
temporary name and atomically renamed, so failures never leave partial
output behind. Exit codes: 0 success, 1 numerical failure, 2 invalid
input (errors.InvalidInput, from the CLI's readers or the library).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from decimal import Decimal

import numpy as np

from .census import run_census
from .channel import Coupling, Flip, asymptote, classify, evolve, family, family_appc
from .choi import choi_of_channel, completeness_residual, kraus_of_choi
from .errors import InvalidInput, QsdeError
from .pair import DEFAULT_GRID_POINTS, check_state, default_grid, initial_state, lambda_trajectory
from .sde import sde_check

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
# The most points a --grid may have. A grid is evaluated point by point: on a
# 2-vCPU VM, 10**6 points take `evolve` (20-30 us a point) under half a minute
# and `trajectory` (0.14-0.18 ms a point, appc:0.3 on both qubits) under three
# minutes, and fill 8 MB. A count far above that is a mistake, and one of
# ~1e15 is refused by numpy's allocator, not run.
MAX_GRID_POINTS = 10**6


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _complex_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# ---------------------------------------------------------------------------
# Config plumbing


def _read_json(path: str, field: str, what: str = ""):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(field, str(exc))
    except json.JSONDecodeError as exc:
        raise InvalidInput(field, f"invalid JSON{what}: {exc}")


# Readers: each reads one kind of value, config value or flag text alike.


def _number(value, field: str) -> float:
    """A finite number; JSON true/false are not numbers, though float() takes them."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError):
        raise InvalidInput(field, f"expected a number, got {value!r}")
    if not math.isfinite(out):
        raise InvalidInput(field, "value must be finite")
    return out


def _integer(value, field: str) -> int:
    """An integer; an integral number such as JSON's 1e3 counts, as text too.

    Text is read exactly, so --seed 1e30 is 10**30, within a double's range.
    A JSON float of 2**53 or more is refused: it may not be the integer that
    was written (9007199254740993.0 parses as 2**53).
    """
    number = value
    if isinstance(value, str):  # flag text or a config string
        with contextlib.suppress(ValueError, ArithmeticError):
            if math.isfinite(float(value)):  # bounds the exponent that int() would expand
                number = Decimal(value)
    if isinstance(number, Decimal) and number == number.to_integral_value():
        return int(number)
    if isinstance(number, int) and not isinstance(number, bool):
        return number
    if isinstance(number, float) and number.is_integer():
        if abs(number) >= 2**53:
            raise InvalidInput(
                field, f"a JSON float of 2**53 or more may not be the integer written, got {value!r}; "
                "write it without a fraction or exponent"
            )
        return int(number)
    raise InvalidInput(field, f"expected an integer, got {value!r}")


def _numbers(value, field: str) -> list[float]:
    """Finite numbers from a JSON list or from comma-separated text (empty items are skipped)."""
    if isinstance(value, str):
        value = [item for item in value.split(",") if item.strip()]
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(field, f"expected a list of numbers, got {value!r}")
    return [_number(x, field) for x in value]


def _vec3(value, field: str) -> np.ndarray:
    vec = _numbers(value, field)
    if len(vec) != 3:
        raise InvalidInput(field, f"expected a finite 3-vector, got {value!r}")
    return np.array(vec)


def _times(value, field: str) -> list[float]:
    times = _numbers(value, field)
    if not times:
        raise InvalidInput(field, "at least one time is required")
    if min(times) < 0.0:
        raise InvalidInput(field, "times must be finite and >= 0")
    return times


def _get(spec: dict, key: str, read, default=None, within: str | None = None):
    """spec[key], or default, through read; a value nested in the spec ``within`` is named within.key."""
    field = f"{within}.{key}" if within else key
    value = spec.get(key, default)
    if value is None:
        raise InvalidInput(field, "required value is missing")
    return read(value, field)


@contextlib.contextmanager
def _reported_as(field: str, nested: bool = False):
    """Report a library InvalidInput as ``field``, or as ``field.argument`` when ``nested``."""
    try:
        yield
    except InvalidInput as exc:
        raise InvalidInput(f"{field}.{exc.field}" if nested else field, exc.message) from None


# coupling spec type -> (its flag form, the separator of the form's values,
# the function that makes the Coupling, its arguments with their readers)
_COUPLINGS = {
    "uv": ("uv", ";", Coupling, (("u", _vec3), ("v", _vec3))),
    "family": ("family", ",", family, (("theta", _number), ("phi", _number))),
    "family_appc": ("appc", ",", family_appc, (("theta", _number),)),
}


def _coupling(spec, field: str, gamma: float) -> Coupling:
    if isinstance(spec, str):
        form, _, rest = spec.partition(":")
        kind = next((k for k, entry in _COUPLINGS.items() if entry[0] == form), None)
        if kind is None:
            raise InvalidInput(field, f"unknown coupling form {form!r} (use uv:/family:/appc:)")
        _, sep, _, args = _COUPLINGS[kind]
        names = [name for name, _ in args]
        values = rest.split(sep)
        if sep == ",":  # a list of numbers: empty items are skipped, as _numbers does
            values = [item for item in values if item.strip()]
        if len(values) != len(names):
            raise InvalidInput(field, f"{form} takes exactly {sep.join(names)}")
        spec = {"type": kind, **dict(zip(names, values))}
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidInput(field, "coupling spec must be an object with a 'type'")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _COUPLINGS:
        raise InvalidInput(field, f"unknown coupling type {kind!r}")
    _, _, build, args = _COUPLINGS[kind]
    values = [_get(spec, name, read, within=field) for name, read in args]
    with _reported_as(field):
        return build(*values, gamma=gamma)


def _state(spec, field: str) -> np.ndarray:
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        spec = {"file": rest} if kind == "file" else {"kind": kind, "alpha_sq": rest}
    if not isinstance(spec, dict):
        raise InvalidInput(field, "state spec must be an object or spec string")
    if "file" not in spec:
        alpha_sq = _get(spec, "alpha_sq", _number, within=field)
        with _reported_as(field, nested=True):
            return initial_state(spec.get("kind"), alpha_sq)
    if not isinstance(spec["file"], str):  # open() would take an integer as a file descriptor
        raise InvalidInput(f"{field}.file", f"expected a file path, got {spec['file']!r}")
    payload = _read_json(spec["file"], field, " in state file")
    raw = payload.get("matrix") if isinstance(payload, dict) else payload
    try:
        rows = [
            [complex(_number(cell[0], field), _number(cell[1], field))
             if isinstance(cell, (list, tuple)) else complex(_number(cell, field))
             for cell in row]
            for row in raw
        ]
        rho = np.array(rows, dtype=complex)
    except InvalidInput:  # an entry's own error, which names the field already
        raise
    except (TypeError, ValueError, IndexError):
        raise InvalidInput(field, "state file must hold a 4x4 matrix of numbers or [re, im] pairs")
    with _reported_as(field):
        return check_state(rho)


def _grid(spec, field: str, gamma: float) -> np.ndarray:
    if spec is None:
        return default_grid(gamma)
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidInput(field, f"expected start:end:points, got {spec!r}")
        spec = {"start": parts[0], "end": parts[1], "points": parts[2]}
    if not isinstance(spec, dict):
        raise InvalidInput(field, "grid spec must be an object or start:end:points")
    start = _get(spec, "start", _number, 0.0, within=field)
    end = _get(spec, "end", _number, within=field)
    points = _get(spec, "points", _integer, DEFAULT_GRID_POINTS, within=field)
    if points < 1:
        raise InvalidInput(f"{field}.points", "grid needs at least one point")
    if points > MAX_GRID_POINTS:
        raise InvalidInput(f"{field}.points", f"grid has at most {MAX_GRID_POINTS} points, got {points}")
    if not math.isfinite(end - start):  # Python floats overflow to inf without numpy's warning
        raise InvalidInput(field, f"grid span end - start overflows: start = {start!r}, end = {end!r}")
    return np.linspace(start, end, points)


# Namespace attributes that steer the CLI itself rather than a computation.
_NOT_CONFIG = ("command", "func", "config", "out")


def _resolve(args: argparse.Namespace) -> dict:
    """The --config file's values, overridden by every flag that was set.

    A config key must be the name of some subcommand's flag, so one file can
    serve every subcommand but a mistyped key is not silently ignored.
    """
    cfg = _read_json(args.config, "config") if args.config else {}
    if not isinstance(cfg, dict):
        raise InvalidInput("config", "top level must be a JSON object")
    known = {flag[2:] for *_, flags in SUBCOMMANDS for flag, _ in flags}
    for key in cfg:
        if key not in known:
            raise InvalidInput(key, f"unknown config key (known: {', '.join(sorted(known))})")
    for key, value in vars(args).items():
        if key not in _NOT_CONFIG and value is not None:
            cfg[key] = value
    return cfg


def _gamma_of(cfg: dict) -> float:
    gamma = _get(cfg, "gamma", _number, 1.0)
    if gamma <= 0.0:
        raise InvalidInput("gamma", "gamma must be positive")
    return gamma


def _pair_inputs(cfg: dict) -> tuple[float, Coupling, Coupling, np.ndarray]:
    """gamma, both couplings and the initial state of a two-qubit run."""
    gamma = _gamma_of(cfg)
    spec1, spec2 = cfg.get("coupling1"), cfg.get("coupling2")
    c1 = _coupling(spec1, "coupling1", gamma)
    c2 = c1 if spec2 == spec1 else _coupling(spec2, "coupling2", gamma)
    return gamma, c1, c2, _state(cfg.get("state"), "state")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Geodesic sphere mesh for the Bloch-ball export


# Three subdivisions of the icosahedron: bloch-export's 642-vertex mesh, which its pinned output fixes
MESH_SUBDIVISIONS = 3


def geodesic_sphere() -> np.ndarray:
    """Unit-sphere mesh of bloch-export: the icosahedron subdivided MESH_SUBDIVISIONS times.

    The 642 vertices come in a deterministic order.
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
    for _ in range(MESH_SUBDIVISIONS):
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
    coupling = _coupling(cfg.get("coupling"), "coupling", gamma)
    r0 = _get(cfg, "r0", _vec3, (0.0, 0.0, 1.0))
    # keeps the eigenvalues (1 -+ |r0|) / 2 above -5e-10, within the state rule's -1e-9
    if float(np.linalg.norm(r0)) > 1.0 + 1e-9:
        raise InvalidInput("r0", "initial Bloch vector must satisfy |r0| <= 1")
    if cfg.get("times") is not None:
        times = _get(cfg, "times", _times)
    else:
        times = _times(list(_grid(cfg.get("grid"), "grid", gamma)), "grid")
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
    grid = _grid(cfg.get("grid"), "grid", gamma)
    rows = lambda_trajectory(rho0, c1, c2, grid)
    lines = ["t,lambda,concurrence"]
    lines += [f"{_fmt(t)},{_fmt(lam)},{_fmt(conc)}" for t, lam, conc in rows]
    return "\n".join(lines) + "\n"


def cmd_sde_check(cfg: dict) -> str:
    gamma, c1, c2, rho0 = _pair_inputs(cfg)
    grid = _grid(cfg.get("grid"), "grid", gamma)
    return _json(sde_check(rho0, c1, c2, grid=grid).to_dict())


def cmd_choi(cfg: dict) -> str:
    gamma = _gamma_of(cfg)
    coupling = _coupling(cfg.get("coupling"), "coupling", gamma)
    t = _get(cfg, "t", _number)
    if t < 0.0:
        raise InvalidInput("t", "time must be >= 0")
    choi = choi_of_channel(coupling, t)
    kraus, spectrum = kraus_of_choi(choi)
    payload = {
        "t": t,
        "gamma": gamma,
        "choi": _complex_pairs(choi),
        "choi_eigenvalues": [float(v) for v in spectrum],
        "kraus": [_complex_pairs(k) for k in kraus],
        "completeness_residual": completeness_residual(kraus),
    }
    return _json(payload)


def cmd_census(cfg: dict) -> str:
    return _json(run_census(_get(cfg, "n", _integer), seed=_get(cfg, "seed", _integer, 0)).to_dict())


def cmd_bloch_export(cfg: dict) -> str:
    gamma = _gamma_of(cfg)
    coupling = _coupling(cfg.get("coupling"), "coupling", gamma)
    times = _get(cfg, "times", _times)
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
        raise InvalidInput("out", f"cannot write {out_path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


_GAMMA = ("--gamma", "decay rate (default 1)")
_COUPLING = ("--coupling", "coupling spec")
_GRID = ("--grid", "time grid start:end:points")
_TIMES = ("--times", "comma-separated times")
_PAIR = (
    _GAMMA,
    ("--coupling1", "coupling spec for qubit 1"),
    ("--coupling2", "coupling spec for qubit 2"),
    ("--state", "plus:alpha_sq | minus:alpha_sq | file:rho.json"),
    _GRID,
)

# (name, help, handler, flags as (flag, help)), in --help order. Flag values
# stay text, so each is read by the same coercion as its config-file value.
SUBCOMMANDS = (
    ("evolve", "single-qubit Bloch trajectory (JSON)", cmd_evolve, (
        _GAMMA,
        ("--coupling", "uv:ux,uy,uz;vx,vy,vz | family:theta,phi | appc:theta"),
        ("--r0", "initial Bloch vector x,y,z (default 0,0,1)"),
        _TIMES,
        _GRID,
    )),
    ("trajectory", "two-qubit lam/concurrence trajectory (CSV)", cmd_trajectory, _PAIR),
    ("sde-check", "sudden-death verdict (JSON)", cmd_sde_check, _PAIR),
    ("choi", "Choi matrix and Kraus operators at one time (JSON)", cmd_choi,
     (_GAMMA, _COUPLING, ("--t", "evolution time"))),
    ("census", "coupling-space census (JSON)", cmd_census, (
        ("--n", "number of samples"),
        ("--seed", "RNG seed (default 0)"),
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
        for flag, flag_help in flags:
            p.add_argument(flag, help=flag_help)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(_resolve(args)), args.out)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QsdeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
