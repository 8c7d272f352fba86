import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qsde.channel import family
from qsde.cli import MAX_GRID_POINTS, _grid, geodesic_sphere, main
from qsde.errors import InvalidInput


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    return header, rows, text


# ---------------------------------------------------------------------------
# trajectory


def test_trajectory_csv_format_and_determinism(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    args = [
        "trajectory",
        "--coupling1", "appc:-0.7853981633974483",
        "--coupling2", "appc:-0.7853981633974483",
        "--state", "plus:0.2",
        "--grid", "0:10:400",
        "--out", str(out),
    ]
    assert main(args) == 0
    header, rows, text = read_csv(out)
    assert header == ["t", "lambda", "concurrence"]
    assert len(rows) == 400
    assert rows[0][0] == 0.0
    assert abs(rows[0][1] - 0.8) <= 1e-12
    # no sudden death for alpha^2 = 0.2: lambda stays positive
    assert all(r[1] > 0.0 for r in rows)
    # byte-identical on rerun
    out2 = tmp_path / "traj2.csv"
    main(args[:-1] + [str(out2)])
    assert out2.read_bytes() == out.read_bytes()


def test_trajectory_crosses_for_high_weight(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "trajectory",
            "--coupling1", "appc:-0.7853981633974483",
            "--coupling2", "appc:-0.7853981633974483",
            "--state", "plus:0.8",
            "--out", str(out),
        ]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    lams = [r[1] for r in rows]
    assert lams[0] > 0.0 and min(lams) < -1e-3


def test_trajectory_from_config_file_with_flag_override(tmp_path, capsys):
    cfg = {
        "coupling1": {"type": "family_appc", "theta": -math.pi / 4},
        "coupling2": {"type": "family_appc", "theta": -math.pi / 4},
        "state": {"kind": "minus", "alpha_sq": 0.5},
        "grid": {"start": 0, "end": 10, "points": 50},
        "gamma": 1.0,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(
        ["trajectory", "--config", str(path), "--grid", "0:2:5"], capsys
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert len(lines) == 6  # header + 5 points from the flag override


def test_trajectory_zero_length_grid_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "trajectory",
            "--coupling1", "appc:-0.785",
            "--coupling2", "appc:-0.785",
            "--state", "plus:0.5",
            "--grid", "0:10:0",
        ],
        capsys,
    )
    assert code == 2
    assert "grid" in err


def test_trajectory_invalid_state_weight_exit_2(capsys):
    code, _, err = run_cli(
        [
            "trajectory",
            "--coupling1", "appc:-0.785",
            "--coupling2", "appc:-0.785",
            "--state", "plus:1.5",
        ],
        capsys,
    )
    assert code == 2
    assert "alpha_sq" in err


def test_no_partial_file_on_failure(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, _ = run_cli(
        [
            "trajectory",
            "--coupling1", "uv:1,0,0;1,0,0",  # |u|^2+|v|^2 = 2, invalid
            "--coupling2", "appc:-0.785",
            "--state", "plus:0.5",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # no temp litter either


def test_out_in_missing_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run_cli(["census", "--n", "10", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: out: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_file_gets_the_umask_mode(tmp_path, capsys):
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / f"census-{umask:o}.json"
        previous = os.umask(umask)
        try:
            assert main(["census", "--n", "10", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == mode


def test_out_naming_a_directory_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(["census", "--n", "10", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: out: ")
    assert list(tmp_path.iterdir()) == []  # the temp file is removed


# ---------------------------------------------------------------------------
# sde-check


def test_sde_check_json_fields(capsys):
    code, stdout, _ = run_cli(
        [
            "sde-check",
            "--coupling1", "appc:-0.6283185307179586",
            "--coupling2", "appc:-0.6283185307179586",
            "--state", "plus:0.5",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {"predicted", "lambda_inf", "tau", "method"}
    assert payload["predicted"] == "yes"
    assert payload["method"] == "dissipative-criterion"
    assert abs(payload["lambda_inf"] + 0.04774575140626315) <= 1e-12
    assert payload["tau"] is not None


def test_sde_check_separable_state_is_numerical_failure(capsys):
    code, _, err = run_cli(
        [
            "sde-check",
            "--coupling1", "appc:-0.785",
            "--coupling2", "appc:-0.785",
            "--state", "plus:1.0",
        ],
        capsys,
    )
    assert code == 1
    assert "concurrence" in err


# ---------------------------------------------------------------------------
# choi


def test_choi_identity_channel(capsys):
    code, stdout, _ = run_cli(
        ["choi", "--coupling", "appc:-0.785", "--t", "0"], capsys
    )
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["kraus"]) == 1
    assert abs(payload["completeness_residual"]) <= 1e-9
    assert np.allclose(payload["choi_eigenvalues"], [2.0, 0.0, 0.0, 0.0], atol=1e-9)
    choi = np.array([[complex(re, im) for re, im in row] for row in payload["choi"]])
    assert choi.shape == (4, 4)
    assert abs(np.trace(choi) - 2.0) <= 1e-12


def test_choi_finite_time_dissipative(capsys):
    code, stdout, _ = run_cli(
        ["choi", "--coupling", "family:0.7853981633974483,1.5707963267948966",
         "--t", "0.5"], capsys
    )
    assert code == 0
    payload = json.loads(stdout)
    assert 2 <= len(payload["kraus"]) <= 4
    assert abs(payload["completeness_residual"]) <= 1e-9


def test_choi_negative_time_rejected(capsys):
    code, _, err = run_cli(
        ["choi", "--coupling", "appc:-0.785", "--t", "-1"], capsys
    )
    assert code == 2
    assert "t" in err


# ---------------------------------------------------------------------------
# census


def test_census_json_and_determinism(capsys):
    args = ["census", "--n", "2000", "--seed", "11"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["n_flip_hits"] == 0
    assert payload["n_ad_hits"] == 0
    assert payload["seed"] == 11
    assert payload["n_samples"] == 2000
    assert payload["min_distance_to_ad"] > 0.0


def test_census_requires_positive_n(capsys):
    code, _, err = run_cli(["census", "--n", "0"], capsys)
    assert code == 2
    assert "n" in err


def test_census_overflowing_integer_is_config_error(tmp_path, capsys):
    # JSON 1e400 parses to inf, which int() rejects with OverflowError
    for payload, field in (('{"n": 1e400}', "n"), ('{"n": 10, "seed": 1e400}', "seed")):
        path = tmp_path / "run.json"
        path.write_text(payload)
        code, _, err = run_cli(["census", "--config", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error: {field}: expected an integer")


@pytest.mark.parametrize(
    "command, payload, field, expected",
    [
        ("census", {"n": 2.7}, "n", "expected an integer, got 2.7"),
        ("census", {"n": 10, "seed": 1.9}, "seed", "expected an integer, got 1.9"),
        ("census", {"n": True}, "n", "expected an integer, got True"),
        ("trajectory",
         {"coupling1": "appc:0.3", "coupling2": "appc:0.3", "state": "plus:0.5",
          "grid": {"end": 1, "points": 3.9}},
         "grid.points", "expected an integer, got 3.9"),
        ("choi", {"coupling": "appc:0.5", "t": 0.3, "gamma": True},
         "gamma", "expected a number, got True"),
    ],
)
def test_config_number_of_the_wrong_kind_is_config_error(
    tmp_path, capsys, command, payload, field, expected
):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    code, stdout, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {field}: {expected}\n"


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("evolve", {"coupling": "appc:0.3", "times": [True], "r0": [True, 0, 0]}, "r0"),
        ("evolve", {"coupling": "appc:0.3", "times": [0.5, True]}, "times"),
        ("evolve", {"coupling": {"type": "uv", "u": [1, 0, False], "v": [0, 0, 0]},
                    "times": [1]}, "coupling.u"),
        ("bloch-export", {"coupling": "appc:0.3", "times": [False]}, "times"),
    ],
)
def test_config_boolean_in_a_list_is_not_a_number(tmp_path, capsys, command, payload, field):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    code, stdout, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {field}: expected a number, got ")


def test_census_accepts_integral_float_and_ignores_config_gamma(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"n": 1e3, "seed": 4.0, "gamma": 2}')
    code, stdout, _ = run_cli(["census", "--config", str(path)], capsys)
    assert code == 0
    assert stdout == run_cli(["census", "--n", "1000", "--seed", "4"], capsys)[1]


def test_census_negative_seed_flag_is_config_error(capsys):
    code, _, err = run_cli(["census", "--n", "10", "--seed", "-1"], capsys)
    assert code == 2
    assert err == "error: seed: seed must be >= 0, got -1\n"


def test_census_has_no_gamma_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "10", "--gamma", "-5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err


def test_integer_flag_is_read_like_the_config_number(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"n": 1e3}')
    from_config = run_cli(["census", "--config", str(path)], capsys)
    assert from_config[0] == 0
    assert run_cli(["census", "--n", "1e3"], capsys) == from_config


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--n", "2.5"], "n: expected an integer, got '2.5'"),
        (["census", "--n", "abc"], "n: expected an integer, got 'abc'"),
        (["choi", "--coupling", "appc:0.5", "--t", "abc"], "t: expected a number, got 'abc'"),
    ],
    ids=["fraction", "integer-word", "float-word"],
)
def test_flag_value_that_is_not_a_number_is_config_error(capsys, argv, message):
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, seed",
    [("1e30", 10**30), ("1.5e30", 15 * 10**29), ("12345678901234567890123", 12345678901234567890123),
     ("9007199254740993", 2**53 + 1), ("1000e-3", 1), ("0e999999999", 0)],
)
def test_integer_text_is_read_exactly(capsys, text, seed):
    # through a double, 1e30 would run and echo seed 1000000000000000019884624838656
    code, stdout, _ = run_cli(["census", "--n", "10", "--seed", text], capsys)
    assert code == 0
    assert json.loads(stdout)["seed"] == seed
    assert stdout == run_cli(["census", "--n", "10", "--seed", str(seed)], capsys)[1]


@pytest.mark.parametrize("text", ["1e-999999999", "1e400", "1e999999999", "2.5e-1"])
def test_integer_text_that_is_no_integer_in_range_is_config_error(capsys, text):
    # a huge exponent is refused at once, never expanded into its digits
    code, stdout, err = run_cli(["census", "--n", "10", "--seed", text], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: seed: expected an integer, got '{text}'\n"


@pytest.mark.parametrize("command, payload, field", [
    ("census", '{"n": 10, "seed": 1e17}', "seed"),
    ("census", '{"n": 10, "seed": 9007199254740993.0}', "seed"),  # parses as 2**53
    ("census", '{"n": 10, "seed": -9007199254740992.0}', "seed"),
    ("census", '{"n": 1e30}', "n"),
    ("trajectory", '{"coupling1": "appc:0.3", "coupling2": "appc:0.3", "state": "plus:0.5", '
     '"grid": {"end": 1, "points": 1e20}}', "grid.points"),
])
def test_json_float_beyond_two_to_the_53_is_config_error(tmp_path, capsys, command, payload, field):
    path = tmp_path / "run.json"
    path.write_text(payload)
    code, stdout, err = run_cli([command, "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {field}: a JSON float of 2**53 or more may not be the integer written, got ")


def test_json_float_below_two_to_the_53_is_exact(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"n": 10, "seed": 9007199254740991.0}')
    code, stdout, _ = run_cli(["census", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(stdout)["seed"] == 2**53 - 1


@pytest.mark.parametrize("key", ["sed", "flip_tol"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 1000, key: 5}))
    code, stdout, err = run_cli(["census", "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {key}: unknown config key (known: coupling, ")


# ---------------------------------------------------------------------------
# evolve


def test_evolve_json_records(capsys):
    code, stdout, _ = run_cli(
        [
            "evolve",
            "--coupling", "uv:0,0,1;0,0,0",
            "--r0", "1,0,0",
            "--times", "0,0.3",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["class"] == "flip"
    assert payload["records"][0]["r"] == [1.0, 0.0, 0.0]
    assert abs(payload["records"][1]["r"][0] - math.exp(-1.2)) <= 1e-12
    assert payload["asymptote"] == [0.0, 0.0, 0.0]


def test_evolve_rejects_unphysical_r0(capsys):
    code, _, err = run_cli(
        ["evolve", "--coupling", "appc:-0.785", "--r0", "2,0,0", "--times", "1"],
        capsys,
    )
    assert code == 2
    assert "r0" in err


# ---------------------------------------------------------------------------
# bloch-export


def test_geodesic_sphere_has_642_unit_vertices():
    mesh = geodesic_sphere()
    assert mesh.shape == (642, 3)
    assert np.max(np.abs(np.linalg.norm(mesh, axis=1) - 1.0)) <= 1e-12
    # deterministic construction
    assert np.array_equal(mesh, geodesic_sphere())


def test_bloch_export_identity_at_t0(tmp_path, capsys):
    out = tmp_path / "bloch.csv"
    code = main(
        ["bloch-export", "--coupling", "appc:-0.785", "--times", "0", "--out", str(out)]
    )
    assert code == 0
    header, rows, _ = read_csv(out)
    assert header == ["t", "x0", "y0", "z0", "x", "y", "z"]
    assert len(rows) == 642
    for row in rows:
        # identity up to the frame-reconstruction roundoff of the
        # dissipative closed form
        assert np.max(np.abs(np.array(row[1:4]) - np.array(row[4:7]))) <= 1e-12


def test_bloch_export_flip_scalings(tmp_path):
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
    _, rows, _ = read_csv(out)
    assert len(rows) == 2 * 642
    for row in rows:
        t, r0, r = row[0], np.array(row[1:4]), np.array(row[4:7])
        scale = math.exp(-4.0 * t)
        assert abs(r[2] - r0[2]) <= 1e-12
        assert abs(r[0] - scale * r0[0]) <= 1e-12
        assert abs(r[1] - scale * r0[1]) <= 1e-12


def test_bloch_export_amplitude_damping_contracts_to_point(tmp_path):
    # theta = pi/4, phi = pi/2 coupling: the whole ball contracts toward
    # the pure fixed point 2w as t grows
    out = tmp_path / "bloch.csv"
    code = main(
        [
            "bloch-export",
            "--coupling", "family:0.7853981633974483,1.5707963267948966",
            "--times", "8.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    c = family(math.pi / 4, math.pi / 2)
    fixed_point = 2.0 * np.cross(c.u, c.v)
    assert abs(np.linalg.norm(fixed_point) - 1.0) <= 1e-12
    for row in rows:
        assert np.max(np.abs(np.array(row[4:7]) - fixed_point)) <= 1e-6


def test_evolve_accepts_grid_and_nondefault_gamma(capsys):
    code, stdout, _ = run_cli(
        [
            "evolve",
            "--coupling", "uv:0,0,1;0,0,0",
            "--r0", "1,0,0",
            "--grid", "0:1:3",
            "--gamma", "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["gamma"] == 2.0
    assert [rec["t"] for rec in payload["records"]] == [0.0, 0.5, 1.0]
    # transverse decay at rate 4*gamma = 8
    assert abs(payload["records"][1]["r"][0] - math.exp(-4.0)) <= 1e-12


def test_state_matrix_file_input(tmp_path, capsys):
    # Bell state as an explicit matrix file
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    payload = {"matrix": [[[float(x), 0.0] for x in row] for row in rho]}
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(payload))
    code, stdout, _ = run_cli(
        [
            "sde-check",
            "--coupling1", "uv:0,0,1;0,0,0",
            "--coupling2", "uv:0,0,1;0,0,0",
            "--state", f"file:{path}",
        ],
        capsys,
    )
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["predicted"] == "no"
    assert verdict["method"] == "flip-criterion"


def test_state_file_validation(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0]]}))
    code, _, err = run_cli(
        [
            "sde-check",
            "--coupling1", "appc:-0.785",
            "--coupling2", "appc:-0.785",
            "--state", f"file:{path}",
        ],
        capsys,
    )
    assert code == 2
    assert "state" in err


def test_unknown_coupling_form_is_config_error(capsys):
    code, _, err = run_cli(
        ["choi", "--coupling", "nope:1", "--t", "0"], capsys
    )
    assert code == 2
    assert "coupling" in err


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.eye(3) / 3.0, "state matrix must be 4x4, got (3, 3)"),
        (np.eye(4) / 4.0 + np.diag([1e-6] * 3, k=1), "state matrix is not Hermitian within 1e-10"),
        (np.eye(4) / 3.0, "state matrix trace must be 1 within 1e-10"),
        (np.diag([0.5 + 2e-9, 0.5, 0.0, -2e-9]), "state matrix has eigenvalue -2.000e-09 < -1e-9"),
    ],
    ids=["not-4x4", "not-hermitian", "trace", "negative-eigenvalue"],
)
def test_invalid_state_file_is_config_error(tmp_path, capsys, matrix, message):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"matrix": [[[float(x), 0.0] for x in row] for row in matrix]}))
    code, stdout, err = run_cli(
        ["sde-check", "--coupling1", "appc:0.3", "--coupling2", "appc:0.3", "--state", f"file:{path}"],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: state: {message}\n"


@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[[true, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]", "expected a number, got True"),
        ("[[[0.5, 0], 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, [0.5, false]]]",
         "expected a number, got False"),
        ("[[NaN, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]", "value must be finite"),
    ],
    ids=["boolean", "boolean-imaginary-part", "nan"],
)
def test_state_file_entry_that_is_not_a_number_is_config_error(tmp_path, capsys, matrix, message):
    path = tmp_path / "rho.json"
    path.write_text(f'{{"matrix": {matrix}}}')
    code, stdout, err = run_cli(
        ["sde-check", "--coupling1", "appc:0.3", "--coupling2", "appc:0.3", "--state", f"file:{path}"],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: state: {message}\n"


def test_choi_decomposes_its_choi_matrix_once(monkeypatch, capsys):
    calls = []
    original = np.linalg.eigh

    def counting(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    code, stdout, _ = run_cli(["choi", "--coupling", "appc:0.5", "--t", "0.3"], capsys)
    assert (code, len(calls)) == (0, 1)
    # the cli-mix benchmark's capture of this command line, byte for byte
    reference = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "choi.out"
    assert stdout == reference.read_text(encoding="utf-8")


def test_census_too_large_for_memory_is_a_one_line_error(capsys):
    # the census streams its draws, so memory no longer stops a huge n: the
    # input rule does, at the largest n whose every count is exact in a double
    code, stdout, err = run_cli(["census", "--n", "1e17"], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert err == "error: n: n must be <= 9007199254740992\n"


# ---------------------------------------------------------------------------
# Rejections, each with its exact stderr line

PAIR = ["--coupling1", "appc:0.3", "--coupling2", "appc:0.3", "--state", "plus:0.5"]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["census", "--config", "missing.json"], None,
         "config: [Errno 2] No such file or directory: 'missing.json'"),
        (["census"], "{", "config: invalid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["census"], "[1]", "config: top level must be a JSON object"),
        (["evolve", "--coupling", "appc:0.3"], '{"times": 5}', "times: expected a list of numbers, got 5"),
        (["evolve", "--coupling", "appc:0.3", "--r0", "1,2"], None,
         "r0: expected a finite 3-vector, got '1,2'"),
        (["evolve", "--coupling", "appc:0.3", "--times", ","], None, "times: at least one time is required"),
        (["evolve", "--coupling", "appc:0.3", "--times=-1"], None, "times: times must be finite and >= 0"),
        (["census"], None, "n: required value is missing"),
        (["sde-check", *PAIR, "--coupling1", "appc:0.3,0.4"], None, "coupling1: appc takes exactly theta"),
        (["choi", "--t", "0"], '{"coupling": {"theta": 0.3}}',
         "coupling: coupling spec must be an object with a 'type'"),
        (["choi", "--t", "0"], '{"coupling": {"type": "bogus"}}', "coupling: unknown coupling type 'bogus'"),
        (["sde-check", "--coupling1", "appc:0.3", "--coupling2", "appc:0.3"], '{"state": 5}',
         "state: state spec must be an object or spec string"),
        (["sde-check", *PAIR, "--state", "file:rho.json"], None,
         "state: state file must hold a 4x4 matrix of numbers or [re, im] pairs"),
        (["trajectory", *PAIR, "--grid", "0:1"], None, "grid: expected start:end:points, got '0:1'"),
        (["trajectory", *PAIR], '{"grid": 5}', "grid: grid spec must be an object or start:end:points"),
        (["bloch-export", "--coupling", "appc:0.3", "--times", "1", "--gamma", "0"], None,
         "gamma: gamma must be positive"),
        # the grid rule is the library's (pair.check_grid), reported under the flag
        (["trajectory", *PAIR, "--grid", "0.5:1:3"], None, "grid: grid must start at t = 0"),
        (["sde-check", *PAIR, "--grid", "0:0:3"], None, "grid: grid must be strictly increasing"),
    ],
    ids=["config-missing", "config-invalid-json", "config-not-object", "times-not-list", "r0-length",
         "times-empty", "times-negative", "n-missing", "coupling-arity", "coupling-no-type",
         "coupling-bad-type", "state-not-object", "state-file-matrix", "grid-parts", "grid-not-object",
         "gamma-zero", "grid-start", "grid-increasing"],
)
def test_rejection_exits_2_with_its_line(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rho.json").write_text('{"matrix": 5}')
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = [*argv, "--config", "run.json"]
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["evolve", "--coupling", "appc:0.3"], ["trajectory", *PAIR], ["sde-check", *PAIR]],
    ids=["evolve", "trajectory", "sde-check"],
)
def test_gamma_too_small_for_the_default_grid_is_config_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli([*argv, "--gamma", "1e-320"], capsys)
    assert result == (2, "", "error: gamma: default grid end 10/gamma overflows at gamma = 1e-320\n")


@pytest.mark.parametrize(
    "argv", [["evolve", "--coupling", "appc:0.3"], ["trajectory", *PAIR]], ids=["evolve", "trajectory"]
)
def test_grid_span_that_overflows_is_config_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli([*argv, "--grid=-1e308:1e308:3"], capsys)
    assert result == (2, "", "error: grid: grid span end - start overflows: start = -1e+308, end = 1e+308\n")


@pytest.mark.parametrize(
    "argv", [["evolve", "--coupling", "appc:0.3"], ["trajectory", *PAIR], ["sde-check", *PAIR]],
    ids=["evolve", "trajectory", "sde-check"],
)
def test_grid_with_too_many_points_is_config_error(capsys, argv):
    # numpy could not allocate this grid: it is refused as an input, before any work
    result = run_cli([*argv, "--grid", "0:1:1e15"], capsys)
    assert result == (2, "", "error: grid.points: grid has at most 1000000 points, got 1000000000000000\n")


def test_grid_points_bound_is_inclusive():
    assert len(_grid("0:1:1000000", "grid", 1.0)) == MAX_GRID_POINTS == 10**6
    with pytest.raises(InvalidInput) as info:
        _grid({"end": 1, "points": MAX_GRID_POINTS + 1}, "grid", 1.0)
    assert info.value.field == "grid.points"


@pytest.mark.parametrize("path, shown", [("0", "0"), ("true", "True")])
def test_state_file_that_is_not_a_path_is_rejected_unopened(tmp_path, path, shown):
    # open() takes an integer as a file descriptor: 0 would read, then close, stdin
    config = tmp_path / "run.json"
    config.write_text(f'{{"coupling1": "appc:0.3", "coupling2": "appc:0.3", "state": {{"file": {path}}}}}')
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    script = "import sys; from qsde.cli import main; code = main(sys.argv[1:]); print(code, sys.stdin.read())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "sde-check", "--config", str(config)],
        input="{}", capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert (proc.stdout, proc.stderr) == ("2 {}\n", f"error: state.file: expected a file path, got {shown}\n")
