"""Every rejected input is one error type, InvalidInput, that names the input it rejects."""

import math

import numpy as np
import pytest

from qsde.census import run_census
from qsde.channel import Coupling, family_appc
from qsde.errors import InvalidInput, QsdeError
from qsde.pair import check_state, default_grid, initial_state, lambda_trajectory
from qsde.sde import sde_check

X = np.array([1.0, 0.0, 0.0])
NO_V = np.zeros(3)
BELL = initial_state("plus", 0.5)
FLIP = Coupling(u=X, v=NO_V)


def _with(rho, index, value):
    rho = rho.copy()
    rho[index] = value
    return rho


# (id, call, field): one case for each explicit input check of the library
SITES = [
    ("u-shape", lambda: Coupling(u=[1.0, 0.0], v=NO_V), "u"),
    ("v-finite", lambda: Coupling(u=X, v=[math.nan, 0.0, 0.0]), "v"),
    ("degenerate", lambda: Coupling(u=NO_V, v=NO_V), "coupling"),
    ("normalization", lambda: Coupling(u=X, v=X), "coupling"),
    ("u-text", lambda: Coupling(u="abc", v=NO_V), "u"),
    ("u-complex", lambda: Coupling(u=[1j, 0.0, 0.0], v=NO_V), "u"),
    ("gamma", lambda: Coupling(u=X, v=NO_V, gamma=0.0), "gamma"),
    ("gamma-text", lambda: Coupling(u=X, v=NO_V, gamma="x"), "gamma"),
    ("gamma-none", lambda: Coupling(u=X, v=NO_V, gamma=None), "gamma"),
    ("gamma-inf", lambda: Coupling(u=X, v=NO_V, gamma=math.inf), "gamma"),
    ("alpha_sq", lambda: initial_state("plus", 1.5), "alpha_sq"),
    ("alpha_sq-text", lambda: initial_state("plus", "0.5"), "alpha_sq"),
    ("alpha_sq-none", lambda: initial_state("plus", None), "alpha_sq"),
    ("theta-text", lambda: family_appc("x"), "theta"),
    ("theta-inf", lambda: family_appc(math.inf), "theta"),
    ("kind", lambda: initial_state("psi", 0.5), "kind"),
    ("rho0-finite", lambda: check_state(_with(BELL, (1, 1), math.nan)), "rho0"),
    ("rho0-shape", lambda: check_state(np.eye(3) / 3.0), "rho0"),
    ("rho0-hermitian", lambda: check_state(_with(BELL, (0, 1), 1e-6)), "rho0"),
    ("rho0-trace", lambda: check_state(np.eye(4) / 3.0), "rho0"),
    ("rho0-eigenvalue", lambda: check_state(BELL + np.diag([0.0, 2e-9, -2e-9, 0.0])), "rho0"),
    ("rho0-text", lambda: sde_check("abc", FLIP, FLIP), "rho0"),
    ("rho0-text-entries", lambda: sde_check(BELL.astype(str), FLIP, FLIP), "rho0"),
    ("rho0-ragged", lambda: sde_check([[0.5, 0.0], [0.5]], FLIP, FLIP), "rho0"),
    ("grid-text", lambda: sde_check(BELL, FLIP, FLIP, grid="0 1 2"), "grid"),
    ("c1", lambda: sde_check(BELL, "appc:0.3", FLIP), "c1"),
    ("c2", lambda: sde_check(BELL, FLIP, None), "c2"),
    ("grid-empty", lambda: lambda_trajectory(BELL, FLIP, FLIP, []), "grid"),
    ("grid-start", lambda: lambda_trajectory(BELL, FLIP, FLIP, [0.5, 1.0]), "grid"),
    ("grid-increasing", lambda: lambda_trajectory(BELL, FLIP, FLIP, [0.0, 1.0, 1.0]), "grid"),
    ("default-grid-gamma", lambda: default_grid(1e-320), "gamma"),
    ("n", lambda: run_census(0), "n"),
    ("n-integer", lambda: run_census(True), "n"),
    ("n-max", lambda: run_census(2**53 + 1), "n"),
    ("seed", lambda: run_census(10, seed=-1), "seed"),
    ("seed-integer", lambda: run_census(10, seed=1.5), "seed"),
]


@pytest.mark.parametrize("call, field", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_each_input_check_raises_invalid_input_naming_its_field(call, field):
    with pytest.raises(InvalidInput) as info:
        call()
    error = info.value
    assert isinstance(error, QsdeError) and isinstance(error, ValueError)
    assert error.field == field
    assert str(error) == f"{field}: {error.message}"


# (id, call, field): each input tolerance at its value (HERMITIAN_TOL, DENSITY_TRACE_TOL,
# NORMALIZATION_TOL), which call(0.5) is within and call(2.0) past
TOLERANCES = [
    ("hermitian", lambda scale: check_state(_with(BELL, (0, 1), scale * 1e-10)), "rho0"),
    ("trace", lambda scale: check_state(BELL * (1.0 + scale * 1e-10)), "rho0"),
    ("normalization", lambda scale: Coupling(u=X * math.sqrt(1.0 + scale * 1e-12), v=NO_V), "coupling"),
]


@pytest.mark.parametrize("call, field", [t[1:] for t in TOLERANCES], ids=[t[0] for t in TOLERANCES])
def test_each_input_tolerance_accepts_half_and_rejects_twice(call, field):
    call(0.5)
    with pytest.raises(InvalidInput) as info:
        call(2.0)
    assert info.value.field == field


def test_qsde_error_has_four_subclasses():
    names = {cls.__name__ for cls in QsdeError.__subclasses__()}
    assert names == {"InvalidInput", "NotPSD", "NotEntangled", "GridTooCoarse"}
