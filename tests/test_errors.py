"""Every rejected input is one error type, InvalidInput, that names the input it rejects."""

import math

import numpy as np
import pytest

from qsde.census import run_census
from qsde.channel import Coupling
from qsde.errors import InvalidInput, QsdeError
from qsde.pair import check_state, default_grid, initial_state, lambda_trajectory

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
    ("gamma", lambda: Coupling(u=X, v=NO_V, gamma=0.0), "gamma"),
    ("alpha_sq", lambda: initial_state("plus", 1.5), "alpha_sq"),
    ("kind", lambda: initial_state("psi", 0.5), "kind"),
    ("rho0-finite", lambda: check_state(_with(BELL, (1, 1), math.nan)), "rho0"),
    ("rho0-shape", lambda: check_state(np.eye(3) / 3.0), "rho0"),
    ("rho0-hermitian", lambda: check_state(_with(BELL, (0, 1), 1e-6)), "rho0"),
    ("rho0-trace", lambda: check_state(np.eye(4) / 3.0), "rho0"),
    ("rho0-eigenvalue", lambda: check_state(BELL + np.diag([0.0, 2e-9, -2e-9, 0.0])), "rho0"),
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


def test_qsde_error_has_four_subclasses():
    names = {cls.__name__ for cls in QsdeError.__subclasses__()}
    assert names == {"InvalidInput", "NotPSD", "NotEntangled", "GridTooCoarse"}
