"""The package namespace: the six names its callers import, and the library submodules."""

import types

import qsde

EXPORTED = {
    "Coupling": "channel",
    "QsdeError": "errors",
    "family_appc": "channel",
    "initial_state": "pair",
    "run_census": "census",
    "sde_check": "sde",
}
SUBMODULES = ("channel", "choi", "pair", "sde", "census", "errors", "linalg")


def test_package_exports_exactly_the_names_its_callers_import():
    public = {name for name in dir(qsde) if not name.startswith("_")}
    names = {name for name in public if not isinstance(getattr(qsde, name), types.ModuleType)}
    assert names == set(EXPORTED)
    for name, home in EXPORTED.items():
        assert getattr(qsde, name) is getattr(getattr(qsde, home), name)


def test_import_binds_every_library_submodule():
    # the traced benchmark looks the modules up with getattr(qsde, name)
    for name in SUBMODULES:
        module = getattr(qsde, name)
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == f"qsde.{name}"
