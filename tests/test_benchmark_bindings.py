"""The traced benchmark wraps qsde functions by name; a rename must fail here first."""

import importlib

import pytest

from helpers import load_perfbench

tracing = load_perfbench("tracing")
MODULES = {
    name: importlib.import_module(f"qsde.{name}")
    for name in ("channel", "choi", "pair", "sde", "census", "cli")
}


@pytest.mark.parametrize(
    "label, home, name, callers", tracing.BINDINGS, ids=[b[2] for b in tracing.BINDINGS]
)
def test_binding_resolves_on_home_and_every_caller(label, home, name, callers):
    original = getattr(MODULES[home], name)
    assert callable(original)
    for caller in callers:
        # the tracer rebinds the caller's name to a wrapper of the home function
        assert getattr(MODULES[caller], name) is original, f"qsde.{caller}.{name}"


def test_tracer_wraps_and_restores_every_binding():
    before = {
        (caller, name): getattr(MODULES[caller], name)
        for _, _, name, callers in tracing.BINDINGS
        for caller in callers
    }
    with tracing.Tracer(MODULES):
        for (caller, name), original in before.items():
            assert getattr(MODULES[caller], name) is not original
    for (caller, name), original in before.items():
        assert getattr(MODULES[caller], name) is original
