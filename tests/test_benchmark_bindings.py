"""The traced benchmark wraps qsde functions by name; a rename must fail here first.

``perfbench/tracing.py`` is read as text and executed into a fresh module,
so no bytecode is written next to the benchmark.
"""

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
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
