"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches the public entry points of each layer
by module, class and name, with no guard against a missing class or
function.  Renaming or deleting one would make every traced benchmark
run raise; these tests fail first, in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_every_traced_method_is_defined_where_listed():
    # install() skips a listed method its class does not define, which
    # would silently drop that layer's spans; require each one.
    tracing = _load_tracing()
    import repro.fleet  # noqa: F401
    import repro.fleet.journal  # noqa: F401
    import repro.pipeline  # noqa: F401

    for module, cls_name, method, _name, _before in tracing.METHOD_SPANS:
        cls = getattr(sys.modules[module], cls_name)
        assert method in cls.__dict__, f"{module}.{cls_name}.{method}"
    for module, func, _name, _before in tracing.FUNCTION_SPANS:
        assert callable(getattr(sys.modules[module], func)), \
            f"{module}.{func}"
