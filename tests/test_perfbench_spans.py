"""The benchmark's view of the package.

``perfbench/spans.py`` wraps the haloscan functions named in its
``LAYER_CALLS`` by module attribute.  A renamed or deleted function would
first show up as a failed benchmark run; this test makes it fail here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, without writing a bytecode cache next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer_call(monkeypatch):
    spans = load_spans(monkeypatch)
    homes = {home: importlib.import_module(f"haloscan.{home}") for home, *_ in spans.LAYER_CALLS}
    missing = [
        f"haloscan.{home}.{attr}"
        for home, attr, *_ in spans.LAYER_CALLS
        if not hasattr(homes[home], attr)
    ]
    assert not missing, f"LAYER_CALLS names missing from the package: {missing}"

    modules = [importlib.import_module(f"haloscan.{m}") for m in spans.MODULES]
    bound = []  # (module, attr, original) for every binding the tracer swaps
    for home, attr, *_ in spans.LAYER_CALLS:
        original = getattr(homes[home], attr)
        bound += [(m, attr, original) for m in modules if getattr(m, attr, None) is original]

    tracer = spans.Tracer()
    with tracer.installed():
        for module, attr, original in bound:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    assert not tracer.active
    for module, attr, original in bound:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
