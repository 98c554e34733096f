"""The benchmark's span tracer wraps smartfog functions by name.

``perfbench/spans.py`` looks each ``(module, attr)`` of ``TRACED`` up with
``getattr`` when a traced run starts, so renaming or deleting a traced
function would only show up as a crash of that run.  This test loads the
tracer module from its file, without importing the benchmark package, and
resolves every name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    assert spans.TRACED
    for span, (module_name, attr) in spans.TRACED.items():
        assert module_name == "smartfog" or module_name.startswith("smartfog.")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is missing"
