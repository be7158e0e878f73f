"""Every layer the benchmark's per-layer trace wraps exists in this tree.

``bench/trace_child.py`` patches the names in its ``TRACED`` list over the
``resperf`` modules; a name that no longer resolves breaks ``--trace 1``.
The file is only loaded here for that list, never run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = traced_names()
    missing = []
    for module_name, attr in traced:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        try:
            for cls in classes:
                owner = getattr(owner, cls)
            # defined right there: a method inherited from object would be
            # patched and timed, but it is not the layer the span names
            found = vars(owner)[name]
        except (AttributeError, KeyError):
            found = None
        if not callable(found):
            missing.append(f"{module_name}.{attr}")
    assert traced
    assert missing == []
