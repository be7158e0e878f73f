"""Every layer the benchmark's per-layer trace wraps exists in this tree.

``bench/trace_child.py`` patches the names in its ``TRACED`` list over the
``resperf`` modules; a name that no longer resolves breaks ``--trace 1``.
The file is only loaded here for that list, never run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import resperf

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
SRC_DIR = Path(resperf.__file__).resolve().parents[1]


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


def test_importing_the_cli_loads_every_traced_module():
    """The tracer looks each traced module up in ``sys.modules`` right after
    ``import resperf.cli``; a module the CLI imported only later would make
    ``--trace 1`` fail with a KeyError."""
    modules = sorted({module_name for module_name, _ in traced_names()})
    code = ("import sys, resperf.cli\n"
            f"print([m for m in {modules!r} if m not in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert modules and proc.stdout.strip() == "[]"
