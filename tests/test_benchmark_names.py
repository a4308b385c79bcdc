"""The names perfbench/tracer.py wraps must exist where it looks them up.

The tracer replaces module globals and class-body attributes by name, so a
renamed, moved or inlined function would otherwise fail only the traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracer():
    """perfbench/tracer.py, executed from its file; nothing there is changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "path, attr", [entry[:2] for entry in TRACER.MODULE_FUNCTIONS], ids=lambda v: v
)
def test_module_function_resolves(path, attr):
    assert callable(getattr(importlib.import_module(path), attr))


@pytest.mark.parametrize(
    "path, cls_name, attr", [entry[:3] for entry in TRACER.METHODS], ids=lambda v: v
)
def test_method_is_defined_in_the_class_body(path, cls_name, attr):
    owner = getattr(importlib.import_module(path), cls_name)
    assert attr in owner.__dict__  # the tracer reads owner.__dict__[attr]
