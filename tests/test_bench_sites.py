"""The benchmark's tracer wraps module attributes by name; every one must exist.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces each site in
``SPAN_SITES`` and ``COUNT_SITES`` of ``perfbench/tracing.py``. Renaming or
deleting one of those attributes would only surface there, so this test loads
the tracer (without installing it) and looks every site up.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SITES = tracing.SPAN_SITES + tracing.COUNT_SITES


@pytest.mark.parametrize("owner,attr,name", SITES, ids=[f"{o}.{a}" for o, a, _ in SITES])
def test_traced_site_exists(owner, attr, name):
    assert callable(tracing._resolve(owner).__dict__.get(attr)), f"{owner}.{attr} ({name})"
