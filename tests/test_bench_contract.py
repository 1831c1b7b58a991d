"""The benchmark's tracer wraps named rrsmooth functions; each must exist.

``perfbench/tracing.py`` replaces every ``(module, attribute)`` in its
``PATCHES`` table with a timed wrapper. A renamed kernel would make a traced
benchmark run fail with an AttributeError, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_tracing().PATCHES, ids=lambda e: f"{e[0]}.{e[1]}")
def test_patched_name_resolves_to_a_callable(entry):
    module_name, attr = entry[:2]
    assert callable(getattr(importlib.import_module(module_name), attr, None))
