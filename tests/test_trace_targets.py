"""The benchmark's span collector rebinds names in wlpcert by attribute
lookup; a renamed or removed name makes `spans.install` raise, which
breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in _targets()]
)
def test_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
