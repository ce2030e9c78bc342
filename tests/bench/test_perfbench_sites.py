"""The traced benchmark run must find every call site it wraps.

``perfbench/layers.py`` wraps program functions by the name their
caller imports them under.  A site that a refactor renamed or removed
is reported as ``absent`` and its layer reads 0 instead of failing, so
this test is what turns such a rename into a failure.
"""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def test_every_call_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    assert layers.Wrappers(layers.Recorder()).absent == []
