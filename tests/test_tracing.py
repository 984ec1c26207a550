"""The benchmark's tracer must find every entry point it wraps.

perfbench/tracing.py records a missing name as absent instead of failing,
so moving a wrapped method to another class would silently drop its spans.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_entry_point_is_found(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.entry_points() + tracing.corpus_entry_points())
        assert tracer.absent == []
    finally:
        tracer.uninstall()
