import importlib
import importlib.util
import sys
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def patched_functions(traced) -> dict:
    """``module.name`` -> what that module holds under the name, for every ``PATCHES`` entry."""
    return {f"{module}.{name}": getattr(importlib.import_module(module), name, None)
            for module, names in traced.PATCHES.items() for name in names}


def test_traced_patches_resolve_to_callables(monkeypatch):
    # a name the program no longer has would silently lose its per-layer span
    functions = patched_functions(load_traced(monkeypatch))
    assert [name for name, fn in functions.items() if not callable(fn)] == []


def test_traced_counts_name_wrapped_spans(monkeypatch):
    # a span is named after the module that defines its function
    traced = load_traced(monkeypatch)
    spans = {f"{fn.__module__.removeprefix('tveff.')}.{fn.__name__}"
             for fn in patched_functions(traced).values()}
    assert set(traced.COUNTS) <= spans
