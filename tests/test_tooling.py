import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import tveff
from tveff.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


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


def test_readme_config_keys_are_the_config_fields():
    # the section's first sentence lists every key, annotations in parentheses
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    listing = re.sub(r"\([^)]*\)", "", section).split(". ", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(PipelineConfig.__dataclass_fields__)


@pytest.mark.parametrize("module", ["tveff"] + [
    f"tveff.{info.name}" for info in pkgutil.iter_modules(tveff.__path__)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
