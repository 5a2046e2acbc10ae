import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tveff
from tveff.pipeline import PipelineConfig, _write_dated_csv, run_pipeline
from tveff.synth import ScenarioSpec, gen_returns

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


def test_cli_import_loads_only_scipy_linalg():
    # scipy.interpolate alone once took about 0.4 s of every tveff start-up
    code = ("import sys, tveff.cli; print(' '.join(m for m in sys.modules if m in "
            "('scipy.interpolate', 'scipy.optimize', 'scipy.special', 'scipy.stats')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []


def test_failing_hypothesis_example_is_reported(tmp_path):
    # reporting a failing example imports libcst, whose DeprecationWarning the
    # suite's "error" filter alone turns into an INTERNALERROR ending the session
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(i):\n"
        "    assert i != i\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed" in proc.stdout


def test_readme_config_keys_are_the_config_fields():
    # the section's first sentence lists every key, annotations in parentheses
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    listing = re.sub(r"\([^)]*\)", "", section).split(". ", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(PipelineConfig.__dataclass_fields__)


def readme_artifact_names() -> list[str]:
    """Names in the first paragraph of README's "Artifacts", ``a.{csv,json}`` expanded."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = text.split("### Artifacts\n", 1)[1].strip().split("\n\n", 1)[0]
    names = []
    for name in re.findall(r"`([^`]+)`", listing):
        stem, brace, exts = name.partition(".{")
        names += [f"{stem}.{ext}" for ext in exts.rstrip("}").split(",")] if brace else [name]
    return names


def test_readme_artifacts_are_the_written_artifacts(tmp_path):
    returns, _ = gen_returns(ScenarioSpec(kind="iid", T=120, n=2, sigma_eps=0.02, seed=1))
    prices = tmp_path / "prices.csv"
    _write_dated_csv(prices, np.concatenate([[returns.dates[0] - 1], returns.dates]),
                     np.exp(np.cumsum(np.vstack([np.zeros((1, 2)), returns.values]), axis=0)),
                     returns.labels)
    result = run_pipeline(PipelineConfig(input_path=str(prices), output_dir=str(tmp_path / "out"),
                                         q=1, replications=100, coverage=0.9))
    assert sorted(readme_artifact_names()) == sorted(p.name for p in result.artifacts)


@pytest.mark.parametrize("module", ["tveff"] + [
    f"tveff.{info.name}" for info in pkgutil.iter_modules(tveff.__path__)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
