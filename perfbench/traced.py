"""Traced `tveff` process: the real CLI with spans around the public layer calls.

    python3 traced.py SRC SPANS RUN_ID [tveff arguments ...]

Imports ``tveff.cli`` (span ``cli.import``), then replaces each function
named in ``PATCHES`` at the name its caller looks it up by with a
wrapper that records one span per call, and calls the same
``tveff.cli.main`` the ``tveff`` console script calls (span
``cli.main``). The program runs its own code in its own order and does
no work it would not do untraced; only the wrapped calls are timed.
Counts are recorded on the span where the work happens (``COUNTS``).

Spans stay in memory and are written to SPANS as JSON when the process
ends: ``{"spans": [...], "untraced": [...]}``, where ``untraced`` lists
the ``PATCHES`` names the program no longer has. Calls are wrapped for
one thread: the benchmark runs the program with ``workers=1``.
"""

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# Module -> names it looks up at call time. pipeline: what run_pipeline
# calls; var/tvvar/inference: the calls made inside those layers.
PATCHES = {
    "tveff.cli": ("run_pipeline",),
    "tveff.pipeline": (
        "load_csv", "interpolate_missing", "log_returns", "write_returns_csv",
        "descriptive_stats", "adf_gls", "select_lag_sbic", "fit_var",
        "newey_west_cov", "hansen_lc", "solve_tvvar", "tv_efficiency_path",
        "write_zeta_csv", "bootstrap_bands", "plot_data", "classify_segments",
        "regime_volatility", "emit_report",
    ),
    "tveff.var": ("constancy_critical_values",),
    "tveff.tvvar": ("build_stacked_system", "zeta_from_coefficient_stack"),
    "tveff.inference": ("solve_tvvar", "tv_efficiency_path", "zeta_from_coefficient_stack"),
}


def _load_csv_counts(args, prices):
    return {"rows": len(prices), "missing_cells": int(prices.missing_mask.sum()),
            "input_bytes": Path(args[0]).stat().st_size}


def _bootstrap_counts(args, ep):
    import numpy as np

    nan = ~np.isfinite(ep.band_lower) | ~np.isfinite(ep.band_upper)
    return {"replications": args[1].replications, "band_nan_periods": int(nan.sum()),
            "efficient_share": float(np.mean(ep.efficient_flag))}


# Span name -> counts taken from the call's positional arguments and result.
COUNTS = {
    "series.load_csv": _load_csv_counts,
    "var.fit_var": lambda args, fit: {"q": fit.q},
    "var.hansen_lc": lambda args, lc: {"lc_dof": lc.dof},
    "tvvar.build_stacked_system": lambda args, system: {"m": system.m, "k": system.k},
    "tvvar.solve_tvvar": lambda args, fit: {
        "condition_estimate": float(fit.diagnostics.get("condition_estimate", 0.0))},
    "tvvar.tv_efficiency_path": lambda args, path: {"flagged_periods": int(path.flagged.sum())},
    "inference.bootstrap_bands": _bootstrap_counts,
    "inference.classify_segments": lambda args, segments: {"segment_count": len(segments)},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack = [run_id]  # the harness records the process span under this id

    def open(self, name: str) -> dict:
        rec = {"run_id": self.run_id, "id": f"{self.run_id}.{len(self.spans)}",
               "parent": self._stack[-1], "name": name, "pid": os.getpid(),
               "attrs": {}, "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.removeprefix('tveff.')}.{fn.__name__}"
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counts is not None:
                rec["attrs"].update(counts(args, result))
            return result

        return traced


def install(tr: Tracer) -> list[str]:
    """Wrap every ``PATCHES`` name; return the ones the program lacks."""
    missing = []
    for module_name, names in PATCHES.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"{module_name}.{name}")
            else:
                setattr(module, name, tr.wrap(fn))
    return missing


def main() -> int:
    src, span_file, run_id, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3], sys.argv[4:]
    tr = Tracer(run_id)
    missing: list[str] = []
    try:
        rec = tr.open("cli.import")
        try:
            sys.path.insert(0, src)
            import tveff.cli
        finally:
            tr.close(rec)
        missing = install(tr)
        rec = tr.open("cli.main")
        try:
            return tveff.cli.main(argv)
        finally:
            tr.close(rec)
    finally:
        span_file.write_text(json.dumps({"spans": tr.spans, "untraced": missing}),
                             encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
