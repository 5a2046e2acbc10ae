#!/usr/bin/env python3
"""tveff benchmark: seeded price CSVs through `tveff run` CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from
``src/``. One iteration runs `tveff run` in a fresh process on inputs
generated from ``--seed``, then checks the artifacts. Iterations run
in one stream per CPU (at most ``MAX_STREAMS``), each stream pinned to its
CPU; a stream starts another iteration while the elapsed time plus its
median iteration so far fits in ``--seconds``, and runs at least one.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes every
odd iteration a traced one (``traced.py``: the same `tveff run` with
spans around the public layer calls), so with two streams a traced and
an untraced iteration run side by side, and reports the per-layer
metrics; the span file goes to ``.bench_out/``. The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, and
``.bench_out/<workload>-s<seed>-t<trace>.json``, hold the full results
with the environment stamp. See README.md for the metric definitions.
``--update-reference`` (default seed only) rewrites this workload's
entry of ``reference.json`` instead of checking against it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SHIM = BENCH / "shim.py"
TRACED = BENCH / "traced.py"

MIN_SETUP_SAMPLES = 10  # per run; set-up probes fill up to this many
# Load streams: one per CPU, so that each run samples the speed of every
# CPU for the whole run (on a shared host each CPU's speed drifts on its
# own). Each stream is a thread that waits on one single-threaded
# (workers=1) `tveff` process at a time.
MAX_STREAMS = 2
STREAM_CPUS = sorted(os.sched_getaffinity(0))[:MAX_STREAMS]
ENV_VARS = ("PYTHONDONTWRITEBYTECODE", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
# Stages of `tveff run` in order, and the public call that opens each one
# among run_pipeline's direct calls (see stage_times).
STAGES = ("ingest", "stats", "unitroot", "var", "tvvar", "bootstrap", "segments", "report")
STAGE_OF = {
    "series.load_csv": "ingest",
    "series.descriptive_stats": "stats",
    "unitroot.adf_gls": "unitroot",
    "var.select_lag_sbic": "var",
    "var.fit_var": "var",
    "tvvar.solve_tvvar": "tvvar",
    "inference.bootstrap_bands": "bootstrap",
    "inference.classify_segments": "segments",
    "pipeline.emit_report": "report",
}


@dataclass
class Proc:
    name: str
    rc: int
    setup: float  # spawn -> `import tveff.cli` done
    run: float  # import done -> process reaped
    cpu: float  # user + system CPU time of the whole process
    rss_mb: float


@dataclass
class TracedRun:
    i: int
    trace: dict  # the span file's content
    wall: float  # spawn -> reaped
    problems: list[str]


@dataclass
class Iteration:
    proc: Proc
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall(self) -> float:
        return self.proc.setup + self.proc.run


_LIVE: set[subprocess.Popen] = set()  # children not yet reaped
_LIVE_LOCK = threading.Lock()
_STOP = threading.Event()  # set on the way out: streams start nothing more


def spawn(argv: list[str], workdir: Path, label: str) -> tuple[int, float, float, float, float]:
    """Run one child to completion: (exit code, start, end, CPU s, peak RSS in MB)."""
    with (workdir / f"{label}.stderr").open("wb") as err, _LIVE_LOCK:
        if _STOP.is_set():
            raise RuntimeError("benchmark is stopping")
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *argv], cwd=workdir,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _LIVE.add(child)
    _, status, usage = os.wait4(child.pid, 0)
    end = time.perf_counter()
    with _LIVE_LOCK:
        child.returncode = os.waitstatus_to_exitcode(status)
        _LIVE.discard(child)
    return (child.returncode, start, end, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def stop_children() -> None:
    """Start no more children, kill the running ones (their streams reap them)."""
    with _LIVE_LOCK:
        _STOP.set()
        for child in _LIVE:
            child.kill()


def run_cli(argv: list[str], workdir: Path, label: str) -> Proc:
    stamp = workdir / f"{label}.ready"
    stamp.unlink(missing_ok=True)
    rc, start, end, cpu, rss = spawn([str(SHIM), str(stamp), str(SRC), *argv], workdir, label)
    ready = float(stamp.read_text()) if stamp.exists() else end
    return Proc(label, rc, ready - start, end - ready, cpu, rss)


def stderr_tail(workdir: Path, label: str) -> str:
    return (workdir / f"{label}.stderr").read_text(errors="replace").strip()[-300:]


def untraced_iteration(inputs, workdir: Path, i: int, wl_name: str, seed: int, lam: float,
                       use_reference: bool) -> Iteration:
    from check import check_iteration
    from workloads import command

    out = workdir / f"out{i}"
    shutil.rmtree(out, ignore_errors=True)
    it = Iteration(run_cli(command(inputs, out), workdir, f"it{i}"))
    if it.proc.rc != 0:
        it.problems.append(f"run exited {it.proc.rc}: {stderr_tail(workdir, f'it{i}')}")
    else:
        it.problems += check_iteration(out, wl_name, seed, inputs.sha256, lam, use_reference)
    return it


def traced_iteration(inputs, workdir: Path, i: int, run_id: str) -> TracedRun:
    from workloads import command

    out = workdir / f"traced{i}"
    shutil.rmtree(out, ignore_errors=True)
    span_file = workdir / f"spans{i}.json"
    argv = [str(TRACED), str(SRC), str(span_file), run_id, *command(inputs, out)]
    rc, start, end, _, _ = spawn(argv, workdir, f"traced{i}")
    trace = (json.loads(span_file.read_text(encoding="utf-8")) if span_file.exists()
             else {"spans": [], "untraced": []})
    trace["spans"].insert(0, {"run_id": run_id, "id": run_id, "parent": None, "name": "process",
                              "pid": None, "attrs": {}, "start": start, "end": end})
    problems = [f"traced run exited {rc}: {stderr_tail(workdir, f'traced{i}')}"] if rc else []
    return TracedRun(i, trace, end - start, problems)


def self_times(spans: list[dict]) -> None:
    """Add ``self_s``: duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        s["self_s"] = (s["end"] - s["start"]) - covered


def stage_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per `tveff run` stage, from run_pipeline's own call sequence.

    A stage starts at the first of run_pipeline's direct public calls
    that ``STAGE_OF`` maps to it (ingest at run_pipeline's start) and
    ends where the next stage starts (report at run_pipeline's end), so
    the private writers of a stage count in its time.
    """
    times = dict.fromkeys(STAGES, 0.0)
    run = next((s for s in spans if s["name"] == "pipeline.run_pipeline"), None)
    if run is None:
        return times
    stage, since = 0, run["start"]
    for s in sorted((s for s in spans if s["parent"] == run["id"]), key=lambda s: s["start"]):
        k = STAGES.index(STAGE_OF[s["name"]]) if s["name"] in STAGE_OF else -1
        if k > stage:
            times[STAGES[stage]] += s["start"] - since
            stage, since = k, s["start"]
    times[STAGES[stage]] += run["end"] - since
    return times


def layer_metrics(spans: list[dict], untraced_wall: float, traced_wall: float,
                  artifact_dir: Path) -> dict:
    """Per-layer metrics of one traced iteration (see README.md)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(int)  # counts of a failed traced run read as 0
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        for key, v in s["attrs"].items():  # the first call's counts: the original sample
            attrs.setdefault(key, v)

    def per_call(name: str) -> float:
        return total[name] / max(calls[name], 1)

    m, k = attrs["m"], attrs["k"]
    bootstrap = total["inference.bootstrap_bands"]
    replications = max(attrs["replications"], 1)
    untimed = sum(s["self_s"] for s in spans
                  if s["name"] in ("cli.main", "pipeline.run_pipeline"))
    artifacts = [p for p in artifact_dir.iterdir() if p.is_file()] if artifact_dir.is_dir() else []
    stages = stage_times(spans)
    return {
        "series.load_csv_s": (total["series.load_csv"], "s"),
        "series.interpolate_s": (total["series.interpolate_missing"], "s"),
        "series.log_returns_s": (total["series.log_returns"], "s"),
        "series.stats_s": (total["series.descriptive_stats"], "s"),
        "series.rows": (attrs["rows"], "count"),
        "series.missing_cells": (attrs["missing_cells"], "count"),
        "series.input_bytes": (attrs["input_bytes"], "bytes"),
        "unitroot.adf_gls_s": (total["unitroot.adf_gls"], "s"),
        "var.sbic_s": (total["var.select_lag_sbic"], "s"),
        "var.fit_s": (total["var.fit_var"], "s"),
        "var.hac_s": (total["var.newey_west_cov"], "s"),
        "var.lc_critical_s": (total["var.constancy_critical_values"], "s"),
        "var.lc_stat_s": (total["var.hansen_lc"] - total["var.constancy_critical_values"], "s"),
        "var.q": (attrs["q"], "count"),
        "var.lc_dof": (attrs["lc_dof"], "count"),
        "tvvar.build_s": (per_call("tvvar.build_stacked_system"), "s"),
        "tvvar.solve_s": (per_call("tvvar.solve_tvvar"), "s"),
        "tvvar.zeta_s": (per_call("tvvar.zeta_from_coefficient_stack"), "s"),
        "tvvar.flagged_periods": (attrs["flagged_periods"], "count"),
        "tvvar.condition_estimate": (attrs["condition_estimate"], "ratio"),
        # computed from m and k, not measured: band storage, and leading-order
        # banded Cholesky flops N*(b+1)^2 for order N = m*k and bandwidth b = k
        "tvvar.band_bytes": ((k + 1) * m * k * 8, "bytes"),
        "tvvar.chol_flops": (m * k * (k + 1) ** 2, "flop"),
        "inference.bootstrap_s": (bootstrap, "s"),
        "inference.replication_s": (bootstrap / replications, "s"),
        "inference.replications": (attrs["replications"], "count"),
        "inference.band_nan_periods": (attrs["band_nan_periods"], "count"),
        "inference.efficient_share": (attrs["efficient_share"], "fraction"),
        "inference.segment_count": (attrs["segment_count"], "count"),
        "pipeline.write_s": (sum(v for n, v in total.items()
                                 if n.startswith("pipeline.write") or n == "pipeline.plot_data"), "s"),
        "pipeline.report_s": (total["pipeline.emit_report"], "s"),
        "pipeline.artifact_count": (len(artifacts), "count"),
        "pipeline.artifact_bytes": (sum(p.stat().st_size for p in artifacts), "bytes"),
        "pipeline.unaccounted_s": (untimed, "s"),
        "cli.import_s": (total["cli.import"], "s"),
        **{f"cli.{st}_s": (stages[st], "s") for st in STAGES},
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def setup_probe(workdir: Path, i: int) -> float:
    """Interpreter start plus `import tveff.cli`, in a process that does nothing else."""
    p = run_cli([], workdir, f"probe{i}")
    if p.rc != 0:
        raise RuntimeError(f"set-up probe exited {p.rc}")
    return p.setup


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tveff").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False) if (ROOT / ".git").exists() else None
    return {
        "git_sha": git.stdout.strip() if git and git.returncode == 0 else "none",
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env_vars": {k: os.environ[k] for k in ENV_VARS if k in os.environ},
        "workers": 1,  # every workload's config
        "stream_cpus": STREAM_CPUS,
    }


def describe(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    v = sorted(values)
    d = {"median": statistics.median(v), "n": len(v)}
    if len(v) >= 11:
        i = len(v) - 11
        d[f"p{100 * (i + 1) / len(v):.0f}"] = v[i]
    return d


def in_streams(one, go_on) -> list:
    """Call ``one(i)`` for i = 0, 1, ... in one thread per CPU in STREAM_CPUS.

    Each thread pins itself to its CPU (the processes it spawns inherit
    that) and takes the next i while ``go_on(i, walls)`` holds, where
    ``walls`` are its own iterations' wall times; ``one`` returns
    (result, wall). Returns the results in order of i.
    """
    results, errors, counter = {}, [], itertools.count()

    def stream(cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        walls = []
        try:
            while not _STOP.is_set():
                i = next(counter)
                if not go_on(i, walls):
                    return
                results[i], wall = one(i)
                walls.append(wall)
        except BaseException as exc:  # noqa: BLE001  (re-raised by the caller)
            errors.append(exc)
            stop_children()

    threads = [threading.Thread(target=stream, args=(cpu,)) for cpu in STREAM_CPUS]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:  # interrupted or failed: leave no child and no stream behind
        if errors or any(t.is_alive() for t in threads):
            stop_children()
        for t in threads:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[0]
    return [results[i] for i in sorted(results)]


def measure(seconds: float, one, always: int = 0) -> list:
    """Iterations in every stream while the elapsed time plus the stream's
    median iteration fits in ``seconds``; each stream runs at least one,
    and iterations i < ``always`` run in any case."""
    t0 = time.perf_counter()
    return in_streams(one, lambda i, walls: i < always or not walls or
                      time.perf_counter() - t0 + statistics.median(walls) <= seconds)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    if not (SRC / "tveff" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'tveff' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tveff.cli  # noqa: F401  (compiles bytecode before anything is timed)
    from check import DEFAULT_SEED, check_iteration, check_traced_same, write_reference
    from tveff.pipeline import PipelineConfig
    from workloads import WORKLOADS, make_inputs

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.update_reference and args.seed != DEFAULT_SEED:
        print(f"error: the reference is made on seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = make_inputs(wl, args.seed, workdir)
        lam = PipelineConfig.from_json(inputs.config).lam
        env = environment()
        use_reference = not args.update_reference

        def untraced(i):
            it = untraced_iteration(inputs, workdir, i, wl.name, args.seed, lam, use_reference)
            return it, it.wall

        def untraced_or_traced(i):
            if i % 2 == 0:
                return untraced(i)
            run = traced_iteration(inputs, workdir, i, f"{tag}-i{i}")
            return run, run.wall

        if args.trace == 0:
            iters, runs = measure(args.seconds, untraced), []
        else:
            done = measure(args.seconds, untraced_or_traced, always=2)
            iters = [x for x in done if isinstance(x, Iteration)]
            runs = [x for x in done if isinstance(x, TracedRun)]
            for run in runs:  # tracing changes no result
                if not run.problems:
                    run.problems = check_traced_same(workdir / "out0", workdir / f"traced{run.i}")
        if args.update_reference and iters[0].ok:
            write_reference(workdir / "out0", wl.name, inputs.sha256)

        t_check = time.perf_counter()  # cost of one output check, reported as check_s
        check_iteration(workdir / "out0", wl.name, args.seed, inputs.sha256, lam, True)
        check_s = time.perf_counter() - t_check

        attempted = len(iters) + len(runs)
        failed = sum(not it.ok for it in iters) + sum(bool(run.problems) for run in runs)
        results = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "input_sha256": inputs.sha256,
            "environment": env, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted, "check_s": check_s,
            "problems": [pr for x in iters + runs for pr in x.problems],
            "iterations": [{"name": it.proc.name, "rc": it.proc.rc, "setup": it.proc.setup,
                            "run": it.proc.run, "cpu": it.proc.cpu, "rss_mb": it.proc.rss_mb}
                           for it in iters],
        }
        if args.trace == 0:
            setups = [it.proc.setup for it in iters]
            probes = MIN_SETUP_SAMPLES - len(setups)
            setups += in_streams(lambda j: (setup_probe(workdir, j), 0.0),
                                 lambda j, _: j < probes)
            samples = {
                "setup_s": (setups, "s"),
                "run_s": ([it.proc.run for it in iters], "s"),
                "peak_rss_mb": ([it.proc.rss_mb for it in iters], "MB"),
            }
            # reported beside run_s, not a bounded metric (see README.md)
            results["cpu_s"] = describe([it.proc.cpu for it in iters])
        else:
            untraced_wall = statistics.median(it.wall for it in iters)
            per_iter, all_spans, untraced_names = [], [], set()
            for run in runs:
                self_times(run.trace["spans"])
                all_spans += run.trace["spans"]
                untraced_names.update(run.trace["untraced"])
                per_iter.append(layer_metrics(run.trace["spans"], untraced_wall, run.wall,
                                              workdir / "out0"))
            samples = {name: ([m[name][0] for m in per_iter], unit)
                       for name, (_, unit) in per_iter[0].items()}
            span_file = OUT / f"{tag}-spans.json"
            span_file.write_text(json.dumps(all_spans, indent=1) + "\n", encoding="utf-8")
            results["span_file"] = str(span_file.relative_to(ROOT))
            results["untraced_names"] = sorted(untraced_names)
            results["self_s_by_layer"] = self_by_layer(all_spans, len(runs))
        results["metrics"] = {name: {**describe(v), "unit": unit}
                              for name, (v, unit) in samples.items()}
        (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        print_summary(results)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": statistics.median(v), "unit": unit}
                        for name, (v, unit) in samples.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_by_layer(spans: list[dict], iterations: int) -> dict:
    """Mean self time per iteration, summed by the span name's first part."""
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += s["self_s"] / iterations
    return dict(sorted(out.items()))


def print_summary(r: dict) -> None:
    env = r["environment"]
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"input sha256 {r['input_sha256'][:16]}")
    print(f"environment: git {env['git_sha'][:12]}  source {env['source_sha256'][:12]}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {env['blas']}  env {env['env_vars'] or '-'}  "
          f"workers {env['workers']}  stream cpus {env['stream_cpus']}")
    print(f"attempted {r['attempted']}  failed {r['failed']}  "
          f"failed_share {r['failed_share']:.4f}  check_s {r['check_s']:.4f}")
    for pr in r["problems"]:
        print(f"  problem: {pr}")
    if r.get("untraced_names"):
        print(f"  not traced (missing from the program): {', '.join(r['untraced_names'])}")
    for name, d in r["metrics"].items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
        print(f"  {name:28s} {d['median']:>14.6g} {d['unit']:8s} n={d['n']}{extra}")
    if "cpu_s" in r:
        print(f"  {'cpu_s (user+system)':28s} {r['cpu_s']['median']:>14.6g} s        "
              f"n={r['cpu_s']['n']}")
    for layer, v in r.get("self_s_by_layer", {}).items():
        print(f"  self time {layer:18s} {v:>14.6g} s")


if __name__ == "__main__":
    sys.exit(main())
