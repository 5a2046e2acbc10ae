"""Command-line interface.

Subcommands are the pipeline stages, so the chain

    ingest -> stats -> unitroot -> var -> tvvar -> bootstrap -> segments -> report

writes the same artifacts as a single ``run``: each subcommand reads its
input artifact and calls the same ``tveff.pipeline`` stage function as
``run``.  A stage flag left out keeps the ``PipelineConfig`` default;
``--q`` left out selects the VAR order by the Schwarz criterion, which
reproduces the single-shot choice exactly.

Exit codes: 0 success, 1 usage error, 2 data error or a file that cannot be
read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, NumericalError
from .pipeline import (
    PipelineConfig,
    _write_dated_csv,
    bootstrap_stage,
    emit_report,
    ingest_stage,
    read_returns_csv,
    read_zeta_csv,
    resolve_q,
    run_pipeline,
    segments_stage,
    stats_stage,
    tvvar_stage,
    unitroot_stage,
    var_stage,
)
from .synth import SCENARIO_KINDS, ScenarioSpec, gen_returns, true_zeta_path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Flags that set a PipelineConfig field store under the field's name and
# default to None, which keeps the config's value.
_CONFIG_FIELDS = set(PipelineConfig.__dataclass_fields__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", "-o", default=".", help="artifact directory")


def _add_returns_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--returns", required=True, help="returns CSV (from the ingest step)")


def _add_order_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="VAR order; omitted selects by SBIC up to --q-max")
    p.add_argument("--q-max", type=int, help="SBIC search bound")


def _add_lam_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float,
                   help="smoothness ratio (observation / coefficient noise)")


def _add_bootstrap_args(p: argparse.ArgumentParser) -> None:
    _add_lam_arg(p)
    p.add_argument("--replications", type=int)
    p.add_argument("--coverage", type=float)
    p.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="tveff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"tveff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a price CSV, repair gaps, write returns")
    p.add_argument("--input", "-i", dest="input_path", metavar="INPUT", required=True)
    p.add_argument("--date-column")
    p.add_argument("--price-columns", nargs="+")
    p.add_argument("--date-format")
    p.add_argument("--no-interpolate", dest="interpolate", action="store_false", default=None)
    _add_io_args(p)

    p = sub.add_parser("stats", help="descriptive statistics of returns")
    _add_returns_arg(p)
    _add_io_args(p)

    p = sub.add_parser("unitroot", help="GLS-detrended ADF tests per column")
    _add_returns_arg(p)
    p.add_argument("--model", dest="unitroot_model", choices=["constant", "trend"])
    p.add_argument("--k-max", dest="unitroot_k_max", metavar="K_MAX", type=int)
    _add_io_args(p)

    p = sub.add_parser("var", help="time-invariant VAR with robust errors")
    _add_returns_arg(p)
    _add_order_args(p)
    _add_io_args(p)

    p = sub.add_parser("tvvar", help="time-varying VAR efficiency path (no bands)")
    _add_returns_arg(p)
    _add_order_args(p)
    _add_lam_arg(p)
    p.add_argument("--coef-out", default=None,
                   help="optional long-format CSV of the coefficient paths")
    _add_io_args(p)

    p = sub.add_parser("bootstrap", help="efficiency path with bootstrap bands")
    _add_returns_arg(p)
    _add_order_args(p)
    _add_bootstrap_args(p)
    _add_io_args(p)

    p = sub.add_parser("segments", help="classify efficient/inefficient periods")
    p.add_argument("--zeta", required=True, help="zeta_path.csv with bands")
    p.add_argument("--min-run", type=int)
    p.add_argument("--breakpoints", nargs="*",
                   help="ISO dates starting new volatility regimes")
    _add_io_args(p)

    p = sub.add_parser("report", help="render the text report from artifacts")
    p.add_argument("--artifacts", default=".", help="directory holding the artifacts")
    p.add_argument("--out", default=None, help="write to file instead of stdout")

    # ScenarioSpec fields; a flag left out keeps the spec's default
    p = sub.add_parser("synth", help="generate a synthetic price CSV")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--sigma-eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--period", type=float)
    p.add_argument("--sigma-v", type=float)
    p.add_argument("--coeff", default=None,
                   help="JSON slope matrices with shape (q, n, n)")
    p.add_argument("--out", default="prices.csv")
    p.add_argument("--true-zeta", default=None,
                   help="optional CSV of the generator's efficiency degree")

    p = sub.add_parser("run", help="run the whole pipeline from a config file")
    p.add_argument("--config", required=True,
                   help="JSON config (a run manifest is also accepted)")
    p.add_argument("--input", dest="input_path", metavar="INPUT", help="override input_path")
    p.add_argument("--output-dir", "-o", help="override output_dir")
    p.add_argument("--q", type=int)
    _add_bootstrap_args(p)
    p.add_argument("--min-run", type=int)

    return parser


def _config(args, base: PipelineConfig | None = None) -> PipelineConfig:
    """``base`` (default: the ``PipelineConfig`` defaults) with the given flags laid over it."""
    merged = asdict(base) if base is not None else {"input_path": "", "output_dir": ""}
    merged.update({k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None})
    return PipelineConfig.from_dict(merged)


def _stage_config(args) -> tuple[PipelineConfig, Path]:
    """Config of a stage subcommand and its (created) output directory."""
    config = _config(args)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _cmd_ingest(args) -> int:
    config, out = _stage_config(args)
    _, (p_prices, p_returns) = ingest_stage(config, out)
    print(f"wrote {p_prices} and {p_returns}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    _, out = _stage_config(args)
    _, (p_csv, _) = stats_stage(out, read_returns_csv(args.returns))
    print(f"wrote {p_csv}")
    return EXIT_OK


def _cmd_unitroot(args) -> int:
    config, out = _stage_config(args)
    returns = read_returns_csv(args.returns)
    tests, _ = unitroot_stage(config, out, returns)
    for j, t in enumerate(tests):
        verdict = "rejects unit root at 1%" if t.rejects_at("1%") else "no rejection at 1%"
        print(f"{returns.labels[j]}: stat {t.statistic:.4f}, lags {t.selected_lag}, {verdict}")
    return EXIT_OK


def _cmd_var(args) -> int:
    config, out = _stage_config(args)
    returns = read_returns_csv(args.returns)
    q = resolve_q(config, returns)
    lc, (p_csv, _) = var_stage(out, returns, q)
    print(f"VAR({q}): Lc {lc.lc_statistic:.4f} (dof {lc.dof}), wrote {p_csv}")
    return EXIT_OK


def _cmd_tvvar(args) -> int:
    config, out = _stage_config(args)
    returns = read_returns_csv(args.returns)
    q = resolve_q(config, returns)
    _, (p_tv, *_) = tvvar_stage(config, out, returns, q, coef_out=args.coef_out)
    print(f"TV-VAR({q}) lam={config.lam}: wrote {p_tv}")
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    config, out = _stage_config(args)
    returns = read_returns_csv(args.returns)
    _, (p_csv, *_) = bootstrap_stage(config, out, returns, resolve_q(config, returns))
    print(f"wrote {p_csv} with {config.replications} replications")
    return EXIT_OK


def _cmd_segments(args) -> int:
    config, out = _stage_config(args)
    segments, (p_seg, _) = segments_stage(config, out, read_zeta_csv(args.zeta))
    print(f"wrote {p_seg} ({len(segments)} segments)")
    return EXIT_OK


def _cmd_report(args) -> int:
    text = emit_report(args.artifacts)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_synth(args) -> int:
    # every ScenarioSpec field is the dest of the flag that sets it
    fields = {name: getattr(args, name) for name in ScenarioSpec.__dataclass_fields__
              if getattr(args, name) is not None}
    if args.coeff is not None:
        try:
            fields["coeff"] = np.asarray(json.loads(args.coeff), dtype=np.float64)
        except (json.JSONDecodeError, ValueError) as exc:
            raise DataError(f"--coeff must be JSON matrices: {exc}") from exc
    spec = ScenarioSpec(**fields)
    returns, path = gen_returns(spec)
    # prices that reproduce the generated returns under the ingest step
    with np.errstate(over="ignore"):
        levels = 100.0 * np.exp(np.concatenate(
            [np.zeros((1, returns.n_columns)), np.cumsum(returns.values, axis=0)]
        ))
    if not (np.isfinite(levels) & (levels > 0)).all():
        raise DataError(f"sigma_eps={spec.sigma_eps:g} gives returns whose price levels "
                        "overflow to 0 or inf; use a smaller sigma_eps")
    dates = np.concatenate([[returns.dates[0] - np.timedelta64(1, "D")], returns.dates])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_dated_csv(out, dates, levels, returns.labels)
    print(f"wrote {out} ({spec.kind}, T={spec.T}, n={spec.n}, seed={spec.seed})")
    if args.true_zeta:
        p_zeta = Path(args.true_zeta)
        p_zeta.parent.mkdir(parents=True, exist_ok=True)
        _write_dated_csv(p_zeta, returns.dates, true_zeta_path(path)[:, None],
                         ("zeta",))
        print(f"wrote {args.true_zeta}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config(args, PipelineConfig.from_json(args.config))
    result = run_pipeline(config)
    print(f"pipeline complete: VAR({result.q}), {len(result.segments)} segments, "
          f"{len(result.artifacts)} artifacts in {config.output_dir}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "unitroot": _cmd_unitroot,
    "var": _cmd_var,
    "tvvar": _cmd_tvvar,
    "bootstrap": _cmd_bootstrap,
    "segments": _cmd_segments,
    "report": _cmd_report,
    "synth": _cmd_synth,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, NumericalError, OSError) as exc:  # OSError: a file not read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
