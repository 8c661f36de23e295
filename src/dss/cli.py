"""Command line front end.

Subcommands:

- ``analyze``: sweep the homogeneous closed forms over hit ratios, CSV out.
- ``select``: run every selection strategy once on a context file.
- ``simulate``: a one-strategy ``bench``: one run, normalized by its
  ground-truth baseline.
- ``bench``: a strategy x beta x k x seed grid, CSV plus Markdown summary.

Exit codes: 0 success, 1 usage error, 2 input-data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import io
import sys

from . import fileio
from .core import DatastoreProfile, InvariantError, SelectionContext, expected_cost
from .homogeneous import hit_grid, homogeneous_sweep, write_sweep_csv
from .sim import (
    DEFAULT_BENCH_STRATEGIES,
    SimConfig,
    markdown_summary,
    metrics_csv,
    resolve_strategy,
    run_grid,
)
from .strategies import STRATEGIES
from .workload import zipf_trace

USAGE_ERROR = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this project reserves 2 for bad
    input data, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _strategy_name(value: str) -> str:
    try:
        return resolve_strategy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _list_of(convert, what: str):
    """An argparse type for a comma-separated list of at least one value;
    empty tokens are skipped."""

    def parse(value: str) -> list:
        try:
            values = [convert(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of one or more {what}, got {value!r}")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dss", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="homogeneous closed-form sweep")
    analyze.add_argument("--n", type=int, default=20, help="number of stores")
    analyze.add_argument("--fpr", type=float, default=0.02, help="indicator false positive rate")
    analyze.add_argument("--beta", type=float, default=100.0, help="miss penalty")
    analyze.add_argument("--hit-step", type=float, default=0.05, help="hit-ratio grid step")
    analyze.add_argument("--out", help="CSV output path (default stdout)")

    select = sub.add_parser("select", help="run every strategy on one context")
    select.add_argument("--context", required=True, help="context file (YAML)")
    select.add_argument("--beta", type=float, help="override the file's miss penalty")

    def add_sim_env(p):
        p.add_argument("--topology", help="topology file (default: bundled 19-node)")
        p.add_argument("--trace", help="trace file, one item per line (default: synthetic)")
        p.add_argument("--store-size", type=int, default=SimConfig.store_capacity,
                       help="per-store capacity")
        p.add_argument("--target-fpr", type=float, default=SimConfig.target_fpr,
                       help="indicator target fpr")
        p.add_argument("--alpha", type=float, default=SimConfig.alpha,
                       help="hop/bandwidth cost blend")
        p.add_argument("--big-t", type=float, default=SimConfig.big_t, help="bandwidth scale T")
        p.add_argument("--synth-requests", type=int, default=20000,
                       help="synthetic trace length (when --trace is omitted)")
        p.add_argument("--synth-catalog", type=int, default=20000,
                       help="synthetic trace catalog size")
        p.add_argument("--synth-skew", type=float, default=1.0,
                       help="synthetic trace Zipf skew")
        p.add_argument("--synth-seed", type=int, default=42,
                       help="synthetic trace seed")
        p.add_argument("--out", help="CSV output path (default stdout)")

    simulate = sub.add_parser("simulate", help="one trace-driven run")
    simulate.add_argument("--strategy", type=_strategy_name, default="cpi")
    simulate.add_argument("--beta", type=float, default=SimConfig.miss_penalty,
                          help="miss penalty")
    simulate.add_argument("--k", type=int, default=SimConfig.locations_per_item,
                          help="designated stores per item")
    simulate.add_argument("--seed", type=int, default=SimConfig.seed)
    add_sim_env(simulate)

    bench = sub.add_parser("bench", help="strategy/beta/k/seed benchmark grid")
    bench.add_argument("--strategies", type=_list_of(_strategy_name, "strategy names"),
                       default=list(DEFAULT_BENCH_STRATEGIES))
    bench.add_argument("--betas", type=_list_of(float, "numbers"),
                       default=[SimConfig.miss_penalty])
    bench.add_argument("--ks", type=_list_of(int, "integers"), default=[1, 5])
    bench.add_argument("--seeds", type=_list_of(int, "integers"), default=[SimConfig.seed])
    add_sim_env(bench)

    return parser


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    points = homogeneous_sweep(args.n, args.fpr, args.beta, hit_grid(args.hit_step))
    out = io.StringIO()
    write_sweep_csv(points, out)
    _write(out.getvalue(), args.out)
    return 0


def _load_context(path: str, beta_override: float | None) -> SelectionContext:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    root = fileio.parse_document(text, path)
    top = fileio.as_mapping(root, path, "context document")
    beta_node = fileio.require(top, "beta", root, path, "context document")
    beta = fileio.as_float(beta_node, path, "beta")
    beta_line = fileio.line_of(beta_node)
    if beta_override is not None:
        beta, beta_line = beta_override, None
    try:
        ctx = SelectionContext((), beta)
    except ValueError as exc:
        raise fileio.FileFormatError(path, beta_line, str(exc)) from exc
    stores_node = fileio.require(top, "stores", root, path, "context document")
    for item in fileio.as_sequence(stores_node, path, "stores"):
        fields = fileio.as_mapping(item, path, "store")
        store_id = fileio.as_int(
            fileio.require(fields, "id", item, path, "store"), path, "store id")
        cost = fileio.as_float(
            fileio.require(fields, "cost", item, path, "store"), path, "store cost")
        rho = fileio.as_float(
            fileio.require(fields, "rho", item, path, "store"), path, "store rho")
        # Each store joins the context of the stores before it, so an error
        # names the line of the first store that breaks a rule.
        try:
            profile = DatastoreProfile(store_id, cost, rho)
            ctx = SelectionContext(ctx.candidates + (profile,), beta)
        except ValueError as exc:
            raise fileio.FileFormatError(path, fileio.line_of(item), str(exc)) from exc
    return ctx


def _cmd_select(args) -> int:
    ctx = _load_context(args.context, args.beta)
    for name, select in STRATEGIES.items():
        try:
            chosen = select(ctx)
        except ValueError as exc:
            print(f"{name} unavailable: {exc}")
            continue
        ids = ",".join(str(p.id) for p in chosen) if chosen else "-"
        value = expected_cost(chosen, ctx.miss_penalty).total
        print(f"{name} {ids} {format(value, '.6g')}")
    return 0


def _grid(args, strategies, betas, ks, seeds) -> list:
    """run_grid over the trace file, or a synthetic Zipf trace without one."""
    trace = args.trace
    if trace is None:
        trace = zipf_trace(
            args.synth_requests, args.synth_catalog, args.synth_skew, args.synth_seed
        )
    return run_grid(strategies, betas, ks, seeds, args.topology, trace,
                    args.store_size, args.target_fpr, args.alpha, args.big_t)


def _cmd_simulate(args) -> int:
    rows = _grid(args, [args.strategy], [args.beta], [args.k], [args.seed])
    _write(metrics_csv(rows), args.out)
    return 0


def _cmd_bench(args) -> int:
    rows = _grid(args, args.strategies, args.betas, args.ks, args.seeds)
    _write(metrics_csv(rows), args.out)
    if args.out:
        _write(markdown_summary(rows), args.out + ".md")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (fileio.FileFormatError, OSError, ValueError) as exc:
        print(f"dss: error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except InvariantError as exc:
        print(f"dss: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
