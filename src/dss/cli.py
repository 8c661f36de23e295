"""Command line front end.

Subcommands:

- ``analyze``: sweep the homogeneous closed forms over hit ratios, CSV out.
- ``select``: run every selection strategy once on a context file.
- ``simulate``: one trace-driven run (plus its ground-truth normalizer).
- ``bench``: a strategy x beta x k x seed grid, CSV plus Markdown summary.

Exit codes: 0 success, 1 usage error, 2 input-data error, 3 internal error.
"""

from __future__ import annotations

import argparse
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
    run_with_baseline,
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
        p.add_argument("--store-size", type=int, default=1000, help="per-store capacity")
        p.add_argument("--target-fpr", type=float, default=0.02, help="indicator target fpr")
        p.add_argument("--alpha", type=float, default=0.5, help="hop/bandwidth cost blend")
        p.add_argument("--big-t", type=float, default=None, help="bandwidth scale T")
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
    simulate.add_argument("--beta", type=float, default=100.0, help="miss penalty")
    simulate.add_argument("--k", type=int, default=1, help="designated stores per item")
    simulate.add_argument("--seed", type=int, default=0)
    add_sim_env(simulate)

    bench = sub.add_parser("bench", help="strategy/beta/k/seed benchmark grid")
    bench.add_argument("--strategies", type=_list_of(_strategy_name, "strategy names"),
                       default=list(DEFAULT_BENCH_STRATEGIES))
    bench.add_argument("--betas", type=_list_of(float, "numbers"), default=[100.0])
    bench.add_argument("--ks", type=_list_of(int, "integers"), default=[1, 5])
    bench.add_argument("--seeds", type=_list_of(int, "integers"), default=[0])
    add_sim_env(bench)

    return parser


def _cmd_analyze(args) -> int:
    points = homogeneous_sweep(args.n, args.fpr, args.beta, hit_grid(args.hit_step))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_sweep_csv(points, fh)
    else:
        write_sweep_csv(points, sys.stdout)
    return 0


def _load_context(path: str, beta_override: float | None) -> SelectionContext:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    root = fileio.parse_document(text, path)
    top = fileio.as_mapping(root, path, "context document")
    beta_node = fileio.require(top, "beta", root, path, "context document")
    beta = fileio.as_float(beta_node, path, "beta")
    stores_node = fileio.require(top, "stores", root, path, "context document")
    profiles = []
    for item in fileio.as_sequence(stores_node, path, "stores"):
        fields = fileio.as_mapping(item, path, "store")
        store_id = fileio.as_int(
            fileio.require(fields, "id", item, path, "store"), path, "store id")
        cost = fileio.as_float(
            fileio.require(fields, "cost", item, path, "store"), path, "store cost")
        rho = fileio.as_float(
            fileio.require(fields, "rho", item, path, "store"), path, "store rho")
        try:
            profiles.append(DatastoreProfile(store_id, cost, rho))
        except ValueError as exc:
            raise fileio.FileFormatError(path, None, str(exc)) from exc
    if beta_override is not None:
        beta = beta_override
    try:
        return SelectionContext(tuple(profiles), beta)
    except ValueError as exc:
        raise fileio.FileFormatError(path, None, str(exc)) from exc


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


def _sim_inputs(args):
    topology = args.topology  # None -> bundled default
    if args.trace is not None:
        trace = args.trace
    else:
        trace = zipf_trace(
            args.synth_requests, args.synth_catalog, args.synth_skew, args.synth_seed
        )
    return topology, trace


def _cmd_simulate(args) -> int:
    topology, trace = _sim_inputs(args)
    config = SimConfig(
        strategy=args.strategy,
        miss_penalty=args.beta,
        locations_per_item=args.k,
        store_capacity=args.store_size,
        target_fpr=args.target_fpr,
        alpha=args.alpha,
        big_t=args.big_t,
        seed=args.seed,
    )
    metrics, _ = run_with_baseline(config, topology, trace)
    csv_text = metrics_csv([metrics])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_bench(args) -> int:
    topology, trace = _sim_inputs(args)
    rows = run_grid(
        strategies=args.strategies,
        betas=args.betas,
        ks=args.ks,
        seeds=args.seeds,
        topology=topology,
        trace=trace,
        store_capacity=args.store_size,
        target_fpr=args.target_fpr,
        alpha=args.alpha,
        big_t=args.big_t,
    )
    csv_text = metrics_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(args.out + ".md", "w", encoding="utf-8") as fh:
            fh.write(markdown_summary(rows))
    else:
        sys.stdout.write(csv_text)
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
