"""Command-line interface: flags, output formats, and exit codes."""

import math
import os
import random

import pytest

from dss.cli import main
from dss.strategies import EXHAUSTIVE_MAX_CANDIDATES, STRATEGIES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


def write_context(path, stores, beta=100.0):
    lines = [f"beta: {beta}"]
    if stores:
        lines.append("stores:")
        for i, c, r in stores:
            lines.append(f"  - {{id: {i}, cost: {c}, rho: {r}}}")
    else:
        lines.append("stores: []")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return os.fspath(path)


def test_analyze_default_sweep(capsys):
    code, out, _ = run_cli(["analyze"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 21
    half = next(r for r in rows if float(r["hit"]) == 0.5)
    expected = {
        "perfect": 1.00009,
        "fpo": 2.03852,
        "cpi": 2.96085,
        "epi": 10.20010,
        "no_indicator": 7.5625,
    }
    for column, value in expected.items():
        assert float(half[column]) == pytest.approx(value, rel=1e-3)


def test_analyze_step_one(capsys):
    code, out, _ = run_cli(["analyze", "--hit-step", "1"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["hit"]) for r in rows] == [0.0, 1.0]


def test_analyze_zero_fpr_collapses_fpo_to_perfect(capsys):
    code, out, _ = run_cli(["analyze", "--fpr", "0"], capsys)
    assert code == 0
    for row in parse_csv(out):
        assert float(row["fpo"]) == pytest.approx(float(row["perfect"]), abs=1e-9)


def test_analyze_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(["analyze", "--out", os.fspath(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("hit,perfect,fpo,cpi,epi,no_indicator")


def test_select_three_store_context(tmp_path, capsys):
    ctx = write_context(
        tmp_path / "ctx.yaml", [(1, 1, 0.5), (2, 2, 0.4), (3, 5, 0.3)]
    )
    code, out, _ = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    lines = dict()
    for line in out.strip().split("\n"):
        name, ids, value = line.split()
        lines[name] = (ids, float(value))
    assert set(lines) == {"cpi", "epi", "pot", "pp", "umb", "pgm", "opt"}
    assert lines["cpi"][0] == "1"  # the cheapest positive indication
    assert lines["epi"][0] == "1,2,3"
    assert lines["epi"][1] == pytest.approx(8 + 100 * 0.5 * 0.4 * 0.3)
    for name in lines:
        assert lines[name][1] >= lines["opt"][1] - 1e-9


def test_select_empty_context(tmp_path, capsys):
    ctx = write_context(tmp_path / "ctx.yaml", [])
    code, out, _ = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    for line in out.strip().split("\n"):
        name, ids, value = line.split()
        assert ids == "-"
        assert float(value) == 100.0


def test_select_beta_override(tmp_path, capsys):
    ctx = write_context(tmp_path / "ctx.yaml", [(1, 1, 0.5)], beta=100.0)
    _, out_default, _ = run_cli(["select", "--context", ctx], capsys)
    _, out_low, _ = run_cli(["select", "--context", ctx, "--beta", "2"], capsys)
    # beta=2 makes even one unit of access cost not worth paying
    cpi_default = out_default.strip().split("\n")[0].split()
    cpi_low = out_low.strip().split("\n")[0].split()
    assert cpi_default[2] == "51"
    assert float(cpi_low[2]) == 2.0 or cpi_low[1] == "1"


def test_select_random_context_oracle_dominates(tmp_path, capsys):
    rng = random.Random(61)
    stores = [
        (j, rng.randint(1, 9), round(rng.uniform(0.05, 0.95), 3)) for j in range(8)
    ]
    ctx = write_context(tmp_path / "ctx.yaml", stores, beta=64.0)
    code, out, _ = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    values = {}
    for line in out.strip().split("\n"):
        name, _, value = line.split()
        values[name] = float(value)
    assert min(values, key=values.get) == "opt" or math.isclose(
        values["opt"], min(values.values())
    )


def test_select_fractional_costs_disable_budget_sweep(tmp_path, capsys):
    ctx = write_context(tmp_path / "ctx.yaml", [(1, 1.5, 0.5), (2, 2, 0.4)])
    code, out, _ = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    pp_line = next(l for l in out.strip().split("\n") if l.startswith("pp"))
    assert "unavailable" in pp_line
    assert any(l.startswith("opt ") for l in out.strip().split("\n"))


def test_select_reports_pp_unavailable_on_a_huge_budget(tmp_path, capsys):
    ctx = write_context(tmp_path / "ctx.yaml", [(1, 10**12, 0.1)], beta=1e13)
    code, out, err = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines] == list(STRATEGIES)
    pp_line = lines[list(STRATEGIES).index("pp")]
    assert pp_line.startswith(
        "pp unavailable: budget sweep up to budget 1000000000000 over 1 candidates"
    )


def test_select_at_a_beta_near_the_float_ceiling(tmp_path, capsys):
    """beta 1.7e308 gives pgm 1024 dyadic ranges; every strategy still answers."""
    ctx = write_context(tmp_path / "ctx.yaml", [(0, 1, 0.9), (1, 2, 0.9)], beta=1.7e308)
    code, out, err = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines] == list(STRATEGIES)
    assert lines[list(STRATEGIES).index("pgm")].split()[1] == "0,1"


def test_select_reports_every_strategy_in_table_order(tmp_path, capsys):
    stores = [(j, 1 + j % 4, 0.5) for j in range(EXHAUSTIVE_MAX_CANDIDATES + 1)]
    ctx = write_context(tmp_path / "ctx.yaml", stores)
    code, out, _ = run_cli(["select", "--context", ctx], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines] == list(STRATEGIES)
    assert lines[-1] == (
        "opt unavailable: exhaustive search supports at most 20 candidates, got 21"
    )


def test_select_bad_context_is_input_error(tmp_path, capsys):
    no_beta = tmp_path / "broken.yaml"
    no_beta.write_text("stores: []\n", encoding="utf-8")
    code, _, err = run_cli(["select", "--context", os.fspath(no_beta)], capsys)
    assert code == 2
    assert "beta" in err
    code, _, err = run_cli(
        ["select", "--context", os.fspath(tmp_path / "missing.yaml")], capsys
    )
    assert code == 2


def _two_stores(second):
    return f"beta: 100\nstores:\n  - {{id: 1, cost: 2, rho: 0.5}}\n  - {{{second}}}\n"


@pytest.mark.parametrize("text, line, message", [
    ("beta: 100\nstores: [1, 2\n", 3, "syntax error"),
    ("", None, "empty document"),
    ("- 1\n- 2\n", 1, "context document must be a mapping"),
    ("beta: 100\n[a]: 1\nstores: []\n", 2, "keys must be scalars"),
    ("beta: 100\nbeta: 5\nstores: []\n", 2, "duplicate key 'beta'"),
    ("beta: 100\nstores:\n  id: 1\n", 3, "stores must be a sequence"),
    ("beta: abc\nstores: []\n", 1, "beta must be a number"),
    (_two_stores("id: 1.5, cost: 2, rho: 0.5"), 4, "store id must be an integer"),
    ("beta: .inf\nstores: []\n", 1, "miss_penalty must be finite"),
    (_two_stores("id: 2, cost: .inf, rho: 0.5"), 4, "access_cost must be finite"),
    (_two_stores("id: 2, cost: -.inf, rho: 0.5"), 4, "access_cost must be finite"),
    (_two_stores("id: 2, cost: inf, rho: 0.5"), 4, "access_cost must be finite"),
    (_two_stores("id: 2, cost: 0.5, rho: 0.5"), 4, "normalized to >= 1"),
    (_two_stores("id: 2, cost: 2, rho: 1.0"), 4, "mis_ratio must lie in [0, 1)"),
    (_two_stores("id: 2, cost: 2, rho: .NaN"), 4, "mis_ratio must lie in [0, 1)"),
    (_two_stores("id: 1, cost: 3, rho: 0.5"), 4, "ids must be distinct"),
], ids=["syntax", "empty", "sequence", "key-not-scalar", "duplicate-key", "stores-mapping",
        "beta-abc", "id-1.5", "beta-.inf", "cost-.inf", "cost--.inf", "cost-inf", "cost-0.5",
        "rho-1.0", "rho-.NaN", "duplicate-id"])
def test_select_malformed_context_names_its_line(text, line, message, tmp_path, capsys):
    path = tmp_path / "ctx.yaml"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["select", "--context", os.fspath(path)], capsys)
    where = os.fspath(path) if line is None else f"{path}:{line}"
    assert code == 2
    assert out == ""
    assert err.startswith(f"dss: error: {where}: ")
    assert message in err


def test_usage_errors_exit_one(capsys):
    for argv in [
        [],
        ["unknown-command"],
        ["analyze", "--bogus-flag", "3"],
        ["simulate", "--strategy", "nope"],
        ["select"],  # --context is required
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1


def test_invariant_error_exits_three(monkeypatch, capsys):
    import dss.cli
    from dss.core import InvariantError

    def broken(args):
        raise InvariantError("broken invariant")

    monkeypatch.setitem(dss.cli._COMMANDS, "analyze", broken)
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 3
    assert "internal error: broken invariant" in err


SMALL_SIM = [
    "--synth-requests", "300", "--synth-catalog", "200",
    "--store-size", "50",
]


def test_simulate_ground_truth_normalizes_to_one(capsys):
    code, out, _ = run_cli(["simulate", "--strategy", "pi"] + SMALL_SIM, capsys)
    assert code == 0
    (row,) = parse_csv(out)
    assert row["strategy"] == "pi"
    assert float(row["TC_norm"]) == 1.0
    assert int(row["requests"]) == 300


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "pi", "--beta", "nan"],
    ["analyze", "--beta", "nan"],
    ["simulate", "--strategy", "pi", "--big-t", "inf"],
    ["simulate", "--strategy", "pi", "--big-t", "nan"],
    ["simulate", "--strategy", "pi", "--synth-skew", "nan"],
])
def test_non_finite_inputs_are_input_errors(argv, capsys):
    code, out, err = run_cli(argv + (SMALL_SIM if argv[0] == "simulate" else []), capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("flag", ["--seed", "--synth-seed"])
def test_negative_seed_is_an_input_error_naming_the_seed(flag, capsys):
    code, out, err = run_cli(["simulate", "--strategy", "pi", flag, "-1"] + SMALL_SIM, capsys)
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


def test_oversized_filters_are_an_input_error(monkeypatch, capsys):
    import dss.sim

    def no_bank(*args, **kwargs):
        raise AssertionError("a filter bank was allocated")

    monkeypatch.setattr(dss.sim, "FilterBank", no_bank)
    code, out, err = run_cli(["simulate", "--strategy", "cpi", "--target-fpr", "1e-30"]
                             + SMALL_SIM, capsys)
    assert code == 2
    assert out == ""
    assert "target_fpr" in err and "store_capacity" in err


def test_ground_truth_alone_takes_any_target_fpr(capsys):
    # pi keeps no filters, so a filter size no bank could hold is no error.
    code, out, err = run_cli(["simulate", "--strategy", "pi", "--target-fpr", "1e-30",
                              "--synth-requests", "2000"], capsys)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert (row["fpr"], row["requests"], row["TC_norm"]) == ("1e-30", "2000", "1")


def test_simulate_repeats_identically(tmp_path, capsys):
    args = ["simulate", "--strategy", "umb", "--k", "2", "--seed", "9"] + SMALL_SIM
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", os.fspath(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", os.fspath(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_accepts_trace_and_topology_files(tmp_path, capsys):
    topo = tmp_path / "net.yaml"
    topo.write_text(
        "nodes: [a, b, c]\n"
        "edges:\n"
        "  - {a: a, b: b, bw: 10}\n"
        "  - {a: b, b: c, bw: 5}\n",
        encoding="utf-8",
    )
    trace = tmp_path / "trace.txt"
    trace.write_text("x\ny\nx\nx\n", encoding="utf-8")
    code, out, _ = run_cli(
        [
            "simulate", "--strategy", "cpi",
            "--topology", os.fspath(topo),
            "--trace", os.fspath(trace),
            "--store-size", "4",
        ],
        capsys,
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert int(row["requests"]) == 4


def _topology(edges, nodes="nodes:\n  - a\n  - b\n  - c\n"):
    return nodes + "edges:\n" + "".join(f"  - {{{edge}}}\n" for edge in edges)


@pytest.mark.parametrize("text, line, message", [
    (_topology(["a: a, b: b, bw: 1"], "nodes:\n  - a\n  - b\n  - a\n"), 4,
     "node ids must be distinct; 'a' repeats"),
    (_topology(["a: a, b: b, bw: 1", "a: b, b: d, bw: 1"]), 7, "edge b-d references an unknown node"),
    (_topology(["a: a, b: b, bw: 1", "a: c, b: c, bw: 1"]), 7, "self-loop on node c"),
    (_topology(["a: a, b: b, bw: 1", "a: b, b: c, bw: 2", "a: c, b: b, bw: 3"]), 8,
     "duplicate edge c-b"),
    (_topology(["a: a, b: b, bw: 1", "a: b, b: c, bw: 0"]), 7, "bandwidth must be positive"),
    (_topology(["a: a, b: b, bw: -.inf", "a: b, b: c, bw: 1"]), 6, "bandwidth must be positive"),
    (_topology(["a: a, b: b, bw: 1"]), None, "topology is not connected"),
    ("edges: []\nnodes: []\n", 2, "topology needs at least one node"),
], ids=["repeated-node", "unknown-endpoint", "self-loop", "duplicate-edge", "bw-0", "bw--.inf",
        "disconnected", "empty-nodes"])
def test_simulate_malformed_topology_names_its_line(text, line, message, tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        ["simulate", "--strategy", "cpi", "--topology", os.fspath(path)] + SMALL_SIM, capsys
    )
    where = os.fspath(path) if line is None else f"{path}:{line}"
    assert code == 2
    assert out == ""
    assert err.startswith(f"dss: error: {where}: ")
    assert message in err


def test_bench_grid_and_markdown(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        [
            "bench", "--strategies", "cpi,pi", "--betas", "50",
            "--ks", "1,2", "--seeds", "0", "--out", os.fspath(out_path),
        ]
        + SMALL_SIM,
        capsys,
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 4  # 2 strategies x 1 beta x 2 ks x 1 seed
    assert {r["strategy"] for r in rows} == {"cpi", "pi"}
    assert all(r["TC_norm"] for r in rows)
    summary = (tmp_path / "grid.csv.md").read_text()
    assert "beta=50, k=1" in summary
    assert "| cpi |" in summary


@pytest.mark.parametrize("flag", ["--strategies", "--betas", "--ks", "--seeds"])
@pytest.mark.parametrize("value", ["", " , "], ids=["empty", "blank"])
def test_bench_rejects_an_empty_list(flag, value, tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as err:
        main(["bench", flag, value, "--out", os.fspath(out_path)] + SMALL_SIM)
    assert err.value.code == 1
    assert flag in capsys.readouterr().err
    assert not out_path.exists()
