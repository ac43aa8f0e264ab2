import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pricelab.baselines import Columns, Method, Optimum
from pricelab import cli, experiment
from pricelab.cli import main
from pricelab.domain import DayType
from pricelab.experiment import check_products, optimize_blocks, optimize_overflow
from pricelab.qlearn import LOCKSTEP_MIN_PRODUCTS

FAST = ["--episodes", "250"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSampleCatalog:
    def test_prints_fourteen_rows(self, capsys):
        code, out, _ = run(capsys, ["sample-catalog"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15
        assert lines[0].startswith("product_name,price_elasticity,base_price,base_demand")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "catalog.csv"
        code, out, _ = run(capsys, ["sample-catalog", "-o", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("product_name")


class TestValidate:
    def test_rejection_exits_one_and_names_reason(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "product_name,price_elasticity,base_price,base_demand\n"
            "Fine TV,-0.5,100.0,50.0\n"
            "Giffen TV,0.4,100.0,50.0\n"
        )
        code, out, _ = run(capsys, ["validate", "--catalog", str(bad)])
        assert code == 1
        assert "row 2" in out
        assert "NonNegativeElasticity" in out

    def test_clean_catalog_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("product_name,price_elasticity,base_price,base_demand\nTV,-1.0,99.0,10.0\n")
        code, out, _ = run(capsys, ["validate", "--catalog", str(good)])
        assert code == 0
        assert "accepted 1 of 1" in out

    def test_missing_file_exits_two_naming_path(self, capsys):
        code, _, err = run(capsys, ["validate", "--catalog", "/no/such/file.csv"])
        assert code == 2
        assert "/no/such/file.csv" in err

    def test_catalog_flag_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate"])
        assert excinfo.value.code == 2

    def test_accepts_row_whose_grid_is_unusable(self, tmp_path, capsys):
        # validate checks rows, not grids: a grid depends on --grid-span and
        # --grid-points, which validate does not take
        cat = tmp_path / "cat.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\nHuge,-0.5,1.7e308,1.0\n")
        code, out, _ = run(capsys, ["validate", "--catalog", str(cat)])
        assert (code, out) == (0, "row 1: accepted (Huge)\naccepted 1 of 1 rows\n")
        code, out, err = run(capsys, ["optimize", "--catalog", str(cat)])
        assert (code, out) == (2, "")
        assert err == "pricelab: error: product 'Huge': grid upper bound 2.0 * base_price overflows\n"

    def test_help_says_grids_are_not_checked(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "--grid-span" in " ".join(capsys.readouterr().out.split())


class TestFileBoundary:
    @pytest.mark.parametrize(
        "argv", [["optimize"], ["train", "--product", 'Sony 40" FHD', *FAST]], ids=["optimize", "train"]
    )
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run(capsys, [*argv, "-o", str(target)])
        assert code == 2
        assert err.startswith("pricelab: error:")
        assert str(target) in err

    @pytest.mark.parametrize("command", ["validate", "optimize"])
    def test_catalog_with_byte_order_mark(self, tmp_path, capsys, command):
        cat = tmp_path / "bom.csv"
        cat.write_bytes(
            "\ufeffproduct_name,price_elasticity,base_price,base_demand\nTV,-1.0,99.0,10.0\n".encode("utf-8")
        )
        code, out, err = run(capsys, [command, "--catalog", str(cat)])
        assert code == 0
        assert err == ""
        assert "TV" in out


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--turbo"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


# Every parser action as (option strings, dest, nargs, metavar, choices, default,
# help, required, type).  The actions, not argparse's formatted help, which
# changes between Python versions.
HELP = (("-h", "--help"), "help", 0, None, None, "==SUPPRESS==", "show this help message and exit", False, None)
OUTPUT = (("--output", "-o"), "output", None, None, None, None, "output path (default: standard output)", False, None)
CATALOG = (("--catalog",), "catalog", None, None, None, None, "catalog CSV path (default: embedded sample catalog)",
           False, None)
CONFIG_ACTIONS = [
    (("--config",), "config", None, None, None, None, "flat JSON config file; flags override file values", False, None),
    (("--seed",), "master_seed", None, None, None, None, "master seed (default 0)", False, "int"),
    *((("--" + key.replace("_", "-"),), key, None, None, None, None, None, False, kind)
      for key, kind in [("episodes", "int"), ("alpha", "float"), ("gamma", "float"), ("epsilon_start", "float"),
                        ("epsilon_min", "float"), ("epsilon_decay", "float"), ("steps_per_episode", "int"),
                        ("grid_points", "int")]),
    (("--grid-span",), "grid_span", 2, ("LO", "HI"), None, None, None, False, "float"),
    (("--weekday-multiplier",), "weekday_multiplier", None, None, None, None, None, False, "float"),
    (("--weekend-multiplier",), "weekend_multiplier", None, None, None, None, None, False, "float"),
    (("--cost-policy",), "cost_policy", None, None, ["catalog", "zero", "fraction"], None, None, False, None),
    (("--cost-fraction",), "cost_fraction", None, None, None, None, None, False, "float"),
]
FORMAT = (("--format",), "format", None, None, ["csv", "json", "markdown"], "csv", None, False, None)
PARSER_ACTIONS = {
    "pricelab": [
        HELP,
        ((), "command", "A...", None, ["sample-catalog", "validate", "curve", "train", "optimize", "compare"],
         None, None, True, None),
    ],
    "sample-catalog": [HELP, OUTPUT],
    "validate": [HELP, (("--catalog",), "catalog", None, None, None, None, "catalog CSV path", True, None), OUTPUT],
    "curve": [
        HELP, CATALOG, OUTPUT, *CONFIG_ACTIONS,
        (("--samples",), "samples", None, None, None, 101, "samples per curve (default 101)", False, "int"),
    ],
    "train": [
        HELP, CATALOG, OUTPUT, *CONFIG_ACTIONS,
        (("--product",), "product", None, None, None, None, "exact product name from the catalog", True, None),
    ],
    "optimize": [HELP, CATALOG, OUTPUT, *CONFIG_ACTIONS, FORMAT],
    "compare": [
        HELP, CATALOG, OUTPUT, *CONFIG_ACTIONS, FORMAT,
        (("--jobs",), "jobs", None, "N", None, 1,
         "processes to compare in (default 1): the catalog is split into up to N contiguous parts, capped at the "
         "usable CPUs and the product count; the report is the same at any N", False, "int"),
    ],
}


def test_every_parser_action_is_pinned():
    def record(action):
        choices = None if action.choices is None else list(action.choices)
        return (tuple(action.option_strings), action.dest, action.nargs, action.metavar, choices, action.default,
                action.help, action.required, getattr(action.type, "__name__", None))

    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if a.dest == "command"]
    parsers = {"pricelab": parser, **subcommands.choices}
    assert {name: [record(a) for a in p._actions] for name, p in parsers.items()} == PARSER_ACTIONS


class TestConfigFile:
    def test_config_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodes": 200, "master_seed": 9, "cost_policy": "zero"}))
        code, out, _ = run(capsys, ["compare", "--config", str(cfg), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["hyperparams"]["episodes"] == 200
        assert doc["config"]["master_seed"] == 9
        assert doc["config"]["cost_policy"]["kind"] == "zero"

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodes": 200, "master_seed": 9}))
        code, out, _ = run(
            capsys, ["compare", "--config", str(cfg), "--seed", "77", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["config"]["master_seed"] == 77

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodess": 200}))
        code, _, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 2
        assert "episodess" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 2
        assert "cfg.json" in err

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--weekend-multiplier", "inf", "--format", "json"], None),
            (["--weekday-multiplier", "nan"], None),
            (["--grid-span", "0.5", "inf"], None),
            (["--seed", str(2**64)], None),
            (["--seed", "-1"], None),
            ([], {"episodes": 2.9}),
            ([], {"episodes": True}),
            ([], {"alpha": True}),
            ([], {"grid_span": [True, 2.0]}),
        ],
        ids=["weekend-inf-json", "weekday-nan", "grid-span-inf", "seed-2**64", "seed-minus-1",
             "episodes-float", "episodes-bool", "alpha-bool", "grid-span-bool"],
    )
    def test_out_of_range_values_exit_two(self, tmp_path, capsys, flags, config):
        argv = ["compare", *flags]
        if config is None:
            argv += FAST
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("pricelab: error:")

    def test_invalid_value_exits_two_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 5.0}))
        code, _, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"alpha": true}', "invalid config value for 'alpha': expected a number, got True"),
            ('{"episodes": 2.5}', "invalid config value for 'episodes': expected an integer, got 2.5"),
            ('{"episodess": 200}', "unknown config key: 'episodess'"),
            ("[1, 2]", "malformed config file {path}: expected a JSON object"),
            (None, "config file not found: {path}"),
        ],
        ids=["alpha-bool", "episodes-fraction", "unknown-key", "json-array", "missing-file"],
    )
    def test_config_file_error_messages(self, tmp_path, capsys, text, message):
        # a CliError is not wrapped again as "invalid configuration: ..."
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert (code, out, err) == (2, "", f"pricelab: error: {message.format(path=cfg)}\n")


@pytest.mark.parametrize("command", [["train", "--product", "Fine"], ["optimize"], ["curve"], ["compare"]],
                         ids=["train", "optimize", "curve", "compare"])
def test_invalid_configuration_exits_before_the_catalog_is_read(tmp_path, capfd, command):
    # the rejected row would print a warning if the catalog were read first
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("product_name,price_elasticity,base_price,base_demand\nFine,-1.0,100.0,10.0\nFlat,0.5,100.0,10.0\n")
    assert main([*command, "--catalog", str(dirty), "--alpha", "5"]) == 2
    captured = capfd.readouterr()
    assert (captured.out, captured.err) == ("", "pricelab: error: invalid configuration: alpha must be in (0, 1]\n")


class TestCompare:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["compare", "--cost-policy", "zero", "--seed", "42", *FAST]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_equals_sequential(self, tmp_path, capsys):
        args = ["compare", "--cost-policy", "zero", "--seed", "1", *FAST]
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        assert main(args + ["--jobs", "1", "--format", "json", "-o", str(seq)]) == 0
        assert main(args + ["--jobs", "5", "--format", "json", "-o", str(par)]) == 0
        capsys.readouterr()
        assert seq.read_bytes() == par.read_bytes()

    def test_csv_has_28_rows_for_sample(self, capsys):
        code, out, _ = run(capsys, ["compare", *FAST])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 29

    def test_markdown_headers(self, capsys):
        code, out, _ = run(capsys, ["compare", *FAST, "--format", "markdown"])
        assert code == 0
        assert "Optimal Price" in out.splitlines()[0]

    def test_custom_catalog(self, tmp_path, capsys):
        cat = tmp_path / "cat.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\nOnly TV,-1.0,100.0,10.0\n")
        code, out, _ = run(capsys, ["compare", "--catalog", str(cat), *FAST])
        assert code == 0
        assert out.count("Only TV") == 2

    @pytest.mark.parametrize("command", [["compare"], ["train", "--product", 'Samsung 24" HD']])
    def test_zero_cost_policy_ignores_cost_fraction(self, capsys, command):
        code, want, err = run(capsys, [*command, *FAST, "--cost-policy", "zero"])
        assert (code, err) == (0, "")
        assert run(capsys, [*command, *FAST, "--cost-policy", "zero", "--cost-fraction", "0.3"]) == (0, want, "")
        assert run(capsys, [*command, *FAST, "--cost-policy", "fraction", "--cost-fraction", "0.3"])[1] != want

    def test_missing_catalog_exits_two(self, capsys):
        code, _, err = run(capsys, ["compare", "--catalog", "/missing.csv"])
        assert code == 2
        assert "/missing.csv" in err

    def test_bad_jobs_exits_two(self, tmp_path, capsys):
        # checked before the catalog is read, so its rejected row draws no warning
        cat = tmp_path / "cat.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\nTV,-1.0,99.0,10.0\nBad,0.5,99.0,10.0\n")
        code, out, err = run(capsys, ["compare", "--jobs", "0", "--catalog", str(cat), *FAST])
        assert (code, out, err) == (2, "", "pricelab: error: --jobs must be >= 1\n")

    def test_overflowing_product_becomes_error_row(self, tmp_path, capsys):
        header = "product_name,price_elasticity,base_price,base_demand\n"
        fine = tmp_path / "fine.csv"
        fine.write_text(header + "Fine TV,-1.0,100.0,10.0\n")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(header + "Fine TV,-1.0,100.0,10.0\nBig,-0.5,100.0,1e307\n")
        code, out, _ = run(capsys, ["compare", "--catalog", str(fine), *FAST, "--format", "json"])
        assert code == 0
        expected = json.loads(out)["rows"]
        code, out, _ = run(capsys, ["compare", "--catalog", str(mixed), *FAST, "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[:2] == expected
        assert [r["product"] for r in rows[2:]] == ["Big", "Big"]
        assert all("rewards overflow" in r["error"] and r["rl"] is None for r in rows[2:])

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_overflowing_baseline_becomes_error_rows(self, tmp_path, capsys, fmt):
        # at gamma 0 Edge's rewards are finite, but its analytic and
        # line-search profits overflow: it is not trained, and its rows
        # name the first overflowing method
        header = "product_name,price_elasticity,base_price,base_demand\n"
        fine = tmp_path / "fine.csv"
        fine.write_text(header + "Fine TV,-1.0,100.0,10.0\n")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(header + "Fine TV,-1.0,100.0,10.0\nEdge,-1.0,1e154,1.7978e154\n")
        argv = ["compare", "--gamma", "0", *FAST, "--format", fmt]
        code, want, _ = run(capsys, [*argv, "--catalog", str(fine)])
        assert code == 0
        code, out, err = run(capsys, [*argv, "--catalog", str(mixed)])
        assert (code, err) == (0, "")
        assert "inf" not in out
        reason = "Analytic optimum overflows"
        if fmt == "json":
            rows = json.loads(out)["rows"]
            assert rows[:2] == json.loads(want)["rows"]
            edge = [(r["product"], r["rl"], r["analytic"], r["error"]) for r in rows[2:]]
            assert edge == [("Edge", None, None, reason)] * 2
            return
        lines = out.splitlines()
        assert lines[:-2] == want.splitlines()
        if fmt == "csv":
            assert lines[-2:] == [f"Edge,{day.label}" + "," * 17 + reason for day in DayType]
        else:
            assert lines[-2:] == [f"| Edge | {day.label} |" + "  |" * 12 + f" error: {reason} |" for day in DayType]


class TestTrain:
    def test_writes_table_and_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "qtable.csv"
        code, _, _ = run(
            capsys,
            ["train", "--product", 'Samsung 24" HD', *FAST, "--seed", "5", "-o", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("state,")
        assert lines[1].startswith("Weekday,")
        assert lines[2].startswith("Weekend,")
        sidecar = tmp_path / "qtable.hyperparams.json"
        hp = json.loads(sidecar.read_text())
        assert hp["episodes"] == 250
        assert hp["alpha"] == 0.1

    def test_no_sidecar_next_to_a_device(self, tmp_path, capsys):
        out_path = tmp_path / "devnull"
        out_path.symlink_to(os.devnull)
        code, _, err = run(capsys, ["train", "--product", 'Samsung 24" HD', *FAST, "-o", str(out_path)])
        assert (code, err) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["devnull"]

    def test_stdout_mode_prints_csv(self, capsys):
        code, out, _ = run(capsys, ["train", "--product", 'Sony 40" FHD', *FAST])
        assert code == 0
        assert out.startswith("state,")

    def test_unknown_product_exits_two(self, capsys):
        code, _, err = run(capsys, ["train", "--product", "Nokia 3310", *FAST])
        assert code == 2
        assert "Nokia 3310" in err

    def test_rewards_whose_weekly_sum_overflows(self, tmp_path, capsys):
        # at gamma 0 Edge's rewards and Q values are finite, though a week of
        # its rewards sums to inf; train writes the table without summing them
        cat = tmp_path / "edge.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\nEdge,-1.0,1e154,1.7978e154\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["train", "--catalog", str(cat), "--product", "Edge", "--gamma", "0", *FAST])
        assert (code, err) == (0, "")
        assert all(math.isfinite(float(v)) for line in out.splitlines()[1:] for v in line.split(",")[1:])


class TestCurve:
    def test_shape_and_determinism(self, capsys):
        code, out, _ = run(capsys, ["curve", "--samples", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "product,day,price,demand,revenue,profit"
        assert len(lines) == 1 + 14 * 2 * 5
        code2, out2, _ = run(capsys, ["curve", "--samples", "5"])
        assert out2 == out

    def test_bad_samples_exits_two(self, tmp_path, capsys):
        # checked before the catalog is read, as --jobs is, so its rejected row draws no warning
        cat = tmp_path / "cat.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\nTV,-1.0,99.0,10.0\nBad,0.5,99.0,10.0\n")
        code, out, err = run(capsys, ["curve", "--samples", "1", "--catalog", str(cat)])
        assert (code, out, err) == (2, "", "pricelab: error: samples_per_curve must be >= 2\n")


class TestOptimize:
    def test_csv_long_format(self, capsys):
        code, out, _ = run(capsys, ["optimize"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["product", "day", "method", "optimal_price", "optimal_demand", "profit", "clamped"]
        assert len(rows) == 1 + 14 * 2 * 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 84
        assert {d["method"] for d in doc} == {"Analytic", "GridSearch", "LineSearch"}

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--format", "markdown"])
        assert code == 0
        assert "| Product | Day | Method | Optimal Price | Optimal Demand | Profit | Clamped |" in out

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_overflowing_product_exits_two_naming_it(self, tmp_path, capsys, fmt):
        cat = tmp_path / "cat.csv"
        header = "product_name,price_elasticity,base_price,base_demand\n"
        cat.write_text(header + "Fine,-1.0,100.0,10.0\nBig,-0.5,100.0,1e307\n")
        code, out, err = run(capsys, ["optimize", "--catalog", str(cat), "--format", fmt])
        assert code == 2
        assert out == ""
        assert "'Big'" in err and "overflows" in err


@pytest.mark.parametrize("command", ["curve", "optimize", "train"])
@pytest.mark.parametrize(
    "row, flags, message",
    [
        ("Huge,-0.5,1.7e308,1.0,0", [], "product 'Huge': grid upper bound 2.0 * base_price overflows"),
        ("Tiny,-1.0,5e-324,10.0,0", [], "product 'Tiny': prices must be > 0"),
        # 0.9 * 5e-324 rounds up to the price itself
        ("Tiny,-1.0,5e-324,10.0,0", ["--cost-policy", "fraction", "--cost-fraction", "0.9"],
         "product 'Tiny': unit_cost must be < base_price"),
    ],
    ids=["huge", "tiny", "tiny-cost-fraction"],
)
def test_unusable_price_grid_exits_two_naming_product(tmp_path, capsys, command, row, flags, message):
    cat = tmp_path / "cat.csv"
    cat.write_text("product_name,price_elasticity,base_price,base_demand,unit_cost\nFine,-1.0,100.0,10.0,0\n" + row + "\n")
    argv = [command, "--catalog", str(cat), *flags]
    if command == "train":
        argv += ["--product", row.split(",")[0]]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"pricelab: error: {message}\n"


@pytest.mark.parametrize(
    "command, message",
    [
        ("curve", "product 'Big': revenue curve overflows"),
        ("train", "product 'Big': rewards overflow: max |reward| / (1 - gamma) is inf"),
    ],
    ids=["curve", "train"],
)
def test_overflowing_product_exits_two_naming_it(tmp_path, capsys, command, message):
    cat = tmp_path / "cat.csv"
    cat.write_text("product_name,price_elasticity,base_price,base_demand\nFine,-1.0,100.0,10.0\nBig,-0.5,100.0,1e307\n")
    argv = [command, "--catalog", str(cat), *FAST]
    if command == "train":
        argv += ["--product", "Big"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"pricelab: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["curve", "--samples", "100000000000000000"], ["optimize", "--grid-points", "100000000000000000"]],
    ids=["curve", "optimize"],
)
def test_allocation_failure_exits_two(capsys, argv):
    # a 10**17-point grid needs 711 PiB, more than any user address space
    # (128 PiB with 5-level paging), so the OS refuses it under every
    # overcommit setting; the byte count still fits in intp
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"pricelab: error: Unable to allocate .+\n", err), err


def test_markdown_escapes_pipe_in_product_names(tmp_path, capsys):
    cat = tmp_path / "cat.csv"
    cat.write_text("product_name,price_elasticity,base_price,base_demand\nA|B,-1.0,100.0,10.0\n")
    for command in (["optimize"], ["compare", *FAST]):
        code, out, _ = run(capsys, [*command, "--catalog", str(cat), "--format", "markdown"])
        assert code == 0
        table = [line for line in out.splitlines() if line.startswith("|")]
        columns = {len(re.split(r"(?<!\\)\|", line)) for line in table}
        assert len(columns) == 1, command
        assert "| A\\|B |" in out


def test_first_unusable_or_overflowing_product_in_catalog_order_is_named(tmp_path, capsys):
    # Big's optimum and curve overflow, Huge's grid is unusable; Huge comes
    # right after Big or 30 rows later (in Big's block or a later one, by
    # the block size)
    clean = [f"P{i},-1.{i},{100 + i}.0,{10 + i}.0\n" for i in range(1, 71)]
    big, huge = "Big,-0.5,100.0,1e307\n", "Huge,-0.5,1.7e308,1.0\n"
    catalogs = {
        "huge-next": [*clean[:40], big, huge],
        "huge-later": [*clean[:40], big, *clean[41:70], huge],
    }
    messages = {"optimize": "product 'Big': GridSearch optimum overflows", "curve": "product 'Big': revenue curve overflows"}
    for label, rows in catalogs.items():
        cat = tmp_path / f"{label}.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\n" + "".join(rows))
        for command, message in messages.items():
            code, out, err = run(capsys, [command, "--catalog", str(cat)])
            assert (code, out, err) == (2, "", f"pricelab: error: {message}\n"), (label, command)


@pytest.mark.parametrize("block", [7, 1])
def test_first_failing_product_is_named_in_small_blocks(tmp_path, capsys, monkeypatch, block):
    monkeypatch.setattr(experiment, "_BLOCK", block)
    test_first_unusable_or_overflowing_product_in_catalog_order_is_named(tmp_path, capsys)


class TestFailedRunWritesNothing:
    """A product that fails in the last block of the report: exit 2, with
    no byte written to stdout and no ``-o`` file created."""

    def run_both(self, tmp_path, capfd, argv):
        out = tmp_path / "out.txt"
        assert main(argv) == 2
        assert main([*argv, "-o", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.count("pricelab: error:") == 2, captured.err
        assert not out.exists()
        return captured.err

    def catalog(self, tmp_path, last_row):
        # Fine products fill two blocks; last_row starts the third
        rows = [f"P{i},-1.{i},{100 + i}.0,{10 + i}.0\n" for i in range(1, 2 * experiment._BLOCK + 1)]
        cat = tmp_path / "cat.csv"
        cat.write_text("product_name,price_elasticity,base_price,base_demand\n" + "".join(rows) + last_row)
        return str(cat)

    def test_curve_overflow(self, tmp_path, capfd):
        cat = self.catalog(tmp_path, "Big,-0.5,100.0,1e307\n")
        err = self.run_both(tmp_path, capfd, ["curve", "--catalog", cat, "--samples", "3"])
        assert "product 'Big': revenue curve overflows" in err

    def test_optimize_overflow(self, tmp_path, capfd):
        cat = self.catalog(tmp_path, "Big,-0.5,100.0,1e307\n")
        for fmt in ("csv", "json", "markdown"):
            err = self.run_both(tmp_path, capfd, ["optimize", "--catalog", cat, "--format", fmt])
            assert "product 'Big': GridSearch optimum overflows" in err

    def test_compare_json_non_finite_value(self, tmp_path, capfd, monkeypatch):
        original = experiment.compare_columns

        def compare_columns(catalog, config, start=0):  # the last product's Weekend RL profit is inf
            result = original(catalog, config, start)
            result.rl_profit[-1, 1] = math.inf
            return result

        monkeypatch.setattr(experiment, "compare_columns", compare_columns)
        cat = self.catalog(tmp_path, "Last,-1.0,100.0,10.0\n")
        argv = ["compare", "--catalog", cat, "--episodes", "1", "--format", "json"]
        err = self.run_both(tmp_path, capfd, argv)
        assert "Out of range float values are not JSON compliant: inf" in err


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` CPUs, or delete it
    (``None``), as on macOS and Windows."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def count_forks(monkeypatch):
    """A list that gains an entry each time ``os.fork`` is called."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def jobs_on_four_cpus(*jobs):
    """Runs of ``compare`` at each ``--jobs`` value on four CPUs, as
    ``{label: (more argv, usable CPUs)}``."""
    return {n: (["--jobs", str(n)], 4) for n in jobs}


# curve and optimize, which take no --jobs, on one CPU and on four
CPUS_1_4 = {cpus: ([], cpus) for cpus in (1, 4)}


class TestJobs:
    """``compare``, ``curve`` and ``optimize`` split the catalog into
    contiguous parts, one per process and one per usable CPU, through one
    part runner: ``compare --jobs N`` caps them at N and the product count,
    ``curve`` and ``optimize`` at the catalog's blocks of ``_BLOCK``
    products."""

    HEADER = "product_name,price_elasticity,base_price,base_demand\n"
    BIG = "Big,-0.5,100.0,1e307\n"  # its optimum and its curve overflow
    HUGE = "Huge,-0.5,1.7e308,1.0\n"  # its grid is unusable

    def parts_catalog(self, tmp_path):
        # 2L + 1 products, L = LOCKSTEP_MIN_PRODUCTS: at --jobs 2 the parts
        # hold L + 1 and L rows, and Big, the first row of part 1, leaves it
        # L - 1 products to train, so part 0 trains in lockstep and part 1 by
        # the scalar walk; at --jobs 3 every part trains by the scalar walk.
        # Only the first 10 products (part 0 at any N) have clamped optima.
        n = 2 * LOCKSTEP_MIN_PRODUCTS + 1
        rows = [f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0\n" for i in range(n)]
        rows[:10] = [f"Flat{i},-0.2,{100 + i}.0,{10 + i}.0\n" for i in range(10)]
        rows[LOCKSTEP_MIN_PRODUCTS + 1] = "Big,-0.5,100.0,1e307\n"
        rows[20] = '"Say ""hé"", |20",-0.8,50.0,20.0\n'
        cat = tmp_path / "parts.csv"
        cat.write_text(self.HEADER + "".join(rows), encoding="utf-8")
        return cat

    def blocks_catalog(self, tmp_path, count, rows=None):
        """``count`` products, with ``rows`` ({index: row}) in place of plain
        ones; the 7th product's name needs quotes in CSV, escapes in JSON and
        one in Markdown."""
        lines = [f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0\n" for i in range(count)]
        lines[7] = '"Say ""hé"", |7",-0.8,50.0,20.0\n'
        for index, row in (rows or {}).items():
            lines[index] = row
        cat = tmp_path / f"blocks-{count}.csv"
        cat.write_text(self.HEADER + "".join(lines), encoding="utf-8")
        return cat

    @pytest.fixture
    def four_cpus(self, monkeypatch):  # so that 2 and 3 parts run on any machine
        usable_cpus(monkeypatch, 4)

    def reports(self, capsys, monkeypatch, argv, runs, formats=experiment.REPORT_FORMATS):
        """``argv``'s report in each format (``None``: no ``--format``) under
        each of ``runs`` ({label: (more argv, usable CPUs)}), the same bytes
        under every run, and how many processes each run forked."""
        forks = count_forks(monkeypatch)
        outputs, forked = {}, {}
        for label, (more, cpus) in runs.items():
            with monkeypatch.context() as patch:
                usable_cpus(patch, cpus)
                for fmt in formats:
                    forks.clear()
                    code, outputs[fmt, label], err = run(capsys, [*argv, *more, *(["--format", fmt] if fmt else [])])
                    assert (code, err) == (0, ""), (fmt, label)
                    forked[fmt, label] = len(forks)
        for fmt in formats:
            assert {outputs[fmt, label] for label in runs} == {outputs[fmt, next(iter(runs))]}, fmt
        no_child_left()
        return outputs, forked

    def compare_reports(self, capsys, monkeypatch, cat, jobs):
        argv = ["compare", "--catalog", str(cat), "--episodes", "30"]
        return self.reports(capsys, monkeypatch, argv, jobs_on_four_cpus(*jobs))[0]

    def test_same_report_at_any_jobs(self, tmp_path, capsys, monkeypatch):
        outputs = self.compare_reports(capsys, monkeypatch, self.parts_catalog(tmp_path), [1, 2, 3])
        assert outputs["markdown", 1].endswith("\n† optimum clamped to the search interval boundary.\n")
        assert json.loads(outputs["json", 1])["rows"][40]["product"] == 'Say "hé", |20'

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("command", ["curve", "optimize"])
    def test_curve_and_optimize_same_at_any_cpu_count(self, tmp_path, capsys, monkeypatch, command, blocks):
        # one part per usable CPU, capped at the blocks: one block, or 2 * _BLOCK + 3
        # products in three blocks; no os.sched_getaffinity counts as one CPU
        count = experiment._BLOCK if blocks == 1 else 2 * experiment._BLOCK + 3
        argv = [command, "--catalog", str(self.blocks_catalog(tmp_path, count))]
        argv, formats = (argv + ["--samples", "5"], [None]) if command == "curve" else (argv, experiment.REPORT_FORMATS)
        runs = {cpus: ([], cpus) for cpus in (1, 2, 4, None)}
        outputs, forked = self.reports(capsys, monkeypatch, argv, runs, formats)
        assert forked == {(fmt, cpus): min(cpus or 1, blocks) - 1 for fmt in formats for cpus in runs}
        lines = outputs[formats[0], 1].splitlines()  # CSV: a header, then each product's rows
        per_product = 2 * 5 if command == "curve" else 6
        assert len(lines) == 1 + count * per_product
        assert lines[1 + 7 * per_product].startswith('"Say ""hé"", |7",Weekday,')
        assert lines[-1].startswith(f"P{count - 1},Weekend,")
        # compare sizes its parts by the same rule: --jobs 2 with no
        # os.sched_getaffinity runs one part, as --jobs 1 does
        compare = ["compare", "--catalog", argv[2], "--episodes", "2"]
        _, forked = self.reports(capsys, monkeypatch, compare, {jobs: (["--jobs", str(jobs)], None) for jobs in (1, 2)})
        assert set(forked.values()) == {0}

    def test_same_report_to_a_file(self, tmp_path, capsys, four_cpus):
        argv = ["compare", "--catalog", str(self.parts_catalog(tmp_path)), "--episodes", "30", "--format", "json"]
        _, printed, _ = run(capsys, argv)
        for jobs in ("1", "3"):
            out = tmp_path / f"{jobs}.json"
            assert main([*argv, "--jobs", jobs, "-o", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == printed

    def test_more_jobs_than_products(self, tmp_path, capsys, monkeypatch):
        cat = tmp_path / "three.csv"  # only the last part has a clamped optimum
        cat.write_text(self.HEADER + "A,-1.5,100.0,10.0\nB,-2.0,10.0,5.0\nC,-0.2,50.0,20.0\n")
        outputs = self.compare_reports(capsys, monkeypatch, cat, [1, 8])
        assert outputs["markdown", 1].endswith("\n† optimum clamped to the search interval boundary.\n")

    def test_header_only_catalog(self, tmp_path, capsys, monkeypatch):
        cat = tmp_path / "empty.csv"
        cat.write_text(self.HEADER)
        outputs = self.compare_reports(capsys, monkeypatch, cat, [1, 2])
        assert json.loads(outputs["json", 1])["rows"] == []
        for command, formats in (("curve", [None]), ("optimize", experiment.REPORT_FORMATS)):
            outputs, forked = self.reports(capsys, monkeypatch, [command, "--catalog", str(cat)], CPUS_1_4, formats)
            assert set(forked.values()) == {0}
        assert outputs["json", 1] == "[]\n"

    def run_both(self, capfd, monkeypatch, argv, runs=jobs_on_four_cpus(1, 2)):
        """Exit code and stderr of ``argv`` under each of ``runs`` ({label:
        (more argv, usable CPUs)}), the same under every run; none writes to
        stdout or leaves a process behind."""
        results = []
        for more, cpus in runs.values():
            with monkeypatch.context() as patch:
                usable_cpus(patch, cpus)
                code = main([*argv, *more])
            captured = capfd.readouterr()
            assert captured.out == ""
            results.append([code, captured.err])
            no_child_left()
        assert results == [results[0]] * len(results)
        return results[0]

    def test_normal_run_leaves_no_process(self, tmp_path, capfd, monkeypatch):
        assert self.run_both(capfd, monkeypatch, ["compare", *FAST, "-o", os.devnull]) == [0, ""]
        cat = str(self.blocks_catalog(tmp_path, 2 * experiment._BLOCK + 3))
        for argv in (["curve", "--samples", "5"], ["optimize", "--format", "json"]):
            assert self.run_both(capfd, monkeypatch, [*argv, "--catalog", cat, "-o", os.devnull], CPUS_1_4) == [0, ""]

    @pytest.mark.parametrize("first", ["Big", "Huge"])
    @pytest.mark.parametrize("command", ["curve", "optimize"])
    def test_failed_check_in_a_later_part_writes_nothing(self, tmp_path, capfd, monkeypatch, command, first):
        # on four CPUs the parts begin at products 0, 87 and 173; the first of
        # Big and Huge is in part 1 and the other in part 2, and the error is
        # the first one's, as on one CPU
        n = 2 * experiment._BLOCK + 3
        rows = {100: self.BIG, 200: self.HUGE} if first == "Big" else {100: self.HUGE, 200: self.BIG}
        out = tmp_path / "out.txt"
        argv = [command, "--catalog", str(self.blocks_catalog(tmp_path, n, rows)), "-o", str(out)]
        message = {
            "Huge": "product 'Huge': grid upper bound 2.0 * base_price overflows",
            "Big": f"product 'Big': {'revenue curve' if command == 'curve' else 'GridSearch optimum'} overflows",
        }[first]
        for fmt in ([None] if command == "curve" else experiment.REPORT_FORMATS):
            more = ["--format", fmt] if fmt else []
            assert self.run_both(capfd, monkeypatch, argv + more, CPUS_1_4) == [2, f"pricelab: error: {message}\n"]
            assert not out.exists()

    def test_failed_check_in_a_helper_writes_nothing(self, tmp_path, capfd, monkeypatch):
        original = experiment.compare_columns
        cat = self.parts_catalog(tmp_path)
        n = 2 * LOCKSTEP_MIN_PRODUCTS + 1

        def compare_columns(catalog, config, start=0):  # the last product's Weekend RL profit is inf
            result = original(catalog, config, start)
            if start + len(catalog) == n:
                result.rl_profit[-1, 1] = math.inf
            return result

        monkeypatch.setattr(experiment, "compare_columns", compare_columns)
        out = tmp_path / "out.json"
        argv = ["compare", "--catalog", str(cat), "--episodes", "30", "--format", "json", "-o", str(out)]
        message = "pricelab: error: Out of range float values are not JSON compliant: inf\n"
        assert self.run_both(capfd, monkeypatch, argv) == [2, message]
        assert not out.exists()

    def test_output_that_cannot_be_opened(self, tmp_path, capfd, monkeypatch):
        target = tmp_path / "missing" / "out.csv"
        code, err = self.run_both(capfd, monkeypatch, ["compare", *FAST, "-o", str(target)])
        assert code == 2
        assert err.startswith("pricelab: error:") and str(target) in err

    def test_closed_reader_stops_quietly(self, tmp_path, capfd, monkeypatch, four_cpus):
        class ClosedReader(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        cat = str(self.blocks_catalog(tmp_path, 2 * experiment._BLOCK + 3))
        forks = count_forks(monkeypatch)
        for argv in (["compare", *FAST, "--jobs", "2"], ["curve", "--catalog", cat], ["optimize", "--catalog", cat]):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", ClosedReader())
                assert main(argv) == 141
            assert capfd.readouterr() == ("", "")
            no_child_left()
        assert len(forks) == 1 + 2 + 2

    def test_one_job_needs_no_cpu_affinity(self, tmp_path, capsys, monkeypatch):
        # os.sched_getaffinity is missing on macOS and Windows
        code, want, err = run(capsys, ["compare", *FAST])
        assert (code, err) == (0, "")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run(capsys, ["compare", *FAST]) == (0, want, "")
        one = tmp_path / "one.csv"
        one.write_text(self.HEADER + "A,-1.5,100.0,10.0\n")
        code, _, err = run(capsys, ["compare", "--catalog", str(one), *FAST, "--jobs", "4"])  # one part only
        assert (code, err) == (0, "")

    def test_forks_at_most_one_process_per_cpu_and_product(self, tmp_path, capsys, monkeypatch):
        # compare at a huge --jobs on three products; curve and optimize on three
        # blocks and on one
        forks = count_forks(monkeypatch)
        cat = tmp_path / "three.csv"
        cat.write_text(self.HEADER + "A,-1.5,100.0,10.0\nB,-0.2,50.0,20.0\nC,-2.0,10.0,5.0\n")
        code, _, _ = run(capsys, ["compare", "--catalog", str(cat), *FAST, "--jobs", "1000000"])
        assert code == 0
        assert len(forks) == min(len(os.sched_getaffinity(0)), 3) - 1
        for count, blocks in ((2 * experiment._BLOCK + 3, 3), (experiment._BLOCK, 1)):
            for command in ("curve", "optimize"):
                forks.clear()
                assert main([command, "--catalog", str(self.blocks_catalog(tmp_path, count)), "-o", os.devnull]) == 0
                assert len(forks) == min(len(os.sched_getaffinity(0)), blocks) - 1
        no_child_left()


@pytest.mark.parametrize("command", [["curve"], ["compare", "--episodes", "50", "--jobs", "2", "--format", "json"]],
                         ids=["curve", "compare-jobs-2-json"])
def test_closed_pipe_exits_141_quietly(tmp_path, command):
    # 200 products give either command far more output than a pipe holds, so
    # it is still writing when the reader closes the pipe
    cat = tmp_path / "wide.csv"
    cat.write_text(TestJobs.HEADER + "".join(f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0\n" for i in range(200)))
    argv = [sys.executable, "-m", "pricelab.cli", *command, "--catalog", str(cat)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()  # ends once every process holding stderr, helpers included, has exited
        assert (proc.wait(), err) == (141, b"")


def cli_env() -> dict:
    """The environment of a ``python -m pricelab.cli`` process that imports
    this pricelab, with standard output block-buffered, as a user's is."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command, status", [(["compare", "--episodes", "50", "--format", "json"], 0),
                                             (["curve"], 0), (["validate"], 1)], ids=["compare", "curve", "validate"])
def test_piped_output_equals_the_output_file(tmp_path, command, status):
    # python -m pricelab.cli leaves through os._exit, without the interpreter's
    # last flush: main flushes standard output before it returns, so a pipe
    # gets every byte.  The catalog is larger than a parse block and has a
    # rejected row, so validate exits 1
    cat = tmp_path / "cat.csv"
    cat.write_text(TestJobs.HEADER + "".join(f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0\n" for i in range(600))
                   + "Bad,0.5,10.0,5.0\n")
    argv = [sys.executable, "-m", "pricelab.cli", *command, "--catalog", str(cat)]
    piped = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    written = subprocess.run([*argv, "-o", str(tmp_path / "out")], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=cli_env())
    assert (piped.returncode, written.returncode, written.stdout) == (status, status, b"")
    assert piped.stdout == (tmp_path / "out").read_bytes() and len(piped.stdout) > io.DEFAULT_BUFFER_SIZE
    assert piped.stderr == written.stderr


def test_console_script_is_the_hard_exit():
    # the pricelab command runs main through run(), which ends with os._exit;
    # pointing the script elsewhere changes how every command exits
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r'^pricelab = "pricelab\.cli:run"$', pyproject.read_text(encoding="utf-8"), re.M)


@pytest.mark.parametrize(
    "flags, config",
    [(["--episodes", "100000000000000000000"], None), ([], {"episodes": 1e20})],
    ids=["flag", "config"],
)
@pytest.mark.parametrize("command", ["compare", "train"])
def test_episode_count_too_large_to_hold_exits_two(tmp_path, capsys, command, flags, config):
    # 10**20 episodes exceed the largest array numpy can describe, so the
    # epsilon schedule fails before anything is allocated or computed; the
    # error names the setting, not a product
    argv = [command, *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    if command == "train":
        argv += ["--product", 'Samsung 24" HD']
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "pricelab: error: episodes is too large: 100000000000000000000 epsilon values cannot be allocated\n"


# --- optimize renderer oracle ------------------------------------------------


def oracle_optimize(names, table, fmt):
    """The row-by-row renderer ``optimize`` used before it rendered from
    columns: one ``Optimum`` per product, day and method, then one list of
    cells per row through the csv module, the Markdown cell join or
    ``json.dumps``."""
    rows = []
    for i, name in enumerate(names):
        for j, day in enumerate(DayType):
            for k, method in enumerate(Method):
                price, demand, profit = (float(a[i, j, k]) for a in table[:3])
                opt = Optimum(price, demand, profit, method, bool(table.clamped[i, j, k]))
                if not (math.isfinite(opt.demand) and math.isfinite(opt.profit)):
                    raise ValueError(f"product {name!r}: {opt.method.value} optimum overflows")
                rows.append((name, day.label, opt))
    if fmt == "json":
        doc = [
            {"product": name, "day": day, "method": opt.method.value, "price": opt.price, "demand": opt.demand,
             "profit": opt.profit, "clamped": opt.clamped}
            for name, day, opt in rows
        ]
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    cells = [
        [name, day, opt.method.value, f"{opt.price:.1f}", f"{opt.demand:.1f}", f"{opt.profit:.2f}",
         str(opt.clamped).lower()]
        for name, day, opt in rows
    ]
    if fmt == "markdown":
        header = ["Product", "Day", "Method", "Optimal Price", "Optimal Demand", "Profit", "Clamped"]
        body = [[name.replace("|", "\\|"), *rest] for name, *rest in cells]
        return "".join(f"| {' | '.join(row)} |\n" for row in [header, ["---"] * 7, *body])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["product", "day", "method", "optimal_price", "optimal_demand", "profit", "clamped"])
    writer.writerows(cells)
    return buf.getvalue()


def columnar_optimize(names, table, fmt):
    """What ``optimize`` does with a table: check it, then render it."""
    check_products(names, optimize_overflow(table))
    return "".join(optimize_blocks(names, table, fmt))


def rendered_or_error(render, names, table, fmt):
    """The report ``render`` writes for ``table``, or its error message."""
    try:
        return render(names, table, fmt)
    except ValueError as exc:
        return f"error: {exc}"


# signed zeros, the smallest subnormal, values near the float maximum, and
# values with a 5 just past the 1st or 2nd decimal: exact binary ties (0.25,
# 0.125) and decimal ones a binary float sits just above or below (0.15, 2.675)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.05, 0.15, 0.25, 0.35, 2.675, 1.005, 0.125,
               -0.125, 0.375, 1.25, 0.045, 999.95, 9.995, -2.25]
# characters the csv module quotes on, Markdown escapes, and JSON escapes
NAME_PARTS = [",", '"', "\n", "\r", "|", "\\", "/", "\t", "\x00", "é", "€", "\U0001f600", " ", "a", "Set 55", "'"]


def random_table(seed, products):
    rng = random.Random(seed)

    def value():
        return rng.choice(EDGE_VALUES) if rng.random() < 0.5 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308)

    names = ["".join(rng.choice(NAME_PARTS) for _ in range(rng.randint(1, 6))) for _ in range(products)]
    shape = (products, len(DayType), len(Method))
    floats = [np.array([value() for _ in range(math.prod(shape))], dtype=np.float64).reshape(shape) for _ in range(3)]
    clamped = np.array([rng.random() < 0.5 for _ in range(math.prod(shape))], dtype=bool).reshape(shape)
    return names, Columns(*floats, clamped)


class TestOptimizeRendererMatchesOracle:
    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    @pytest.mark.parametrize("products", [0, 1, 7, 40])
    def test_random_columns(self, fmt, products):
        for seed in range(5):
            names, table = random_table(seed * 100 + products, products)
            assert columnar_optimize(names, table, fmt) == oracle_optimize(names, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "cells",
        [
            [("demand", 3, 1, 2), ("profit", 5, 0, 0)],  # the first bad product, at Weekend/LineSearch
            [("profit", 2, 0, 1), ("demand", 2, 0, 2), ("demand", 4, 0, 0)],  # Weekday/GridSearch
            [("demand", 6, 1, 0), ("profit", 6, 0, 2)],  # the same product: Weekday comes first
            [("price", 1, 0, 0)],  # a price alone is no overflow; JSON still cannot write it
        ],
        ids=["weekend-line", "weekday-grid", "same-product", "price-only"],
    )
    def test_injected_non_finite_values(self, fmt, value, cells):
        names, table = random_table(7, 8)
        for field, *index in cells:
            getattr(table, field)[tuple(index)] = value
        want = rendered_or_error(oracle_optimize, names, table, fmt)
        assert rendered_or_error(columnar_optimize, names, table, fmt) == want
        if cells[0][0] != "price":
            field, product, _, method = min(cells, key=lambda c: c[1:])
            assert want == f"error: product {names[product]!r}: {list(Method)[method].value} optimum overflows"

    def test_overflow_names_every_product(self):
        names, table = random_table(3, 6)
        table.profit[...] = table.demand[...] = 1.0
        table.profit[4, 1, 0] = table.demand[4, 1, 2] = table.profit[1, 1, 1] = math.inf
        table.demand[1, 0, 2] = math.nan
        assert optimize_overflow(table) == {1: "LineSearch optimum overflows", 4: "Analytic optimum overflows"}
        assert optimize_overflow(random_table(3, 0)[1]) == {}

    @pytest.mark.parametrize(
        "cells, named",
        [
            # rows in (product, day, method) order, whatever the column
            ([("demand", 5, 0, 0, math.nan), ("price", 3, 1, 2, math.inf), ("profit", 3, 1, 1, -math.inf)], "-inf"),
            # Weekday's LineSearch row comes before Weekend's Analytic one
            ([("price", 2, 1, 0, math.nan), ("profit", 2, 0, 2, math.inf)], "inf"),
            # within a row: price, demand, profit
            ([("profit", 4, 0, 1, math.inf), ("demand", 4, 0, 1, math.nan)], "nan"),
        ],
        ids=["by-row", "by-day", "by-column"],
    )
    def test_json_names_the_first_non_finite_value(self, cells, named):
        names, table = random_table(7, 8)
        for field, *index, value in cells:
            getattr(table, field)[tuple(index)] = value
        with pytest.raises(ValueError) as err:
            "".join(optimize_blocks(names, table, "json"))
        assert str(err.value) == f"Out of range float values are not JSON compliant: {named}"
