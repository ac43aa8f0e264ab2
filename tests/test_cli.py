import csv
import io
import json
import math
import os
import random
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pricelab.baselines import Columns, Method, Optimum
from pricelab import cli, experiment
from pricelab.cli import main
from pricelab.domain import DayType
from pricelab.experiment import check_products, optimize_overflow, render_optimize
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


class TestJobs:
    """``compare --jobs N`` splits the catalog into up to N contiguous parts,
    one per process, capped at the usable CPUs and the product count."""

    HEADER = "product_name,price_elasticity,base_price,base_demand\n"

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

    @pytest.fixture
    def four_cpus(self, monkeypatch):  # so that 2 and 3 parts run on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def reports(self, capsys, cat, jobs):
        outputs = {}
        for fmt in ("csv", "json", "markdown"):
            for n in jobs:
                code, outputs[fmt, n], err = run(capsys, ["compare", "--catalog", str(cat), "--episodes", "30",
                                                          "--format", fmt, "--jobs", str(n)])
                assert (code, err) == (0, "")
            assert {outputs[fmt, n] for n in jobs} == {outputs[fmt, jobs[0]]}, fmt
        no_child_left()
        return outputs

    def test_same_report_at_any_jobs(self, tmp_path, capsys, four_cpus):
        outputs = self.reports(capsys, self.parts_catalog(tmp_path), [1, 2, 3])
        assert outputs["markdown", 1].endswith("\n† optimum clamped to the search interval boundary.\n")
        assert json.loads(outputs["json", 1])["rows"][40]["product"] == 'Say "hé", |20'

    def test_same_report_to_a_file(self, tmp_path, capsys, four_cpus):
        argv = ["compare", "--catalog", str(self.parts_catalog(tmp_path)), "--episodes", "30", "--format", "json"]
        _, printed, _ = run(capsys, argv)
        for jobs in ("1", "3"):
            out = tmp_path / f"{jobs}.json"
            assert main([*argv, "--jobs", jobs, "-o", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == printed

    def test_more_jobs_than_products(self, tmp_path, capsys, four_cpus):
        cat = tmp_path / "three.csv"  # only the last part has a clamped optimum
        cat.write_text(self.HEADER + "A,-1.5,100.0,10.0\nB,-2.0,10.0,5.0\nC,-0.2,50.0,20.0\n")
        outputs = self.reports(capsys, cat, [1, 8])
        assert outputs["markdown", 1].endswith("\n† optimum clamped to the search interval boundary.\n")

    def test_header_only_catalog(self, tmp_path, capsys, four_cpus):
        cat = tmp_path / "empty.csv"
        cat.write_text(self.HEADER)
        outputs = self.reports(capsys, cat, [1, 2])
        assert json.loads(outputs["json", 1])["rows"] == []

    def run_both(self, capfd, argv):
        """Exit code and stderr at --jobs 1 and --jobs 2; neither writes to stdout."""
        results = []
        for jobs in ("1", "2"):
            results.append(main([*argv, "--jobs", jobs]))
            captured = capfd.readouterr()
            assert captured.out == ""
            results.append(captured.err)
            no_child_left()
        assert results[:2] == results[2:]
        return results[:2]

    def test_normal_run_leaves_no_process(self, capfd, four_cpus):
        assert self.run_both(capfd, ["compare", *FAST, "-o", os.devnull]) == [0, ""]

    def test_failed_check_in_a_helper_writes_nothing(self, tmp_path, capfd, monkeypatch, four_cpus):
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
        assert self.run_both(capfd, argv) == [2, message]
        assert not out.exists()

    def test_output_that_cannot_be_opened(self, tmp_path, capfd, four_cpus):
        target = tmp_path / "missing" / "out.csv"
        code, err = self.run_both(capfd, ["compare", *FAST, "-o", str(target)])
        assert code == 2
        assert err.startswith("pricelab: error:") and str(target) in err

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

    def test_more_jobs_without_cpu_affinity_exit_two(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        code, out, err = run(capsys, ["compare", *FAST, "--jobs", "2"])
        assert (code, out) == (2, "")
        assert err == "pricelab: error: more than one job needs os.sched_getaffinity, which this platform lacks\n"
        no_child_left()

    def test_forks_at_most_one_process_per_cpu_and_product(self, tmp_path, capsys, monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        cat = tmp_path / "three.csv"
        cat.write_text(self.HEADER + "A,-1.5,100.0,10.0\nB,-0.2,50.0,20.0\nC,-2.0,10.0,5.0\n")
        code, _, _ = run(capsys, ["compare", "--catalog", str(cat), *FAST, "--jobs", "1000000"])
        assert code == 0
        assert len(forks) == min(len(os.sched_getaffinity(0)), 3) - 1
        no_child_left()


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
    check_products([SimpleNamespace(name=name) for name in names], optimize_overflow(table))
    return render_optimize(names, table, fmt)


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
            render_optimize(names, table, "json")
        assert str(err.value) == f"Out of range float values are not JSON compliant: {named}"
