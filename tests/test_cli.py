import csv
import io
import json
import os
import re

import pytest

from pricelab.cli import main

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

    def test_missing_catalog_exits_two(self, capsys):
        code, _, err = run(capsys, ["compare", "--catalog", "/missing.csv"])
        assert code == 2
        assert "/missing.csv" in err

    def test_bad_jobs_exits_two(self, capsys):
        code, _, err = run(capsys, ["compare", "--jobs", "0", *FAST])
        assert code == 2

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
