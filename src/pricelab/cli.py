"""Command-line entry point.

Subcommands: ``validate`` (check a catalog file), ``curve`` (revenue
curve CSV), ``train`` (train one product, write its Q-table), ``optimize``
(classical baselines only), ``compare`` (full RL-vs-baselines report),
and ``sample-catalog`` (print the embedded catalog).

Exit codes: 0 success, 1 validation rejections, 2 usage or input errors,
141 when the reader closes standard output early.  Settings resolve as
flags > config file > defaults; the config file is a flat JSON object
using the field names listed in ``CONFIG_KEYS``.  All randomness derives
from ``--seed`` (default 0); nothing reads the clock or OS entropy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import fields
from pathlib import Path

# perfbench/tracing.py times the one-product optimizers, default_price_grid,
# run_experiment, render_report, export_revenue_curves and train as attributes
# of this module, so they stay importable here; nothing here calls them:
# compare, optimize and curve run their products in parts (compare_report,
# optimize_report, revenue_curve_blocks) and write them block by block, and
# train runs prepare_products and train_lanes
from .baselines import analytic_optimum, grid_search_optimum, line_search_optimum  # noqa: F401
from .catalog import parse_catalog, sample_catalog, serialize_catalog
from .domain import default_price_grid  # noqa: F401
from .domain import DayModulation, PriceGrid, ProductLanes
from .experiment import export_revenue_curves, render_report, run_experiment  # noqa: F401
from .experiment import (
    COST_POLICY_KINDS,
    REPORT_FORMATS,
    CostPolicy,
    ExperimentConfig,
    _BLOCK,
    check_products,
    check_samples,
    compare_report,
    optimize_report,
    prepare_products,
    revenue_curve_blocks,
    _document,
)
from .qlearn import train  # noqa: F401
from .qlearn import Hyperparams, QTable, epsilon_schedule, hyperparams_to_json, qtable_to_csv, reward_lanes, train_lanes

# in the order of their flags; each key's flag is --key with dashes, but --seed
CONFIG_KEYS = {
    "master_seed": int,
    "episodes": int,
    "alpha": float,
    "gamma": float,
    "epsilon_start": float,
    "epsilon_min": float,
    "epsilon_decay": float,
    "steps_per_episode": int,
    "grid_points": int,
    "grid_span": list,
    "weekday_multiplier": float,
    "weekend_multiplier": float,
    "cost_policy": str,
    "cost_fraction": float,
}


class CliError(Exception):
    """A user error (exit 2); its own type, so _build_config's ValueError handler passes it unwrapped."""


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError(f"malformed config file {path}: expected a JSON object")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise CliError(f"unknown config key: {key!r}")
    return raw


def _convert(key: str, value):
    kind = CONFIG_KEYS[key]
    try:
        numbers = value if key == "grid_span" else [value]
        # JSON true/false would otherwise convert to 1 and 0
        if kind is not str and any(isinstance(v, bool) for v in numbers):
            raise ValueError(f"expected a number, got {value!r}")
        if key == "grid_span":
            lo, hi = value
            return (float(lo), float(hi))
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid config value for {key!r}: {exc}") from None


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    settings = _read_config_file(args.config) if getattr(args, "config", None) else {}
    settings.update((key, value) for key in CONFIG_KEYS if (value := getattr(args, key, None)) is not None)

    def given(**keys: str) -> dict:
        # {field: config key} -> the converted settings as keyword arguments;
        # an unset key leaves its field at the dataclass default
        return {field: _convert(key, settings[key]) for field, key in keys.items() if key in settings}

    try:
        return ExperimentConfig(
            hyperparams=Hyperparams(**given(**{f.name: f.name for f in fields(Hyperparams)})),
            **given(grid_points="grid_points", grid_span="grid_span"),
            modulation=DayModulation(**given(weekday="weekday_multiplier", weekend="weekend_multiplier")),
            cost_policy=CostPolicy(**given(kind="cost_policy", fraction="cost_fraction")),
            **given(master_seed="master_seed"),
        )
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from None


def _parse_catalog_file(path: str):
    p = Path(path)
    if not p.is_file():
        raise CliError(f"catalog file not found: {path}")
    # utf-8-sig drops the byte-order mark spreadsheets put before the header
    return parse_catalog(p.read_text(encoding="utf-8-sig"))


def _config_and_catalog(args: argparse.Namespace):
    """The run's configuration, then its catalog: an invalid configuration
    exits before the catalog is read and its rejected rows are warned of."""
    config = _build_config(args)
    if args.catalog is None:
        return config, ProductLanes.of(sample_catalog())
    catalog, report = _parse_catalog_file(args.catalog)
    if report.rejections:
        print(
            f"pricelab: warning: {len(report.rejections)} catalog rows rejected; "
            f"proceeding with {len(catalog)} (run `pricelab validate` for details)",
            file=sys.stderr,
        )
    return config, catalog


def _write_output(blocks: Iterable[str], path: str | None) -> None:
    """Write each text block as it comes.  The block functions run every
    check that can fail before they return, so a failed run writes no byte
    and creates no file."""
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(blocks)


def _cmd_sample_catalog(args) -> int:
    _write_output([serialize_catalog(sample_catalog())], args.output)
    return 0


def _cmd_validate(args) -> int:
    catalog, report = _parse_catalog_file(args.catalog)
    rejected = {o.row_number: o for o in report.rejections}
    names = iter(catalog.names)  # a row not rejected is the next accepted name
    rows = len(catalog) + len(rejected)
    lines = (f"row {row}: rejected ({o.reason.value}): {o.detail}\n" if (o := rejected.get(row)) else
             f"row {row}: accepted ({next(names)})\n" for row in range(1, rows + 1))

    def block(start: int) -> str:  # _document asks for the blocks in turn
        return "".join(itertools.islice(lines, _BLOCK))

    _write_output(_document("", rows, block, "", f"accepted {len(catalog)} of {rows} rows\n"), args.output)
    return 1 if report.rejections else 0


def _cmd_curve(args) -> int:
    check_samples(args.samples)  # before the catalog is read, as --jobs is
    config, catalog = _config_and_catalog(args)
    with revenue_curve_blocks(catalog, config, args.samples) as blocks:
        _write_output(blocks, args.output)
    return 0


def _cmd_train(args) -> int:
    config, catalog = _config_and_catalog(args)
    if args.product not in catalog.names:
        raise CliError(f"product not found in catalog: {args.product!r}")
    index = catalog.names.index(args.product)
    product = catalog.take([index])
    lanes, grids, unusable = prepare_products(product, config)
    check_products(product.names, unusable)
    hp = config.seeded(index)
    epsilon_schedule(hp)  # an episode count too large to hold is an error of its own, not of the product
    rewards, overflow = reward_lanes(lanes, grids, config.modulation, hp.gamma)
    check_products(product.names, overflow)
    values = train_lanes(rewards, hp, [hp.seed])
    _write_output([qtable_to_csv(QTable(values[0]), PriceGrid(tuple(grids[0].tolist())))], args.output)
    # the sidecar goes only next to a regular file (not /dev/null, a pipe, ...)
    if args.output not in (None, "-") and Path(args.output).is_file():
        sidecar = Path(args.output).with_suffix(".hyperparams.json")
        sidecar.write_text(hyperparams_to_json(hp), encoding="utf-8")
    return 0


def _cmd_optimize(args) -> int:
    config, catalog = _config_and_catalog(args)
    with optimize_report(catalog, config, args.format) as blocks:
        _write_output(blocks, args.output)
    return 0


def _cmd_compare(args) -> int:
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    config, catalog = _config_and_catalog(args)
    with compare_report(catalog, config, args.format, args.jobs) as blocks:
        _write_output(blocks, args.output)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, catalog_required: bool = False) -> None:
    parser.add_argument(
        "--catalog",
        required=catalog_required,
        help="catalog CSV path" + ("" if catalog_required else " (default: embedded sample catalog)"),
    )
    parser.add_argument("--output", "-o", help="output path (default: standard output)")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file; flags override file values")
    for key, kind in CONFIG_KEYS.items():
        if key == "master_seed":
            parser.add_argument("--seed", type=kind, dest=key, help="master seed (default 0)")
        elif key == "grid_span":
            parser.add_argument("--grid-span", type=float, nargs=2, metavar=("LO", "HI"), dest=key)
        elif key == "cost_policy":
            parser.add_argument("--cost-policy", choices=COST_POLICY_KINDS, dest=key)
        else:
            parser.add_argument("--" + key.replace("_", "-"), type=kind, dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricelab",
        description="Dynamic-pricing laboratory: Q-learning agent vs classical optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-catalog", help="print the embedded sample catalog CSV")
    p.add_argument("--output", "-o", help="output path (default: standard output)")
    p.set_defaults(func=_cmd_sample_catalog)

    p = sub.add_parser(
        "validate",
        help="validate a catalog file; exit 1 on any rejected row",
        description="Validate each row of a catalog file; exit 1 on any rejected row. Price grids are "
        "not checked: they depend on --grid-span and --grid-points, which validate does not take, so a "
        "row whose grid is unusable at the span used later (say, a base price near the float maximum) is "
        "accepted here; optimize, curve and train then exit 2 naming it, and compare gives it error rows.",
    )
    _add_common(p, catalog_required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("curve", help="export revenue curves as long-format CSV")
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--samples", type=int, default=101, help="samples per curve (default 101)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser(
        "train",
        help="train one product and write its Q-table CSV",
        description="Train one product and write its Q-table CSV; when --output names a "
        "regular file, a <output>.hyperparams.json provenance sidecar is written next to it.",
    )
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--product", required=True, help="exact product name from the catalog")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("optimize", help="run the classical baselines only")
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("compare", help="train every product and compare against baselines")
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="processes to compare in (default 1): the catalog is split into up to N contiguous parts, "
        "capped at the usable CPUs and the product count; the report is the same at any N",
    )
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, where a closed pipe is caught: run() leaves without the interpreter's last flush
        return status
    except BrokenPipeError:  # the reader closed standard output early, as `pricelab curve | head` does
        if sys.stdout is sys.__stdout__:  # so the interpreter's last flush of a real stdout cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # the status a shell reports for a filter that SIGPIPE killed
    except (CliError, ValueError, OSError) as exc:
        print(f"pricelab: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. --samples or --grid-points too large to allocate
        print(f"pricelab: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    """The ``pricelab`` command: ``main``, then ``os._exit``, skipping the interpreter's teardown (tens of ms)."""
    os._exit(main())


if __name__ == "__main__":
    run()
