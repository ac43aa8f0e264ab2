"""Command-line entry point.

Subcommands: ``validate`` (check a catalog file), ``curve`` (revenue
curve CSV), ``train`` (train one product, write its Q-table), ``optimize``
(classical baselines only), ``compare`` (full RL-vs-baselines report),
and ``sample-catalog`` (print the embedded catalog).

Exit codes: 0 success, 1 validation rejections, 2 usage or input errors.
Settings resolve as flags > config file > defaults; the config file is a
flat JSON object using the field names listed in ``CONFIG_KEYS``.  All
randomness derives from ``--seed`` (default 0); nothing reads the clock
or OS entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import analytic_optimum, grid_search_optimum, line_search_optimum
from .catalog import parse_catalog, sample_catalog, serialize_catalog
from .domain import DayModulation, DayType, default_price_grid
from .experiment import (
    ComparisonRow,
    CostPolicy,
    ExperimentConfig,
    derive_product_seed,
    export_revenue_curves,
    markdown_escape,
    render_report,
    run_experiment,
)
from .qlearn import Hyperparams, hyperparams_to_json, qtable_to_csv, train

CONFIG_KEYS = {
    "alpha": float,
    "gamma": float,
    "epsilon_start": float,
    "epsilon_min": float,
    "epsilon_decay": float,
    "episodes": int,
    "steps_per_episode": int,
    "grid_points": int,
    "grid_span": list,
    "weekday_multiplier": float,
    "weekend_multiplier": float,
    "cost_policy": str,
    "cost_fraction": float,
    "master_seed": int,
}


class CliError(Exception):
    """User-facing error mapped to exit code 2."""


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


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))

    overrides = {
        "alpha": getattr(args, "alpha", None),
        "gamma": getattr(args, "gamma", None),
        "epsilon_start": getattr(args, "epsilon_start", None),
        "epsilon_min": getattr(args, "epsilon_min", None),
        "epsilon_decay": getattr(args, "epsilon_decay", None),
        "episodes": getattr(args, "episodes", None),
        "steps_per_episode": getattr(args, "steps_per_episode", None),
        "grid_points": getattr(args, "grid_points", None),
        "grid_span": getattr(args, "grid_span", None),
        "weekday_multiplier": getattr(args, "weekday_multiplier", None),
        "weekend_multiplier": getattr(args, "weekend_multiplier", None),
        "cost_policy": getattr(args, "cost_policy", None),
        "cost_fraction": getattr(args, "cost_fraction", None),
        "master_seed": getattr(args, "seed", None),
    }
    settings.update({k: v for k, v in overrides.items() if v is not None})

    def take(key: str, default):
        value = settings.get(key, default)
        try:
            kind = CONFIG_KEYS[key]
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

    try:
        hp = Hyperparams(
            alpha=take("alpha", 0.1),
            gamma=take("gamma", 0.9),
            epsilon_start=take("epsilon_start", 1.0),
            epsilon_min=take("epsilon_min", 0.35),
            epsilon_decay=take("epsilon_decay", 0.995),
            episodes=take("episodes", 10_000),
            steps_per_episode=take("steps_per_episode", 7),
        )
        config = ExperimentConfig(
            hyperparams=hp,
            grid_points=take("grid_points", 21),
            grid_span=take("grid_span", (0.5, 2.0)),
            modulation=DayModulation(
                weekday=take("weekday_multiplier", 1.0),
                weekend=take("weekend_multiplier", 1.0),
            ),
            cost_policy=CostPolicy(
                kind=take("cost_policy", "catalog"),
                fraction=take("cost_fraction", 0.0),
            ),
            master_seed=take("master_seed", 0),
        )
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from None
    return config


def _parse_catalog_file(path: str):
    p = Path(path)
    if not p.is_file():
        raise CliError(f"catalog file not found: {path}")
    # utf-8-sig drops the byte-order mark spreadsheets put before the header
    return parse_catalog(p.read_text(encoding="utf-8-sig"))


def _load_catalog(args: argparse.Namespace):
    path = getattr(args, "catalog", None)
    if path is None:
        return sample_catalog(), None
    specs, report = _parse_catalog_file(path)
    if report.rejections:
        print(
            f"pricelab: warning: {len(report.rejections)} catalog rows rejected; "
            f"proceeding with {len(specs)} (run `pricelab validate` for details)",
            file=sys.stderr,
        )
    return specs, report


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_sample_catalog(args) -> int:
    _write_output(serialize_catalog(sample_catalog()), args.output)
    return 0


def _cmd_validate(args) -> int:
    _, report = _parse_catalog_file(args.catalog)
    lines = []
    for o in report.outcomes:
        if o.accepted:
            lines.append(f"row {o.row_number}: accepted ({o.name})")
        else:
            lines.append(f"row {o.row_number}: rejected ({o.reason.value}): {o.detail}")
    lines.append(f"accepted {report.accepted_count} of {len(report.outcomes)} rows")
    _write_output("\n".join(lines) + "\n", args.output)
    return 1 if report.rejections else 0


def _cmd_curve(args) -> int:
    catalog, _ = _load_catalog(args)
    config = _build_config(args)
    _write_output(export_revenue_curves(catalog, config, args.samples), args.output)
    return 0


def _cmd_train(args) -> int:
    catalog, _ = _load_catalog(args)
    config = _build_config(args)
    matches = [(i, s) for i, s in enumerate(catalog) if s.name == args.product]
    if not matches:
        raise CliError(f"product not found in catalog: {args.product!r}")
    index, spec = matches[0]
    costed = config.cost_policy.apply(spec)
    lo, hi = config.grid_span
    grid = default_price_grid(costed, config.grid_points, lo, hi)
    hp = replace(config.hyperparams, seed=derive_product_seed(config.master_seed, index))
    q, _trace = train(costed, grid, config.modulation, hp)
    _write_output(qtable_to_csv(q, grid), args.output)
    if args.output and args.output != "-":
        sidecar = Path(args.output).with_suffix(".hyperparams.json")
        sidecar.write_text(hyperparams_to_json(hp), encoding="utf-8")
    return 0


def _cmd_optimize(args) -> int:
    catalog, _ = _load_catalog(args)
    config = _build_config(args)
    lo_r, hi_r = config.grid_span
    rows = []
    for spec in catalog:
        costed = config.cost_policy.apply(spec)
        grid = default_price_grid(costed, config.grid_points, lo_r, hi_r)
        bounds = (grid.lo, grid.hi)
        for day in (DayType.WEEKDAY, DayType.WEEKEND):
            mult = config.modulation.multiplier(day)
            for opt in (
                analytic_optimum(costed, bounds, mult),
                grid_search_optimum(costed, grid, mult),
                line_search_optimum(costed, bounds, mult),
            ):
                rows.append((spec.name, day.label, opt))

    if args.format == "json":
        doc = [
            {
                "product": name,
                "day": day,
                "method": opt.method.value,
                "price": opt.price,
                "demand": opt.demand,
                "profit": opt.profit,
                "clamped": opt.clamped,
            }
            for name, day, opt in rows
        ]
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    elif args.format == "markdown":
        headers = ["Product", "Day", "Method", "Optimal Price", "Optimal Demand", "Profit", "Clamped"]
        lines = ["| " + " | ".join(headers) + " |", "| " + " | ".join(["---"] * len(headers)) + " |"]
        for name, day, opt in rows:
            lines.append(
                f"| {markdown_escape(name)} | {day} | {opt.method.value} | {opt.price:.1f} | "
                f"{opt.demand:.1f} | {opt.profit:.2f} | {str(opt.clamped).lower()} |"
            )
        text = "\n".join(lines) + "\n"
    else:
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(["product", "day", "method", "optimal_price", "optimal_demand", "profit", "clamped"])
        for name, day, opt in rows:
            writer.writerow(
                [name, day, opt.method.value, f"{opt.price:.1f}", f"{opt.demand:.1f}", f"{opt.profit:.2f}", str(opt.clamped).lower()]
            )
        text = buf.getvalue()
    _write_output(text, args.output)
    return 0


def _cmd_compare(args) -> int:
    catalog, _ = _load_catalog(args)
    config = _build_config(args)
    if args.jobs is not None and args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    rows: list[ComparisonRow] = run_experiment(catalog, config)
    _write_output(render_report(rows, args.format, config), args.output)
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
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--episodes", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--epsilon-start", type=float, dest="epsilon_start")
    parser.add_argument("--epsilon-min", type=float, dest="epsilon_min")
    parser.add_argument("--epsilon-decay", type=float, dest="epsilon_decay")
    parser.add_argument("--steps-per-episode", type=int, dest="steps_per_episode")
    parser.add_argument("--grid-points", type=int, dest="grid_points")
    parser.add_argument("--grid-span", type=float, nargs=2, metavar=("LO", "HI"), dest="grid_span")
    parser.add_argument("--weekday-multiplier", type=float, dest="weekday_multiplier")
    parser.add_argument("--weekend-multiplier", type=float, dest="weekend_multiplier")
    parser.add_argument("--cost-policy", choices=["catalog", "zero", "fraction"], dest="cost_policy")
    parser.add_argument("--cost-fraction", type=float, dest="cost_fraction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricelab",
        description="Dynamic-pricing laboratory: Q-learning agent vs classical optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-catalog", help="print the embedded sample catalog CSV")
    p.add_argument("--output", "-o", help="output path (default: standard output)")
    p.set_defaults(func=_cmd_sample_catalog)

    p = sub.add_parser("validate", help="validate a catalog file; exit 1 on any rejected row")
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
        description="Train one product and write its Q-table CSV; when --output is a "
        "file, a <output>.hyperparams.json provenance sidecar is written next to it.",
    )
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--product", required=True, help="exact product name from the catalog")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("optimize", help="run the classical baselines only")
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("compare", help="train every product and compare against baselines")
    _add_common(p)
    _add_config_flags(p)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.add_argument(
        "--jobs",
        type=int,
        help="accepted for compatibility, must be >= 1; has no effect on output or speed "
        "(large catalogs train in lockstep in one process)",
    )
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"pricelab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
