"""Workload definitions and the synthetic catalogs they run on.

Each workload is a fixed list of `pricelab` CLI commands plus the input
files it needs, generated from a workload seed.  The generated catalogs
are written before any timing starts; the program under test only ever
sees the CSV files.

Workloads (why each exists):

- ``sample-compare``: the canonical acceptance run, ``compare --jobs 1`` on
  the embedded 14-product catalog at defaults.  Kernel-bound.  Its input is
  fixed, so the seed does not change it and its output digest is always
  checked.
- ``wide-compare``: ``compare --episodes 50 --jobs 2 --format json`` on a
  clean 2,000-product catalog.  Work is spread over seed derivation, the
  kernel, per-product setup, baselines and JSON rendering.
- ``catalog-baselines``: ``validate``, ``optimize`` and ``curve --samples 21``
  on a 10,000-row catalog with 5% bad rows.  No training; the load is
  parsing, validation, the baselines, the renderers and one large output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HEADER = ["product_name", "price_elasticity", "base_price", "base_demand", "unit_cost"]

# Reject reasons as `pricelab validate` prints them.  The dirty catalog
# carries the same number of rows for each.
REASONS = (
    "NonNegativeElasticity",
    "NonPositivePrice",
    "CostExceedsPrice",
    "DuplicateName",
    "MalformedField",
)

_BRANDS = ("Samsung", "Sony", "Hisense", "VIZIO", "LG", "TCL", "Philips", "Sharp")
_SERIES = ("HD", "FHD", "4K UHD", "4K Q7F", "4K XHDR", "OLED", "QLED, Pro", "Mini-LED")


@dataclass(frozen=True)
class Scale:
    """Workload sizes; tests use a smaller one than the benchmark."""

    wide_products: int = 2_000
    wide_episodes: int = 50
    dirty_rows: int = 10_000
    curve_samples: int = 21
    sample_episodes: int | None = None  # None: the CLI default (10,000)


FULL = Scale()


@dataclass
class Command:
    """One CLI invocation and how to check what it wrote."""

    label: str
    argv: list[str]
    output: Path
    exit_code: int
    products: int  # catalog data rows the command works on
    check: Callable[[bytes], list[str]]  # structural problems of an output


@dataclass
class Workload:
    name: str
    commands: list[Command]
    rows: int  # catalog data rows of the workload's input
    seeded: bool = True  # False: the input is the same at every seed


def _good_row(rng: random.Random, index: int, tag: str) -> list[str]:
    brand = _BRANDS[rng.randrange(len(_BRANDS))]
    series = _SERIES[rng.randrange(len(_SERIES))]
    inch = rng.randrange(19, 86)
    price = round(math.exp(rng.uniform(math.log(20.0), math.log(2500.0))), 2)
    return [
        f'{brand} {inch}" {series} {tag}{index:05d}',
        repr(-round(rng.uniform(0.2, 9.0), 2)),
        repr(price),
        repr(round(rng.uniform(10.0, 160.0), 1)),
        repr(round(price * rng.uniform(0.0, 0.6), 2)),
    ]


def _bad_row(rng: random.Random, reason: str, index: int, earlier: list[str]) -> list[str]:
    row = _good_row(rng, index, "X")
    if reason == "NonNegativeElasticity":
        row[1] = repr(round(rng.uniform(0.0, 3.0), 2))
    elif reason == "NonPositivePrice":
        row[2] = rng.choice(["0", "-0.0", repr(-round(rng.uniform(1.0, 500.0), 2))])
        row[4] = "0"
    elif reason == "CostExceedsPrice":
        row[4] = repr(round(float(row[2]) * rng.uniform(1.0, 2.0), 2))
    elif reason == "DuplicateName":
        row[0] = rng.choice(earlier)
    else:  # MalformedField, in its several forms
        kind = rng.randrange(5)
        if kind == 0:
            row[2] = "n/a"
        elif kind == 1:
            row = row[:3]
        elif kind == 2:
            row[3] = repr(-round(rng.uniform(1.0, 50.0), 1))
        elif kind == 3:
            row[1] = "nan"
        else:
            row[0] = " "
    return row


def dirty_catalog(seed: int, rows: int) -> tuple[str, dict[str, int], list[str]]:
    """Catalog CSV with 5% bad rows, an equal share for each reject reason.

    Returns the text, the planned count per reason and the accepted names
    in file order.
    """
    rng = random.Random(f"dirty:{seed}")
    per_reason = rows // 100
    # Bad rows never come first, so every duplicate has an earlier original.
    bad = rng.sample(range(rows // 100, rows), per_reason * len(REASONS))
    reasons = [r for r in REASONS for _ in range(per_reason)]
    rng.shuffle(reasons)
    plan = dict(zip(bad, reasons))
    accepted: list[str] = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for i in range(rows):
        if i in plan:
            writer.writerow(_bad_row(rng, plan[i], i, accepted))
        else:
            row = _good_row(rng, i, "D")
            accepted.append(row[0])
            writer.writerow(row)
    return buf.getvalue(), {r: per_reason for r in REASONS}, accepted


def clean_catalog(seed: int, rows: int) -> tuple[str, list[str]]:
    """Catalog CSV in which every row is valid; returns text and names."""
    rng = random.Random(f"clean:{seed}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    names = []
    for i in range(rows):
        row = _good_row(rng, i, "C")
        names.append(row[0])
        writer.writerow(row)
    return buf.getvalue(), names


# --- structure checks: used when no reference digest covers the output ---


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _check_compare_csv(names: list[str]):
    def check(data: bytes) -> list[str]:
        rows = _csv_rows(data)
        problems = []
        body = rows[1:]
        if len(body) != 2 * len(names):
            problems.append(f"compare: {len(body)} rows, expected {2 * len(names)}")
        if [r[0] for r in body[::2]] != names:
            problems.append("compare: products missing or out of order")
        if any(r[-1] for r in body):
            problems.append("compare: error rows present")
        return problems

    return check


def _check_compare_json(names: list[str]):
    def check(data: bytes) -> list[str]:
        rows = json.loads(data)["rows"]
        problems = []
        if len(rows) != 2 * len(names):
            problems.append(f"compare: {len(rows)} rows, expected {2 * len(names)}")
        if [r["product"] for r in rows[::2]] != names:
            problems.append("compare: products missing or out of order")
        if any(r["error"] is not None or r["rl"] is None for r in rows):
            problems.append("compare: error rows present")
        return problems

    return check


def _check_validate(rows: int, rejected: dict[str, int]):
    def check(data: bytes) -> list[str]:
        lines = data.decode("utf-8").splitlines()
        accepted = rows - sum(rejected.values())
        seen = {r: 0 for r in REASONS}
        for line in lines[:-1]:
            if "rejected (" in line:
                reason = line.split("rejected (", 1)[1].split(")", 1)[0]
                seen[reason] = seen.get(reason, 0) + 1
        problems = []
        if len(lines) != rows + 1:
            problems.append(f"validate: {len(lines)} lines, expected {rows + 1}")
        if lines[-1:] != [f"accepted {accepted} of {rows} rows"]:
            problems.append(f"validate: bad summary line {lines[-1:]!r}")
        if seen != rejected:
            problems.append(f"validate: rejections {seen}, expected {rejected}")
        return problems

    return check


def _check_long_csv(names: list[str], per_product: int, label: str):
    def check(data: bytes) -> list[str]:
        body = _csv_rows(data)[1:]
        problems = []
        if len(body) != per_product * len(names):
            problems.append(f"{label}: {len(body)} rows, expected {per_product * len(names)}")
        if [r[0] for r in body[::per_product]] != names:
            problems.append(f"{label}: products missing or out of order")
        return problems

    return check


def build(name: str, seed: int, workdir: Path, scale: Scale = FULL) -> Workload:
    """Write the workload's inputs under ``workdir`` and list its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "sample-compare":
        from pricelab.catalog import sample_catalog

        names = [s.name for s in sample_catalog()]
        argv = ["compare", "--jobs", "1"]
        if scale.sample_episodes is not None:
            argv += ["--episodes", str(scale.sample_episodes)]
        out = workdir / "sample-compare.csv"
        cmd = Command("compare", argv + ["-o", str(out)], out, 0, len(names), _check_compare_csv(names))
        return Workload(name, [cmd], len(names), seeded=False)

    if name == "wide-compare":
        text, names = clean_catalog(seed, scale.wide_products)
        catalog = workdir / "wide.csv"
        catalog.write_text(text, encoding="utf-8")
        out = workdir / "wide-compare.json"
        argv = ["compare", "--catalog", str(catalog), "--episodes", str(scale.wide_episodes),
                "--jobs", "2", "--format", "json", "-o", str(out)]
        cmd = Command("compare", argv, out, 0, len(names), _check_compare_json(names))
        return Workload(name, [cmd], len(names))

    if name == "catalog-baselines":
        rows = scale.dirty_rows
        text, rejected, names = dirty_catalog(seed, rows)
        catalog = workdir / "dirty.csv"
        catalog.write_text(text, encoding="utf-8")
        outs = {k: workdir / f"catalog-baselines.{k}" for k in ("validate", "optimize", "curve")}
        samples = str(scale.curve_samples)
        cmds = [
            Command("validate", ["validate", "--catalog", str(catalog), "-o", str(outs["validate"])],
                    outs["validate"], 1, rows, _check_validate(rows, rejected)),
            Command("optimize", ["optimize", "--catalog", str(catalog), "-o", str(outs["optimize"])],
                    outs["optimize"], 0, rows, _check_long_csv(names, 6, "optimize")),
            Command("curve", ["curve", "--catalog", str(catalog), "--samples", samples,
                              "-o", str(outs["curve"])],
                    outs["curve"], 0, rows, _check_long_csv(names, 2 * scale.curve_samples, "curve")),
        ]
        return Workload(name, cmds, rows)

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sample-compare", "wide-compare", "catalog-baselines")
