"""Product catalog ingestion, validation, and the embedded sample catalog.

Catalog files are CSV with the header
``product_name,price_elasticity,base_price,base_demand[,unit_cost]``.
A missing cost column means zero cost for every row.  Bad rows are
rejected individually with a reason code; they never abort the file,
because real catalog feeds are dirty and the harness should proceed
with whatever validates.

Rows are parsed line by line, so a malformed line (wrong column count,
unparseable number) poisons only itself.  As in CSV, a line ends only
at CR LF, CR or LF; other characters that ``str.splitlines`` breaks at,
such as a form feed or U+2028, stay in their field.  Quoted fields
spanning multiple lines are not supported.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .domain import ProductSpec

HEADER = ("product_name", "price_elasticity", "base_price", "base_demand")
COST_COLUMN = "unit_cost"

# The embedded sample: 14 consumer-electronics products with estimated
# elasticities, anchor prices, and base demands.  Costs are zero because
# no cost data accompanies the estimates; reports always state the cost
# policy in effect.
SAMPLE_ROWS: tuple[tuple[str, float, float, float], ...] = (
    ('Samsung 24" HD', -0.5, 109.2, 80.0),
    ('Samsung 55" 4K', -1.7, 674.3, 54.0),
    ('Hisense 65" 4K', -1.1, 1412.1, 49.0),
    ('Samsung 40" FHD', -0.7, 260.5, 67.0),
    ('Samsung 49" 4K MU6290', -0.3, 444.7, 57.0),
    ('Samsung 49" 4K Q6F', -4.4, 829.0, 97.0),
    ('Samsung 50" FHD', -0.8, 418.4, 56.0),
    ('Samsung 55" 4K Q8F', -8.4, 2011.6, 60.0),
    ('Samsung 65" 4K Q7F', -7.8, 2411.6, 60.0),
    ('Samsung 24" HD UN24H4500', -1.9, 142.7, 40.0),
    ('Sony 40" FHD', -0.8, 423.8, 27.0),
    ('Sony 43" 4K UHD', -5.6, 648.0, 154.0),
    ('VIZIO 39" FHD', -1.8, 249.8, 59.0),
    ('VIZIO 70" 4K XHDR', -6.5, 1300.0, 36.0),
)


class RejectReason(Enum):
    NON_NEGATIVE_ELASTICITY = "NonNegativeElasticity"
    NON_POSITIVE_PRICE = "NonPositivePrice"
    COST_EXCEEDS_PRICE = "CostExceedsPrice"
    DUPLICATE_NAME = "DuplicateName"
    MALFORMED_FIELD = "MalformedField"


@dataclass(frozen=True, slots=True)
class RowOutcome:
    """Validation verdict for one data row (1-based row numbers)."""

    row_number: int
    accepted: bool
    reason: RejectReason | None = None
    detail: str = ""
    name: str | None = None


@dataclass
class ValidationReport:
    outcomes: list[RowOutcome] = field(default_factory=list)

    @property
    def rejections(self) -> list[RowOutcome]:
        return [o for o in self.outcomes if not o.accepted]

    @property
    def accepted_count(self) -> int:
        return sum(1 for o in self.outcomes if o.accepted)


def sample_catalog() -> list[ProductSpec]:
    """The embedded 14-product sample, in table order, with zero cost."""
    return [
        ProductSpec(name=n, base_demand=d, base_price=p, elasticity=e)
        for n, e, p, d in SAMPLE_ROWS
    ]


def _parse_number(text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{column}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{column}: not finite: {text!r}")
    return value


def _validate_row(
    fields: list[str], has_cost: bool, seen_names: set[str]
) -> tuple[ProductSpec | None, RejectReason | None, str]:
    expected = 5 if has_cost else 4
    if len(fields) != expected:
        return None, RejectReason.MALFORMED_FIELD, f"expected {expected} fields, got {len(fields)}"

    name = fields[0].strip()
    if not name:
        return None, RejectReason.MALFORMED_FIELD, "empty product_name"
    try:
        elasticity = _parse_number(fields[1], "price_elasticity")
        base_price = _parse_number(fields[2], "base_price")
        base_demand = _parse_number(fields[3], "base_demand")
        unit_cost = _parse_number(fields[4], COST_COLUMN) if has_cost else 0.0
    except ValueError as exc:
        return None, RejectReason.MALFORMED_FIELD, str(exc)

    if elasticity >= 0:
        return None, RejectReason.NON_NEGATIVE_ELASTICITY, f"price_elasticity={elasticity}"
    if base_price <= 0:
        return None, RejectReason.NON_POSITIVE_PRICE, f"base_price={base_price}"
    if base_demand < 0:
        return None, RejectReason.MALFORMED_FIELD, f"base_demand={base_demand} is negative"
    if unit_cost < 0:
        return None, RejectReason.MALFORMED_FIELD, f"unit_cost={unit_cost} is negative"
    if unit_cost >= base_price:
        return None, RejectReason.COST_EXCEEDS_PRICE, f"unit_cost={unit_cost} >= base_price={base_price}"
    if name in seen_names:
        return None, RejectReason.DUPLICATE_NAME, f"duplicate product_name {name!r}"

    spec = ProductSpec(
        name=name,
        base_demand=base_demand,
        base_price=base_price,
        elasticity=elasticity,
        unit_cost=unit_cost,
    )
    return spec, None, ""


def parse_catalog(text: str) -> tuple[list[ProductSpec], ValidationReport]:
    """Parse catalog CSV text into validated specs plus a per-row report.

    Accepted rows keep their input order.  Raises ValueError only when the
    header itself is missing or wrong; every data-row problem is reported,
    not raised.
    """
    lines = [ln for ln in re.split(r"\r\n|\r|\n", text) if ln.strip()]
    if not lines:
        raise ValueError("catalog is empty: header row required")

    header = next(csv.reader([lines[0]]))
    header = [h.strip() for h in header]
    if tuple(header[:4]) != HEADER or len(header) > 5 or (len(header) == 5 and header[4] != COST_COLUMN):
        raise ValueError(
            f"bad catalog header {header!r}; expected "
            f"{','.join(HEADER)}[,{COST_COLUMN}]"
        )
    has_cost = len(header) == 5

    specs: list[ProductSpec] = []
    report = ValidationReport()
    seen: set[str] = set()
    for row_number, line in enumerate(lines[1:], start=1):
        try:
            fields = next(csv.reader([line], strict=True))
        except (csv.Error, StopIteration) as exc:
            report.outcomes.append(
                RowOutcome(row_number, False, RejectReason.MALFORMED_FIELD, f"bad CSV: {exc}")
            )
            continue
        spec, reason, detail = _validate_row(fields, has_cost, seen)
        if spec is None:
            name = fields[0].strip() if fields else None
            report.outcomes.append(RowOutcome(row_number, False, reason, detail, name))
        else:
            seen.add(spec.name)
            specs.append(spec)
            report.outcomes.append(RowOutcome(row_number, True, name=spec.name))
    return specs, report


def serialize_catalog(specs: list[ProductSpec]) -> str:
    """Render specs as catalog CSV (always with the cost column).

    Numbers are written with ``repr``, so re-parsing reproduces every
    value exactly and short decimals stay as printed.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(HEADER) + [COST_COLUMN])
    for s in specs:
        writer.writerow(
            [s.name, repr(s.elasticity), repr(s.base_price), repr(s.base_demand), repr(s.unit_cost)]
        )
    return buf.getvalue()
