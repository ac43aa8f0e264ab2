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
such as a form feed or U+2028, stay in their field.  No field spans
lines: ``ProductSpec`` refuses a name that holds CR or LF.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .domain import ProductLanes, ProductSpec

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
    """A parse's rejected rows, and its accepted rows' names (the catalog's own list)."""

    rejections: list[RowOutcome] = field(default_factory=list)
    accepted: list[str] = field(default_factory=list)

    @property
    def outcomes(self) -> list[RowOutcome]:
        """Every row's outcome in row order; a row not rejected is the next accepted name."""
        rejected, names = {o.row_number: o for o in self.rejections}, iter(self.accepted)
        rows = range(1, len(self.rejections) + len(self.accepted) + 1)
        return [rejected.get(row) or RowOutcome(row, True, name=next(names)) for row in rows]


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


# ProductSpec's error for a row -> the row's reject reason and detail
_SPEC_ERRORS = {
    "elasticity must be < 0": (RejectReason.NON_NEGATIVE_ELASTICITY, "price_elasticity={elasticity}"),
    "base_price must be > 0": (RejectReason.NON_POSITIVE_PRICE, "base_price={base_price}"),
    "base_demand must be >= 0": (RejectReason.MALFORMED_FIELD, "base_demand={base_demand} is negative"),
    "unit_cost must be >= 0": (RejectReason.MALFORMED_FIELD, "unit_cost={unit_cost} is negative"),
    "unit_cost must be < base_price": (
        RejectReason.COST_EXCEEDS_PRICE, "unit_cost={unit_cost} >= base_price={base_price}"
    ),
}


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

    try:
        spec = ProductSpec(name, base_demand, base_price, elasticity, unit_cost)
    except ValueError as exc:
        reason, detail = _SPEC_ERRORS[str(exc)]
        values = dict(elasticity=elasticity, base_price=base_price, base_demand=base_demand, unit_cost=unit_cost)
        return None, reason, detail.format(**values)
    if name in seen_names:
        return None, RejectReason.DUPLICATE_NAME, f"duplicate product_name {name!r}"
    return spec, None, ""


def parse_catalog(text: str) -> tuple[ProductLanes, ValidationReport]:
    """Parse catalog CSV text into the accepted rows' ``ProductLanes`` and a
    report of the rejected rows.  Accepted rows keep their input order;
    each row's ``ProductSpec`` checks it and is dropped once its values are
    appended.  Raises ValueError only when the header itself is missing or
    wrong; every data-row problem is reported, not raised.
    """
    lines = (line for match in re.finditer(r"[^\r\n]+", text) if (line := match.group()).strip())
    header = next(lines, None)
    if header is None:
        raise ValueError("catalog is empty: header row required")

    header = [h.strip() for h in next(csv.reader([header]))]
    if tuple(header[:4]) != HEADER or len(header) > 5 or (len(header) == 5 and header[4] != COST_COLUMN):
        raise ValueError(
            f"bad catalog header {header!r}; expected "
            f"{','.join(HEADER)}[,{COST_COLUMN}]"
        )
    has_cost = len(header) == 5

    names: list[str] = []
    values = bytearray()  # each accepted row's four float64 values, in ProductLanes' field order
    report = ValidationReport(accepted=names)
    seen: set[str] = set()
    for row_number, line in enumerate(lines, start=1):
        try:
            fields = next(csv.reader([line], strict=True))
        except (csv.Error, StopIteration) as exc:
            fields, spec, reason, detail = [], None, RejectReason.MALFORMED_FIELD, f"bad CSV: {exc}"
        else:
            spec, reason, detail = _validate_row(fields, has_cost, seen)
        if spec is None:
            name = fields[0].strip() if fields else None
            report.rejections.append(RowOutcome(row_number, False, reason, detail, name))
        else:
            seen.add(spec.name)
            names.append(spec.name)
            values += struct.pack("=4d", spec.base_demand, spec.base_price, spec.elasticity, spec.unit_cost)
    cols = np.frombuffer(values).reshape(-1, 4)  # (n, 1) column views, as ProductLanes.of makes them
    return ProductLanes(*(cols[:, k : k + 1] for k in range(4)), names), report


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
