"""Product catalog ingestion, validation, and the embedded sample catalog.

Catalog files are CSV with the header
``product_name,price_elasticity,base_price,base_demand[,unit_cost]``.
A missing cost column means zero cost for every row.  Bad rows are
rejected individually with a reason code; they never abort the file,
because real catalog feeds are dirty and the harness should proceed
with whatever validates.

Rows are read in blocks of lines and checked a column at a time; a
malformed line (wrong column count, unparseable number) poisons only
itself.  As in CSV, a line ends only at CR LF, CR or LF; other
characters that ``str.splitlines`` breaks at, such as a form feed or
U+2028, stay in their field.  No field spans lines: ``ProductSpec``
refuses a name that holds CR or LF.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .domain import PRODUCT_RULES, ProductLanes, ProductSpec, RejectReason

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


# catalog lines read and checked at a time, so the parse holds one block's fields, never every row's
_BLOCK_LINES = 256


def _records(lines: list[str]) -> list[list[str] | str]:
    """Each line's CSV fields, or why it is not one record: from one strict
    reader, unless the block's lines are not one record each (a quoted field
    runs past its line), when each line is read alone by a strict reader."""
    with contextlib.suppress(csv.Error):  # most blocks: one record per line, read in one call
        if len(records := list(csv.reader(lines, strict=True))) == len(lines):
            return records
    records = []
    for line in lines:
        try:
            records.append(next(csv.reader([line], strict=True)))
        except csv.Error as exc:
            records.append(f"bad CSV: {exc}")
    return records


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None  # nan in a float64 column


def _rejection(row: int, check: int, record: list[str] | str, width: int, values: list[float]) -> RowOutcome:
    """The outcome of catalog row ``row``, whose first failed check is
    ``check`` (numbered as in parse_catalog), from its record and its
    numbers in ProductLanes' field order."""
    reason, name = RejectReason.MALFORMED_FIELD, None if isinstance(record, str) else record[0].strip()
    if check == 0:
        detail = record if name is None else f"expected {width} fields, got {len(record)}"
    elif check == 1:
        detail = "empty product_name"
    elif check < 6:
        kind = "not a number" if _number(record[check - 1]) is None else "not finite"
        detail = f"{(*HEADER, COST_COLUMN)[check - 1]}: {kind}: {record[check - 1]!r}"
    elif check < 6 + len(PRODUCT_RULES):
        _, _, reason, detail = PRODUCT_RULES[check - 6]
        detail = detail.format(**dict(zip(("base_demand", "base_price", "elasticity", "unit_cost"), values)))
    else:
        reason, detail = RejectReason.DUPLICATE_NAME, f"duplicate product_name {name!r}"
    return RowOutcome(row, False, reason, detail, name)


def parse_catalog(text: str) -> tuple[ProductLanes, ValidationReport]:
    """Parse catalog CSV text into the accepted rows' ``ProductLanes`` and a
    report of the rejected rows.  Accepted rows keep their input order.
    Raises ValueError only when the header itself is missing or wrong; every
    data-row problem is reported, not raised.

    The rows are checked a block of lines at a time, a column at a time.  A
    row's checks are: one record of the header's width (check 0), a name
    (1), four finite numbers (2-5), then ``PRODUCT_RULES`` (6-10); the first
    it fails is the argmax of the stacked masks.  A row that passes them all
    is accepted unless its name was accepted before (11).  Only rejected
    rows, and that first-seen check, take a step of their own.
    """
    # the non-blank lines: pieces of about 8K characters that end before a line break, split at LF once CRs are LFs
    pieces = (m.group().replace("\r\n", "\n").replace("\r", "\n") for m in re.finditer(r"(?s).{1,8192}[^\r\n]*", text))
    lines = filter(str.strip, itertools.chain.from_iterable(piece.split("\n") for piece in pieces))
    header = next(lines, None)
    if header is None:
        raise ValueError("catalog is empty: header row required")

    header = [h.strip() for h in next(csv.reader([header]))]
    if tuple(header[:4]) != HEADER or len(header) > 5 or (len(header) == 5 and header[4] != COST_COLUMN):
        raise ValueError(
            f"bad catalog header {header!r}; expected "
            f"{','.join(HEADER)}[,{COST_COLUMN}]"
        )
    width = len(header)
    filler = ["", "0", "0", "0", "0"][:width]  # the fields checked of a row that check 0 rejects

    names: list[str] = []
    values = np.empty((text.count("\n") + text.count("\r"), 4))  # a row per line break at most
    report = ValidationReport(accepted=names)
    seen: set[str] = set()
    while records := _records(list(itertools.islice(lines, _BLOCK_LINES))):
        row = len(names) + len(report.rejections) + 1  # the block's first
        # a record of another width, or the message of a line that is none ("bad CSV: ..." is longer than 5)
        broken = np.array(list(map(len, records))) != width
        fields = [filler if bad else r for r, bad in zip(records, broken.tolist())] if broken.any() else records
        columns = list(zip(*fields))
        block_names = list(map(str.strip, columns[0]))
        numbers = np.zeros((len(records), 4))  # in file order; without a cost column every cost is 0.0
        for k, column in enumerate(columns[1:]):
            try:
                numbers[:, k] = list(map(float, column))
            except ValueError:  # only this column is converted cell by cell
                numbers[:, k] = list(map(_number, column))
        block_values = numbers[:, [2, 1, 0, 3]]
        lanes = ProductLanes(*block_values.T, block_names)
        failed = np.column_stack([broken, [not name for name in block_names], ~np.isfinite(numbers)]
                                 + [fails(lanes) for _, fails, _, _ in PRODUCT_RULES])
        first, keep = failed.argmax(axis=1), ~failed.any(axis=1)
        for i in np.flatnonzero(keep).tolist():  # a name goes to the first row accepted with it
            if block_names[i] in seen:
                keep[i], first[i] = False, failed.shape[1]
            seen.add(block_names[i])
        for i in np.flatnonzero(~keep).tolist():
            report.rejections.append(_rejection(row + i, int(first[i]), records[i], width, block_values[i].tolist()))
        accepted = block_values[keep]
        values[len(names) : len(names) + len(accepted)] = accepted
        names += itertools.compress(block_names, keep.tolist())
    cols = values[: len(names)]  # (n, 1) column views, as ProductLanes.of makes them
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
