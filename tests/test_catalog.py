import csv
import math
import random
import re

import numpy as np
import pytest

from pricelab.catalog import (
    _BLOCK_LINES,
    RejectReason,
    RowOutcome,
    parse_catalog,
    sample_catalog,
    serialize_catalog,
)
from pricelab.domain import PRODUCT_RULES, ProductSpec

HEADER = "product_name,price_elasticity,base_price,base_demand"


class TestSampleCatalog:
    def test_fourteen_products(self):
        assert len(sample_catalog()) == 14

    def test_first_entry(self):
        s = sample_catalog()[0]
        assert s.name == 'Samsung 24" HD'
        assert s.elasticity == -0.5
        assert s.base_price == 109.2
        assert s.base_demand == 80.0
        assert s.unit_cost == 0.0

    def test_entry_seven(self):
        s = sample_catalog()[7]
        assert s.name == 'Samsung 55" 4K Q8F'
        assert (s.elasticity, s.base_price, s.base_demand) == (-8.4, 2011.6, 60.0)

    def test_unique_names(self):
        names = [s.name for s in sample_catalog()]
        assert len(set(names)) == 14


class TestParseCatalog:
    def test_bare_quote_in_name(self):
        text = HEADER + '\nSamsung 24" HD,-0.5,109.2,80.0\n'
        specs, report = parse_catalog(text)
        assert len(specs) == 1
        (spec,) = specs
        assert spec.name == 'Samsung 24" HD'
        assert spec.elasticity == -0.5
        assert spec.base_price == 109.2
        assert spec.base_demand == 80.0
        assert spec.unit_cost == 0.0
        assert not report.rejections

    def test_missing_cost_column_means_zero(self):
        specs, _ = parse_catalog(HEADER + "\na,-1.0,10.0,5.0\n")
        assert list(specs)[0].unit_cost == 0.0

    def test_cost_column_parsed(self):
        specs, _ = parse_catalog(HEADER + ",unit_cost\na,-1.0,10.0,5.0,2.5\n")
        assert list(specs)[0].unit_cost == 2.5

    def test_rejects_non_negative_elasticity(self):
        _, report = parse_catalog(HEADER + "\na,0.4,10.0,5.0\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.NON_NEGATIVE_ELASTICITY
        assert outcome.row_number == 1

    def test_rejects_cost_exceeding_price(self):
        _, report = parse_catalog(HEADER + ",unit_cost\na,-0.5,109.2,80.0,150.0\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.COST_EXCEEDS_PRICE

    def test_rejects_non_positive_price(self):
        _, report = parse_catalog(HEADER + "\na,-0.5,-10.0,80.0\nb,-0.5,0.0,80.0\n")
        assert [o.reason for o in report.rejections] == [RejectReason.NON_POSITIVE_PRICE] * 2

    def test_rejects_wrong_column_count(self):
        _, report = parse_catalog(HEADER + "\na,-0.5,109.2\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.MALFORMED_FIELD

    def test_rejects_garbage_number(self):
        _, report = parse_catalog(HEADER + "\na,cheap,109.2,80.0\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.MALFORMED_FIELD
        assert "price_elasticity" in outcome.detail

    def test_rejects_non_finite_number(self):
        _, report = parse_catalog(HEADER + "\na,-0.5,inf,80.0\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.MALFORMED_FIELD

    def test_rejects_negative_demand(self):
        _, report = parse_catalog(HEADER + "\na,-0.5,109.2,-1.0\n")
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.MALFORMED_FIELD

    def test_rejects_duplicate_name(self):
        text = HEADER + "\na,-0.5,10.0,5.0\na,-0.7,20.0,6.0\n"
        specs, report = parse_catalog(text)
        assert len(specs) == 1
        (outcome,) = report.rejections
        assert outcome.reason is RejectReason.DUPLICATE_NAME
        assert outcome.row_number == 2

    def test_bad_row_does_not_abort_file(self):
        text = HEADER + "\ngood,-0.5,10.0,5.0\nbad,0.9,10.0,5.0\nalso good,-1.0,20.0,9.0\n"
        specs, report = parse_catalog(text)
        assert [s.name for s in specs] == ["good", "also good"]
        assert len(report.outcomes) == 3
        assert [o.accepted for o in report.outcomes] == [True, False, True]

    def test_empty_after_header(self):
        specs, report = parse_catalog(HEADER + "\n")
        assert list(specs) == []
        assert report.outcomes == []

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_catalog("")
        with pytest.raises(ValueError):
            parse_catalog("name,price\na,1\n")

    # str.splitlines also breaks lines at these, but a CSV row ends only at CR or LF
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_row_ends_only_at_cr_or_lf(self, char):
        specs, report = parse_catalog(f"{HEADER}\nA{char}B,-1,10,5\n")
        assert [s.name for s in specs] == [f"A{char}B"]
        assert report.outcomes == [RowOutcome(1, True, name=f"A{char}B")]
        again, report = parse_catalog(serialize_catalog(specs))
        assert list(again) == list(specs)
        assert not report.rejections

    def test_one_outcome_per_row(self):
        text = HEADER + "\n" + "\n".join(f"p{i},-1.0,10.0,5.0" for i in range(7))
        _, report = parse_catalog(text)
        assert len(report.outcomes) == 7
        assert len(report.outcomes) - len(report.rejections) == 7


# field pieces a dirty feed might hold: numbers of every kind, words, quotes,
# separators, control and non-ASCII characters
FUZZ_PIECES = [
    "", " ", "0", "-0", "1", "-1.5", "109.2", "1e308", "-1e308", "1.7e308", "5e-324", "1e-400", "1e999",
    "inf", "-inf", "nan", "NaN", "+7", "1_000", "0x10", "1,5", "١٢", "abc", "Samsung 24\" HD", '"', '""',
    '"a,b"', '"x', ",", ",,", "\t", "\x00", "\x7f", "é", "💡", "\\", "'", ";", "|", "=1+1",
    # line breaks to str.splitlines, not to CSV
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]


def fuzz_row(rng, n_fields: int) -> str:
    roll = rng.random()
    if roll < 0.1:  # any characters at all, on one line
        return "".join(chr(rng.randrange(1, 0x3000)) for _ in range(rng.randrange(1, 30))).replace("\n", "")
    if roll < 0.6:  # a plausible row, its fields swapped for pieces at random
        fields = [rng.choice("abc"), "-1.5", "109.2", "80.0", "20.0"][:n_fields]
        for _ in range(rng.randrange(0, 3)):
            fields[rng.randrange(n_fields)] = rng.choice(FUZZ_PIECES)
    else:
        fields = ["".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randrange(0, 3))) for _ in range(rng.randrange(8))]
    return ",".join(fields)


class TestParseCatalogFuzz:
    @pytest.mark.parametrize("header", [HEADER, HEADER + ",unit_cost"])
    def test_never_raises_and_every_rejection_has_a_reason(self, header):
        rng = random.Random(20240611)
        reasons = set(RejectReason)
        assert len(reasons) == 5
        seen = set()
        for _ in range(300):
            rows = [fuzz_row(rng, header.count(",") + 1) for _ in range(rng.randrange(1, 10))]
            specs, report = parse_catalog(header + "\n" + "\n".join(rows) + "\n")
            assert len(report.outcomes) - len(report.rejections) == len(specs)
            for outcome in report.outcomes:
                assert outcome.accepted == (outcome.reason is None)
                assert outcome.accepted or outcome.reason in reasons, outcome
                seen.add(outcome.reason)
        # the rows reach every verdict (None: accepted) the header allows
        if "unit_cost" not in header:
            reasons.discard(RejectReason.COST_EXCEEDS_PRICE)
        assert seen == reasons | {None}


def oracle_row(fields: list[str], has_cost: bool, seen: set[str]):
    """One row's check as ``parse_catalog`` made it before it read columns:
    ``(spec, None, "")`` or ``(None, reason, detail)``.  The value rules are
    written out here in their order, apart from ``domain.PRODUCT_RULES``."""
    expected = 5 if has_cost else 4
    if len(fields) != expected:
        return None, RejectReason.MALFORMED_FIELD, f"expected {expected} fields, got {len(fields)}"
    name = fields[0].strip()
    if not name:
        return None, RejectReason.MALFORMED_FIELD, "empty product_name"
    values = []
    for text, column in zip(fields[1:], ["price_elasticity", "base_price", "base_demand", "unit_cost"]):
        try:
            value = float(text)
        except ValueError:
            return None, RejectReason.MALFORMED_FIELD, f"{column}: not a number: {text!r}"
        if not math.isfinite(value):
            return None, RejectReason.MALFORMED_FIELD, f"{column}: not finite: {text!r}"
        values.append(value)
    e, p, d, c = values if has_cost else values + [0.0]
    if e >= 0:
        return None, RejectReason.NON_NEGATIVE_ELASTICITY, f"price_elasticity={e}"
    if p <= 0:
        return None, RejectReason.NON_POSITIVE_PRICE, f"base_price={p}"
    if d < 0:
        return None, RejectReason.MALFORMED_FIELD, f"base_demand={d} is negative"
    if c < 0:
        return None, RejectReason.MALFORMED_FIELD, f"unit_cost={c} is negative"
    if c >= p:
        return None, RejectReason.COST_EXCEEDS_PRICE, f"unit_cost={c} >= base_price={p}"
    if name in seen:
        return None, RejectReason.DUPLICATE_NAME, f"duplicate product_name {name!r}"
    return ProductSpec(name, d, p, e, c), None, ""


def oracle_parse(text: str) -> tuple[list[ProductSpec], list[RowOutcome]]:
    """The per-row parse of a catalog with a valid header: one spec per
    accepted row and one outcome per row, as ``parse_catalog`` kept them
    before it returned columns."""
    lines = [ln for ln in re.split(r"\r\n|\r|\n", text) if ln.strip()]
    has_cost = len(next(csv.reader([lines[0]]))) == 5
    specs, outcomes, seen = [], [], set()
    for row_number, line in enumerate(lines[1:], start=1):
        try:
            fields = next(csv.reader([line], strict=True))
        except (csv.Error, StopIteration) as exc:
            outcomes.append(RowOutcome(row_number, False, RejectReason.MALFORMED_FIELD, f"bad CSV: {exc}"))
            continue
        spec, reason, detail = oracle_row(fields, has_cost, seen)
        if spec is None:
            name = fields[0].strip() if fields else None
            outcomes.append(RowOutcome(row_number, False, reason, detail, name))
        else:
            seen.add(spec.name)
            specs.append(spec)
            outcomes.append(RowOutcome(row_number, True, name=spec.name))
    return specs, outcomes


def assert_parse_matches_oracle(text: str) -> None:
    catalog, report = parse_catalog(text)
    specs, outcomes = oracle_parse(text)
    assert catalog.names == [spec.name for spec in specs]
    for field in ("base_demand", "base_price", "elasticity", "unit_cost"):
        column = getattr(catalog, field)
        want = np.array([getattr(spec, field) for spec in specs], dtype=np.float64).reshape(-1, 1)
        assert column.dtype == want.dtype and column.shape == want.shape, field
        assert column.tobytes() == want.tobytes(), field  # bit for bit: -0.0 is not 0.0
    assert report.rejections == [o for o in outcomes if not o.accepted]
    assert report.outcomes == outcomes
    assert list(catalog) == specs


def dirty_catalog(seed: int, rows: int) -> str:
    """Catalog CSV with costs in which about one row in ten breaks one rule,
    as perfbench's dirty catalog does (every reject reason and every
    malformed field), or is bad CSV, a blank line or a -0.0 cost; the
    lines end in LF, CR LF or CR."""
    rng = random.Random(seed)
    lines, names = [HEADER + ",unit_cost"], []
    for i in range(rows):
        price = round(math.exp(rng.uniform(math.log(20.0), math.log(2500.0))), 2)
        row = [f"TV {i:05d}", repr(-round(rng.uniform(0.2, 9.0), 2)), repr(price),
               repr(round(rng.uniform(10.0, 160.0), 1)), repr(round(price * rng.uniform(0.0, 0.6), 2))]
        kind = rng.randrange(120)
        if kind == 0:
            row[1] = rng.choice(["0", "-0.0", repr(round(rng.uniform(0.0, 3.0), 2))])
        elif kind == 1:
            row[2], row[4] = rng.choice(["0", "-0.0", repr(-round(rng.uniform(1.0, 500.0), 2))]), "0"
        elif kind == 2:
            row[4] = repr(round(price * rng.uniform(1.0, 2.0), 2))
        elif kind == 3 and names:
            row[0] = rng.choice(names)
        elif kind == 4:
            row[rng.randrange(1, 5)] = rng.choice(["n/a", "nan", "inf", "1e999", ""])
        elif kind == 5:
            row = row[: rng.randrange(1, 4)] if rng.random() < 0.5 else row + ["extra"]
        elif kind == 6:
            row[rng.choice([3, 4])] = repr(-round(rng.uniform(1.0, 50.0), 1))
        elif kind == 7:
            row[0] = rng.choice([" ", "", '"Q"x'])
        elif kind == 8:
            row[4] = "-0.0"
        elif kind == 9:
            lines.append(" ")
        lines.append(",".join(row))
        names.append(row[0])
    return "".join(line + rng.choice(["\n"] * 8 + ["\r\n", "\r"]) for line in lines)


class TestParseMatchesPerRowOracle:
    """``parse_catalog`` holds the accepted rows as names and columns and
    the rejected rows alone; it must give what the per-row parse gives."""

    @pytest.mark.parametrize("header", [HEADER, HEADER + ",unit_cost"])
    def test_fuzz_inputs(self, header):
        # the inputs of TestParseCatalogFuzz
        rng = random.Random(20240611)
        for _ in range(300):
            rows = [fuzz_row(rng, header.count(",") + 1) for _ in range(rng.randrange(1, 10))]
            assert_parse_matches_oracle(header + "\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dirty_catalog(self, seed):
        text = dirty_catalog(seed, 3000)
        assert_parse_matches_oracle(text)
        _, outcomes = oracle_parse(text)
        reasons = {o.reason for o in outcomes}
        assert reasons == set(RejectReason) | {None}
        assert any(o.detail.startswith("bad CSV") for o in outcomes)

    @pytest.mark.parametrize("text", [HEADER, HEADER + ",unit_cost\r\n \r\n", HEADER + "\r\r"],
                             ids=["no-line-end", "cost-crlf-blank", "cr"])
    def test_header_only(self, text):
        assert_parse_matches_oracle(text)
        catalog, report = parse_catalog(text)
        assert catalog.base_price.shape == (0, 1) and catalog.names == [] and report.outcomes == []

    def test_sample_and_empty(self):
        assert_parse_matches_oracle(serialize_catalog(sample_catalog()))
        assert_parse_matches_oracle(HEADER + "\n")
        catalog, report = parse_catalog(HEADER + "\n")
        assert catalog.base_price.shape == (0, 1) and catalog.names == [] and report.outcomes == []

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_rows_around_one_block(self, extra):
        # a rejected row, a quoted field that runs past its line and one open
        # at the block's last line, and duplicates of earlier rows, last of all
        # in the next block's first row
        rows = [f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0" for i in range(_BLOCK_LINES + extra)]
        special = ["Neg,-1.0,-5.0,1.0", '"Q,-1.0,10.0,5.0', 'R",-1.0,10.0,5.0', "P1,-2.0,20.0,5.0",
                   '"S,-1.0,10.0,5.0', "P2,-3.0,30.0,5.0"]
        for offset, line in zip(range(-5, 1), special):
            if _BLOCK_LINES + offset < len(rows):
                rows[_BLOCK_LINES + offset] = line
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        assert_parse_matches_oracle(text)
        catalog, report = parse_catalog(text)
        want = {_BLOCK_LINES - 4: "base_price=-5.0", _BLOCK_LINES - 3: "bad CSV: unexpected end of data",
                _BLOCK_LINES - 1: "duplicate product_name 'P1'", _BLOCK_LINES: "bad CSV: unexpected end of data",
                _BLOCK_LINES + 1: "duplicate product_name 'P2'"}
        assert [(o.row_number, o.detail) for o in report.rejections] == [
            (row, detail) for row, detail in want.items() if row <= len(rows)]
        assert len(catalog) == len(rows) - len(report.rejections) and 'R"' in catalog.names

    def test_quoted_field_past_its_line_mid_block(self):
        # the quoted field ends on the next line: the first line is bad CSV
        # read alone, and the next is read afresh, as a product named B"
        text = HEADER + "\nP0,-1.0,10.0,5.0\n" + '"A\nB",-1,10,5\n' + "P1,-1.0,10.0,5.0\n"
        assert_parse_matches_oracle(text)
        catalog, report = parse_catalog(text)
        assert catalog.names == ["P0", 'B"', "P1"]
        bad_csv = RowOutcome(2, False, RejectReason.MALFORMED_FIELD, "bad CSV: unexpected end of data")
        assert report.rejections == [bad_csv]

    @pytest.mark.parametrize("cell", ["n/a", "", "1e", "-1_0", " 5 ", "nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4], ids=HEADER.split(",")[1:] + ["unit_cost"])
    def test_one_cell_in_a_column(self, column, cell):
        # one odd cell among good rows: float() rejects the first three and
        # takes the next two as -10.0 and 5.0; the rest are not finite.  Only
        # that cell's row may differ from its neighbours
        rows = [["P0", "-1.5", "100.0", "10.0", "5.0"], ["P1", "-1.5", "100.0", "10.0", "5.0"],
                ["P2", "-2.5", "200.0", "20.0", "5.0"]]
        rows[1][column] = cell
        text = HEADER + ",unit_cost\n" + "\n".join(map(",".join, rows)) + "\n"
        assert_parse_matches_oracle(text)
        catalog, report = parse_catalog(text)
        assert {"P0", "P2"} <= set(catalog.names) and {o.row_number for o in report.rejections} <= {2}

    def test_duplicate_of_a_rejected_row(self):
        # a name goes to the first row accepted with it, not the first row
        text = HEADER + "\nA,1.0,10.0,5.0\nA,-1.0,10.0,5.0\nA,-2.0,20.0,5.0\n"
        assert_parse_matches_oracle(text)
        catalog, report = parse_catalog(text)
        assert catalog.elasticity.ravel().tolist() == [-1.0]
        assert [(o.row_number, o.reason) for o in report.rejections] == [
            (1, RejectReason.NON_NEGATIVE_ELASTICITY), (3, RejectReason.DUPLICATE_NAME)]

    @pytest.mark.parametrize("end", ["\r", "\n", "\r\n", None], ids=["cr", "lf", "crlf", "mixed"])
    def test_line_ends(self, end):
        # past a block, and across the pieces of about 8K characters the text is cut into
        rng = random.Random(7)
        lines = [HEADER] + [f"P{i},-1.{i % 9 + 1},{100 + i}.0,{10 + i}.0" for i in range(3000)]
        text = "".join(line + (end or rng.choice(["\r", "\n", "\r\n"])) for line in lines)
        assert len(text) > 4 * 8192
        assert_parse_matches_oracle(text)
        assert len(parse_catalog(text)[0]) == len(lines) - 1


# a value per field that breaks a rule of ProductSpec (two for the cost),
# next to values that break none
GOOD_VALUES = {"elasticity": -1.5, "base_price": 100.0, "base_demand": 10.0, "unit_cost": 5.0}
BAD_VALUES = [("elasticity", 0.5), ("base_price", -5.0), ("base_demand", -3.0), ("unit_cost", -2.0),
              ("unit_cost", 150.0)]
FAILING = [[bad] for bad in BAD_VALUES] + [
    [a, b] for i, a in enumerate(BAD_VALUES) for b in BAD_VALUES[i + 1 :] if a[0] != b[0]]


class TestOneRuleTable:
    """``ProductSpec`` and ``parse_catalog`` evaluate one table of rules,
    ``PRODUCT_RULES``: on scalars and on columns they must name the same
    first failing rule, with its reason and detail, and in the order the
    per-row oracle writes out."""

    @staticmethod
    def rule_named(values: dict) -> str:
        with pytest.raises(ValueError) as exc:
            ProductSpec("P", **values)
        rule = str(exc.value)
        [(reason, detail)] = [(reason, detail) for name, _, reason, detail in PRODUCT_RULES if name == rule]
        cells = [repr(values[k]) for k in ("elasticity", "base_price", "base_demand", "unit_cost")]
        _, report = parse_catalog(f"{HEADER},unit_cost\nP,{','.join(cells)}\n")
        assert report.rejections == [RowOutcome(1, False, reason, detail.format(**values), "P")]
        assert oracle_row(["P", *cells], True, set())[1:] == (reason, detail.format(**values))
        return rule

    @pytest.mark.parametrize("failing", FAILING, ids=lambda f: "+".join(f"{k}={v}" for k, v in f))
    def test_first_failing_rule(self, failing):
        self.rule_named({**GOOD_VALUES, **dict(failing)})

    @pytest.mark.parametrize("rule", [rule for rule, *_ in PRODUCT_RULES])
    def test_every_rule_is_reached(self, rule):
        assert rule in {self.rule_named({**GOOD_VALUES, **dict(failing)}) for failing in FAILING}
        ProductSpec("P", **GOOD_VALUES)  # and the good values pass every rule


class TestRoundTrip:
    def test_sample_round_trips_exactly(self):
        original = sample_catalog()
        text = serialize_catalog(original)
        reparsed, report = parse_catalog(text)
        assert not report.rejections
        assert list(reparsed) == original

    def test_printed_decimals_preserved(self):
        text = serialize_catalog(sample_catalog())
        assert "-0.5,109.2,80.0" in text
        assert "-8.4,2011.6,60.0" in text

    def test_awkward_names_round_trip(self):
        names = ["Comma, 1", 'Say "hi"', "Pipe | 2", "Form\x0cfeed", "Line\u2028break", "Tab\there", "Télé 💡"]
        specs = [ProductSpec(name, 10.0 + i, 100.0, -1.0) for i, name in enumerate(names)]
        again, report = parse_catalog(serialize_catalog(specs))
        assert not report.rejections
        assert list(again) == list(specs)

    def test_round_trip_with_costs(self):
        text = HEADER + ",unit_cost\nx,-2.25,400.5,12.0,99.75\n"
        specs, _ = parse_catalog(text)
        again, report = parse_catalog(serialize_catalog(specs))
        assert not report.rejections
        assert list(again) == list(specs)
