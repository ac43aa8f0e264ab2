"""Deterministic retail market model.

Demand is linear in price around an anchor operating point: at the base
price the product sells exactly its base demand, and demand falls off
proportionally to the relative price change scaled by the (negative)
elasticity.  Negative linear demand is clipped to zero, since negative
units sold are meaningless.  Profit is margin times units sold.

Day-of-week effects enter as a single multiplicative factor on base
demand.  Because the factor multiplies the whole demand curve, it scales
profit uniformly across prices and therefore never moves the
profit-maximizing price: that invariance is relied on throughout the
test suite.

A catalog's price grids are one float64 array built by ``_uniform_grids``
(called through ``experiment.prepare_products``), which also reports every
unusable row; ``default_price_grid`` is its one-product call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np


class DayType(IntEnum):
    """Calendar day category; Weekday orders before Weekend."""

    WEEKDAY = 0
    WEEKEND = 1

    @property
    def label(self) -> str:
        return "Weekday" if self is DayType.WEEKDAY else "Weekend"


class RejectReason(Enum):
    NON_NEGATIVE_ELASTICITY = "NonNegativeElasticity"
    NON_POSITIVE_PRICE = "NonPositivePrice"
    COST_EXCEEDS_PRICE = "CostExceedsPrice"
    DUPLICATE_NAME = "DuplicateName"
    MALFORMED_FIELD = "MalformedField"


# ProductSpec's value rules in the order they are checked, as (rule, fails, reason, detail).  ``fails`` takes a
# ProductSpec, or ProductLanes lane by lane, and is true where the rule is broken: ProductSpec raises ``rule``, and
# parse_catalog rejects the row for ``reason``, with ``detail`` formatted from the row's values
PRODUCT_RULES = (
    ("elasticity must be < 0", lambda s: s.elasticity >= 0,
     RejectReason.NON_NEGATIVE_ELASTICITY, "price_elasticity={elasticity}"),
    ("base_price must be > 0", lambda s: s.base_price <= 0,
     RejectReason.NON_POSITIVE_PRICE, "base_price={base_price}"),
    ("base_demand must be >= 0", lambda s: s.base_demand < 0,
     RejectReason.MALFORMED_FIELD, "base_demand={base_demand} is negative"),
    ("unit_cost must be >= 0", lambda s: s.unit_cost < 0,
     RejectReason.MALFORMED_FIELD, "unit_cost={unit_cost} is negative"),
    ("unit_cost must be < base_price", lambda s: s.unit_cost >= s.base_price,
     RejectReason.COST_EXCEEDS_PRICE, "unit_cost={unit_cost} >= base_price={base_price}"),
)


@dataclass(frozen=True, slots=True)
class ProductSpec:
    """One product's market parameters.

    base_demand: units sold per period at the base price.
    base_price:  anchor price (currency), > 0.
    elasticity:  proportional demand change per proportional price change;
                 strictly negative for the goods modeled here.
    unit_cost:   variable cost per unit; must leave positive margin at the
                 base price.
    """

    name: str
    base_demand: float
    base_price: float
    elasticity: float
    unit_cost: float = 0.0

    def __post_init__(self):
        # the name must survive serialize_catalog -> parse_catalog, which
        # strips each name and ends a row at CR or LF
        if not self.name:
            raise ValueError("product name must be non-empty")
        if self.name != self.name.strip() or "\r" in self.name or "\n" in self.name:
            raise ValueError("product name must not hold CR or LF or start or end with white space")
        # the values in catalog column order, as validate reports them
        for field_name in ("elasticity", "base_price", "base_demand", "unit_cost"):
            if not math.isfinite(getattr(self, field_name)):
                raise ValueError(f"{field_name} must be finite")
        for rule, fails, _, _ in PRODUCT_RULES:
            if fails(self):
                raise ValueError(rule)


@dataclass(frozen=True)
class DayModulation:
    """Multiplicative day-type demand factors.

    Defaults are uniform (1.0, 1.0): the plain deterministic environment.
    A weekend uplift (e.g. 1.2) can be configured; it scales demand and
    profit but leaves every optimal price unchanged.
    """

    weekday: float = 1.0
    weekend: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(m) and m > 0 for m in (self.weekday, self.weekend)):
            raise ValueError("day multipliers must be finite and > 0")

    def multiplier(self, day: DayType) -> float:
        return self.weekday if day is DayType.WEEKDAY else self.weekend


@dataclass(frozen=True)
class PriceGrid:
    """Ordered, finite action set of candidate prices."""

    prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.prices) < 2:
            raise ValueError("price grid needs at least 2 prices")
        if self.prices[0] <= 0:
            raise ValueError("prices must be > 0")
        for lo, hi in zip(self.prices, self.prices[1:]):
            if hi <= lo:
                raise ValueError("prices must be strictly increasing")

    def as_array(self) -> np.ndarray:
        return np.array(self.prices, dtype=np.float64)


def demand(spec: ProductSpec, price: float, multiplier: float = 1.0) -> float:
    """Units sold at ``price``, clipped at zero.

    The unclipped value is ``m * (D0 + D0 * e * (price - p0) / p0)`` with
    the day multiplier applied to base demand.  Callers guarantee
    ``price > 0`` and ``multiplier > 0``.
    """
    d0 = spec.base_demand
    raw = multiplier * (d0 + d0 * spec.elasticity * (price - spec.base_price) / spec.base_price)
    return raw if raw > 0.0 else 0.0


def reward(spec: ProductSpec, price: float, demand_value: float) -> float:
    """Per-period profit: revenue minus variable cost, ``(price - c) * d``."""
    return (price - spec.unit_cost) * demand_value


@dataclass(frozen=True)
class ProductLanes:
    """Many products' names, and their model parameters as float64 columns
    of shape (n, 1), which broadcast against ``(n, points)`` price arrays.

    ``demand`` and ``reward`` evaluate the scalar functions' IEEE
    operations in the same order, so every lane equals the scalar result
    bit for bit.  Overflow gives inf or nan without a warning, as Python
    float arithmetic does.
    """

    base_demand: np.ndarray
    base_price: np.ndarray
    elasticity: np.ndarray
    unit_cost: np.ndarray
    names: list[str]

    @classmethod
    def of(cls, specs: list[ProductSpec]) -> ProductLanes:
        cols = np.array(
            [(s.base_demand, s.base_price, s.elasticity, s.unit_cost) for s in specs], dtype=np.float64
        ).reshape(-1, 4)
        return cls(*(cols[:, k : k + 1] for k in range(4)), [s.name for s in specs])

    def take(self, rows) -> ProductLanes:
        """The lanes of ``rows`` (a slice or an index list), in that order."""
        names = self.names[rows] if isinstance(rows, slice) else [self.names[row] for row in rows]
        columns = self.base_demand, self.base_price, self.elasticity, self.unit_cost
        return ProductLanes(*(column[rows] for column in columns), names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[ProductSpec]:
        """Each product as a ``ProductSpec``, built as it is reached."""
        columns = self.base_demand, self.base_price, self.elasticity, self.unit_cost
        return map(ProductSpec, self.names, *(column.ravel().tolist() for column in columns))

    def demand(self, prices: np.ndarray, multiplier: float = 1.0) -> np.ndarray:
        d0, p0 = self.base_demand, self.base_price
        with np.errstate(over="ignore", invalid="ignore"):
            raw = multiplier * (d0 + d0 * self.elasticity * (prices - p0) / p0)
        return np.where(raw > 0.0, raw, 0.0)

    def reward(self, prices: np.ndarray, demand_values: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return (prices - self.unit_cost) * demand_values


def _uniform_grids(
    base_prices: np.ndarray, num_points: int, lo_ratio: float, hi_ratio: float
) -> tuple[np.ndarray, dict[int, str]]:
    """Grids over ``[lo_ratio * p0, hi_ratio * p0]``, one row per base price,
    and ``{row: reason}`` for every unusable row, in row order.

    Each row is ``np.linspace(lo, hi, num_points)`` bit for bit: numpy's
    own ``arange(n) * step + start`` with the stop written into the last
    column.  Calling ``np.linspace`` on the stacked bounds would not be:
    if any row's step underflows to 0, numpy switches every row to
    divide-then-multiply.  Such a row repeats prices and is reported here.
    """
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    if not (0 < lo_ratio < hi_ratio):
        raise ValueError("need 0 < lo_ratio < hi_ratio")
    base = np.asarray(base_prices, dtype=np.float64).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        start = lo_ratio * base
        stop = hi_ratio * base
        step = (stop - start) / (num_points - 1)
        grids = np.arange(num_points, dtype=np.float64) * step + start
        grids[:, -1:] = stop
        overflows = ~np.isfinite(stop[:, 0])
        nonpositive = grids[:, 0] <= 0
        unordered = (grids[:, 1:] <= grids[:, :-1]).any(axis=1)
    unusable = {}
    for i in np.flatnonzero(overflows | nonpositive | unordered).tolist():
        if overflows[i]:
            unusable[i] = f"grid upper bound {hi_ratio} * base_price overflows"
        elif nonpositive[i]:
            unusable[i] = "prices must be > 0"
        else:
            unusable[i] = "prices must be strictly increasing"
    return grids, unusable


def default_price_grid(
    spec: ProductSpec,
    num_points: int = 21,
    lo_ratio: float = 0.5,
    hi_ratio: float = 2.0,
) -> PriceGrid:
    """Uniform grid over ``[lo_ratio * p0, hi_ratio * p0]``, inclusive."""
    grids, unusable = _uniform_grids(np.array([spec.base_price]), num_points, lo_ratio, hi_ratio)
    if unusable:
        raise ValueError(unusable[0])
    return PriceGrid(tuple(grids[0].tolist()))


def zero_demand_price(spec: ProductSpec) -> float:
    """Price at which unclipped linear demand reaches zero: ``p0 * (1 - 1/e)``."""
    return spec.base_price * (1.0 - 1.0 / spec.elasticity)
