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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .rng import XorShift64


class DayType(IntEnum):
    """Calendar day category; Weekday orders before Weekend."""

    WEEKDAY = 0
    WEEKEND = 1

    @property
    def label(self) -> str:
        return "Weekday" if self is DayType.WEEKDAY else "Weekend"


@dataclass(frozen=True)
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
        if not self.name:
            raise ValueError("product name must be non-empty")
        for field_name in ("base_demand", "base_price", "elasticity", "unit_cost"):
            if not math.isfinite(getattr(self, field_name)):
                raise ValueError(f"{field_name} must be finite")
        if self.base_price <= 0:
            raise ValueError("base_price must be > 0")
        if self.base_demand < 0:
            raise ValueError("base_demand must be >= 0")
        if self.elasticity >= 0:
            raise ValueError("elasticity must be < 0")
        if self.unit_cost < 0:
            raise ValueError("unit_cost must be >= 0")
        if self.unit_cost >= self.base_price:
            raise ValueError("unit_cost must be < base_price")


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

    def as_array(self) -> np.ndarray:
        return np.array([self.weekday, self.weekend], dtype=np.float64)


@dataclass(frozen=True)
class MarketState:
    """Discrete environment state: product identity crossed with day type."""

    product_index: int
    day_type: DayType

    def __post_init__(self):
        if self.product_index < 0:
            raise ValueError("product_index must be >= 0")


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

    def __len__(self) -> int:
        return len(self.prices)

    def __iter__(self):
        return iter(self.prices)

    def __getitem__(self, i: int) -> float:
        return self.prices[i]

    @property
    def lo(self) -> float:
        return self.prices[0]

    @property
    def hi(self) -> float:
        return self.prices[-1]

    @property
    def step(self) -> float:
        """Largest gap between consecutive prices."""
        return max(b - a for a, b in zip(self.prices, self.prices[1:]))

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


def noisy_demand(
    spec: ProductSpec,
    price: float,
    multiplier: float,
    sigma: float,
    rng: XorShift64,
) -> float:
    """Demand with multiplicative Gaussian noise: ``d * (1 + sigma * z)``.

    Optional hook, disabled everywhere by default (``sigma == 0`` never
    draws from ``rng``).  The clipped result is never negative.
    """
    d = demand(spec, price, multiplier)
    if sigma == 0.0:
        return d
    u1 = ((rng.next_u64() >> 11) + 1) * (1.0 / 9007199254740992.0)  # (0, 1]
    u2 = rng.uniform()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(6.283185307179586 * u2)
    noisy = d * (1.0 + sigma * z)
    return noisy if noisy > 0.0 else 0.0


def reward(spec: ProductSpec, price: float, demand_value: float) -> float:
    """Per-period profit: revenue minus variable cost, ``(price - c) * d``."""
    return (price - spec.unit_cost) * demand_value


def revenue_curve(
    spec: ProductSpec, grid: PriceGrid, multiplier: float = 1.0
) -> list[tuple[float, float, float]]:
    """Sample (price, revenue, demand) at every grid price, in grid order.

    Revenue is ``price * demand`` (not profit), the quantity plotted when
    visualizing how income varies with price.
    """
    out = []
    for price in grid:
        d = demand(spec, price, multiplier)
        out.append((price, price * d, d))
    return out


def default_price_grid(
    spec: ProductSpec,
    num_points: int = 21,
    lo_ratio: float = 0.5,
    hi_ratio: float = 2.0,
) -> PriceGrid:
    """Uniform grid over ``[lo_ratio * p0, hi_ratio * p0]``, inclusive."""
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    if not (0 < lo_ratio < hi_ratio):
        raise ValueError("need 0 < lo_ratio < hi_ratio")
    values = np.linspace(lo_ratio * spec.base_price, hi_ratio * spec.base_price, num_points)
    return PriceGrid(tuple(float(v) for v in values))


def zero_demand_price(spec: ProductSpec) -> float:
    """Price at which unclipped linear demand reaches zero: ``p0 * (1 - 1/e)``."""
    return spec.base_price * (1.0 - 1.0 / spec.elasticity)
