"""Classical profit maximization over the linear demand model.

Three routes to the optimal price, used both as comparison baselines and
as verification oracles for the learned policy:

- analytic: the profit parabola's vertex in closed form, clamped to the
  allowed interval;
- grid search: exhaustive evaluation over a price grid (the brute-force
  oracle);
- line search: derivative-free golden-section maximization, standing in
  for a generic numeric optimizer.

Profit ``(p - c) * demand(p)`` is quadratic in price while demand is
positive and identically zero beyond the zero-demand price, so it is
unimodal on any interval that starts below that point; the golden
section's bracketing logic relies on that.

``optimum_columns`` runs all three over many products at once, one
float64 lane per product, and every lane equals the one-product scalar
arithmetic bit for bit:

- analytic: the clamp is ``np.where`` on the comparisons Python's ``max``
  and ``min`` make, so NaN and signed zeros resolve as they would;
- grid search: a profit wins only if strictly greater than the best so
  far, so the lowest index wins ties, a NaN profit is skipped and a NaN
  at index 0 keeps index 0 (plain ``np.argmax`` would pick the NaN);
- golden section: each lane runs its own iteration count, computed with
  ``math.log`` per product (``np.log`` need not give libm's bits); a lane
  whose count is used up is masked and keeps its bracket.

The columns are the one source of results: ``optimum_columns`` gives
each method's price, demand, profit and clamped flag as arrays, and
``columns_by_day`` stacks them as ``(product, day, method)`` arrays, which
``pricelab optimize`` and ``pricelab compare`` render directly.  The
one-lane calls ``analytic_optimum``, ``grid_search_optimum`` and
``line_search_optimum`` view one product's columns as an ``Optimum``,
with Python floats and bools (``tolist``), so it prints exactly what
scalar code would.  A one-lane call pays numpy's per-operation overhead
(golden section: about 2 ms), so more than a few products belong in one
``optimum_columns`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .domain import DayModulation, DayType, PriceGrid, ProductLanes, ProductSpec, demand, reward

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
_LOG_INV_PHI = math.log(_INV_PHI)
# the golden section stops once its bracket is narrower than this; a line
# search optimum this close to a bound is flagged clamped
_TOLERANCE = 1e-4


class Method(Enum):
    ANALYTIC = "Analytic"
    GRID_SEARCH = "GridSearch"
    LINE_SEARCH = "LineSearch"


@dataclass(frozen=True, slots=True)
class Optimum:
    price: float
    demand: float
    profit: float
    method: Method
    clamped: bool


def profit_at(spec: ProductSpec, price: float, multiplier: float = 1.0) -> float:
    return reward(spec, price, demand(spec, price, multiplier))


class Columns(NamedTuple):
    """One method's optima over a catalog, one entry per product: price,
    demand and profit as float64 arrays, clamped as a bool array."""

    price: np.ndarray
    demand: np.ndarray
    profit: np.ndarray
    clamped: np.ndarray


def _columns(lanes: ProductLanes, price: np.ndarray, multiplier: float, clamped: np.ndarray) -> Columns:
    d = lanes.demand(price, multiplier)
    return Columns(price.ravel(), d.ravel(), lanes.reward(price, d).ravel(), clamped.ravel())


def _view(method: Method, columns: Columns) -> list[Optimum]:
    """``columns`` as one ``Optimum`` per product."""
    return [Optimum(p, q, f, method, k) for p, q, f, k in zip(*(a.tolist() for a in columns))]


def _analytic(lanes: ProductLanes, lo: np.ndarray, hi: np.ndarray, multiplier: float) -> Columns:
    e, p0, c = lanes.elasticity, lanes.base_price, lanes.unit_cost
    with np.errstate(over="ignore", invalid="ignore"):
        vertex = c / 2.0 + p0 * (e - 1.0) / (2.0 * e)
        zero_demand = p0 * (1.0 - 1.0 / e)
    hi_eff = np.where(zero_demand < hi, zero_demand, hi)  # min(hi, zero_demand)
    floor = np.where(lo > vertex, lo, vertex)  # max(vertex, lo)
    price = np.where(hi_eff < floor, hi_eff, floor)  # min(floor, hi_eff)
    return _columns(lanes, price, multiplier, price != vertex)


def _grid_search(lanes: ProductLanes, grids: np.ndarray, multiplier: float) -> Columns:
    profit = lanes.reward(grids, lanes.demand(grids, multiplier))
    nan = np.isnan(profit)
    profit[nan] = -np.inf
    best = np.where(nan[:, 0], 0, profit.argmax(axis=1))
    price = np.take_along_axis(grids, best[:, None], axis=1)
    clamped = (best == 0) | (best == grids.shape[1] - 1)
    return _columns(lanes, price, multiplier, clamped)


def _line_search(
    lanes: ProductLanes, lo: np.ndarray, hi: np.ndarray, multiplier: float
) -> Columns:
    def profit(x):
        return lanes.reward(x, lanes.demand(x, multiplier))

    a, b = lo, hi
    # inf and nan arise silently, as in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        h = b - a
        counts = [
            math.ceil(math.log(_TOLERANCE / w) / _LOG_INV_PHI) if w > _TOLERANCE else 0 for w in h.ravel().tolist()
        ]
        shrinks = np.array(counts, dtype=np.int64).reshape(-1, 1) - 1  # -1: the bracket is already narrow
        c = a + _INV_PHI_SQ * h
        d = a + _INV_PHI * h
        fc, fd = profit(c), profit(d)
        for i in range(max(counts, default=0) - 1):
            live = i < shrinks
            left = live & (fc > fd)  # keep [a, d]: d <- c, new c
            right = live & ~(fc > fd)  # keep [c, b]: c <- d, new d
            b = np.where(left, d, b)
            a = np.where(right, c, a)
            h = np.where(live, _INV_PHI * h, h)
            x = np.where(left, a + _INV_PHI_SQ * h, a + _INV_PHI * h)
            fx = profit(x)
            c, d, fc, fd = (
                np.where(left, x, np.where(right, d, c)),
                np.where(left, c, np.where(right, x, d)),
                np.where(left, fx, np.where(right, fd, fc)),
                np.where(left, fc, np.where(right, fx, fd)),
            )
        searched = shrinks >= 0
        b = np.where(searched & (fc > fd), d, b)
        a = np.where(searched & ~(fc > fd), c, a)
        price = (a + b) / 2.0
        clamped = ((price - lo) <= _TOLERANCE) | ((hi - price) <= _TOLERANCE)
    return _columns(lanes, price, multiplier, clamped)


def optimum_columns(
    lanes: ProductLanes, grids: np.ndarray, multiplier: float = 1.0
) -> tuple[Columns, Columns, Columns]:
    """Analytic, grid-search and line-search optima of every product, as
    columns in ``lanes`` order.

    ``lanes`` and the ``(n, points)`` price array ``grids`` are rows of
    ``experiment.prepare_products``' results; the analytic and line
    searches run over each row's ``[first, last]`` price.
    """
    lo, hi = grids[:, :1], grids[:, -1:]
    return (
        _analytic(lanes, lo, hi, multiplier),
        _grid_search(lanes, grids, multiplier),
        _line_search(lanes, lo, hi, multiplier),
    )


def columns_by_day(lanes: ProductLanes, grids: np.ndarray, modulation: DayModulation) -> Columns:
    """Every product's optima as ``(product, day, method)`` arrays, day and
    method in ``DayType`` and ``Method`` order, from one ``optimum_columns``
    call per distinct day multiplier."""
    multipliers = [modulation.multiplier(day) for day in DayType]
    # equal multipliers give equal optima
    computed = {m: optimum_columns(lanes, grids, m) for m in dict.fromkeys(multipliers)}
    per_day = [computed[m] for m in multipliers]
    return Columns(*(
        np.array([[getattr(method, field) for method in methods] for methods in per_day]).transpose(2, 0, 1)
        for field in Columns._fields
    ))


def _one_lane_bounds(bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = bounds
    if not (0 < lo < hi < math.inf):  # NaN fails every comparison
        raise ValueError(f"need 0 < lo < hi < inf, got {bounds!r}")
    return np.array([[lo]], dtype=np.float64), np.array([[hi]], dtype=np.float64)


def analytic_optimum(
    spec: ProductSpec, bounds: tuple[float, float], multiplier: float = 1.0
) -> Optimum:
    """Closed-form maximizer of the profit parabola, clamped.

    The unconstrained vertex is ``c/2 + p0 * (e - 1) / (2e)``; the usable
    interval is the given bounds intersected with the zero-demand price,
    beyond which the parabola formula no longer describes profit.
    """
    lo, hi = _one_lane_bounds(bounds)
    return _view(Method.ANALYTIC, _analytic(ProductLanes.of([spec]), lo, hi, multiplier))[0]


def grid_search_optimum(
    spec: ProductSpec, grid: PriceGrid, multiplier: float = 1.0
) -> Optimum:
    """Exhaustive profit evaluation over the grid; lowest-price tiebreak.

    The result is flagged clamped when the maximizer sits on either grid
    endpoint, meaning the grid span (not the curve) decided it.
    """
    columns = _grid_search(ProductLanes.of([spec]), np.array([grid.prices], dtype=np.float64), multiplier)
    return _view(Method.GRID_SEARCH, columns)[0]


def line_search_optimum(
    spec: ProductSpec,
    bounds: tuple[float, float],
    multiplier: float = 1.0,
) -> Optimum:
    """Golden-section maximization of profit over the bounds.

    Deterministic iteration count chosen up front so the final bracket is
    narrower than ``_TOLERANCE``; the bracket midpoint is returned.  On a
    flat (clipped-demand) stretch the shrinking bracket still terminates
    and the midpoint's profit is no worse than both endpoints'.
    """
    lo, hi = _one_lane_bounds(bounds)
    return _view(Method.LINE_SEARCH, _line_search(ProductLanes.of([spec]), lo, hi, multiplier))[0]
