"""Acceptance suite: one test per primary exit criterion.

Each test prints a ``[ACCEPTANCE] <criterion>: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure) and asserts the criterion at its stated
tolerance.  The shared fixture performs the canonical run: all fourteen
sample products trained at package defaults under zero cost with master
seed 0, per-product seeds derived by the documented splitting function.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from pricelab.baselines import analytic_optimum, grid_search_optimum, line_search_optimum
from pricelab.catalog import parse_catalog, sample_catalog, serialize_catalog
from pricelab.cli import main
from pricelab.domain import default_price_grid, demand, reward
from pricelab.experiment import CostPolicy, ExperimentConfig, export_revenue_curves
from pricelab.qlearn import Hyperparams, calendar_day_types, calendar_next_day_types, evaluate_greedy, train
from pricelab.rng import XorShift64, split_seed

GRID_POINTS = 21
MASTER_SEED = 0

# SHA-256 of the 14 canonical Q tables as little-endian float64 bytes in
# catalog order; the benchmark's reference file holds the same digest.
GOLDEN_QTABLES_SHA256 = "762a32ef25128d589d49d1a27c82e4c97b6c7dd45a7fa2d00b8023c32b2bdebe"

# Source table the embedded catalog must reproduce, to the printed decimal.
TABLE_ROWS = [
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
]


def report(name: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def canonical_run():
    """Train every sample product at defaults (zero cost, master seed 0)."""
    hp_defaults = Hyperparams()
    runs = []
    t0 = time.perf_counter()
    for index, spec in enumerate(sample_catalog()):
        grid = default_price_grid(spec, GRID_POINTS)
        hp = dataclasses.replace(hp_defaults, seed=split_seed(MASTER_SEED, index))
        q, trace = train(spec, grid, hp=hp)
        runs.append({"spec": spec, "grid": grid, "hp": hp, "q": q, "trace": trace})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def test_oracle_convergence(canonical_run):
    """RL greedy price equals the brute-force grid optimum, per state,
    for all 14 products, within the runtime budget."""
    mismatches = []
    for run in canonical_run["runs"]:
        spec, grid, q = run["spec"], run["grid"], run["q"]
        oracle = grid_search_optimum(spec, grid)
        for outcome in evaluate_greedy(q, spec, grid):
            if outcome.price != oracle.price:
                mismatches.append((spec.name, outcome.day_type.label, outcome.price, oracle.price))
    elapsed = canonical_run["elapsed"]
    detail = f"14 products x 2 states, training wall time {elapsed:.2f}s"
    if mismatches:
        detail += f"; mismatches: {mismatches}"
    report("oracle-convergence", not mismatches and elapsed < 10.0, detail)


def test_analytic_vs_brute_force():
    """Clamped analytic optimum within one grid step of grid search for
    14 products x costs {0, 0.3 p0} x both day types; golden-section
    within 1e-3 of the analytic vertex on all unclamped cases."""
    day_multipliers = (1.0, 1.2)
    grid_failures = []
    line_failures = []
    cases = unclamped = 0
    for name, e, p0, d0 in TABLE_ROWS:
        for cost_ratio in (0.0, 0.3):
            spec_costed = dataclasses.replace(
                sample_catalog()[0],
                name=name,
                elasticity=e,
                base_price=p0,
                base_demand=d0,
                unit_cost=cost_ratio * p0,
            )
            grid = default_price_grid(spec_costed, GRID_POINTS)
            bounds = (grid.lo, grid.hi)
            for mult in day_multipliers:
                cases += 1
                ana = analytic_optimum(spec_costed, bounds, mult)
                gs = grid_search_optimum(spec_costed, grid, mult)
                if abs(ana.price - gs.price) > grid.step:
                    grid_failures.append((name, cost_ratio, mult))
                if not ana.clamped:
                    unclamped += 1
                    ls = line_search_optimum(spec_costed, bounds, mult, tolerance=1e-4)
                    if abs(ls.price - ana.price) > 1e-3:
                        line_failures.append((name, cost_ratio, mult))
    ok = cases == 56 and not grid_failures and not line_failures
    report(
        "analytic-vs-brute-force",
        ok,
        f"{cases} grid cases, {unclamped} unclamped line-search cases"
        + (f"; failures {grid_failures + line_failures}" if not ok else ""),
    )


def test_fixed_point_residual(canonical_run):
    """After the training budget, |Q - (r + gamma max next Q)| <= 1e-3
    over every visited state-action pair on the calendar's transitions."""
    worst = 0.0
    hp = Hyperparams()
    days = calendar_day_types(hp.steps_per_episode)
    nxt = calendar_next_day_types(hp.steps_per_episode)
    for run in canonical_run["runs"]:
        spec, grid, q, trace = run["spec"], run["grid"], run["q"], run["trace"]
        rewards = np.array([[reward(spec, p, demand(spec, p, 1.0)) for p in grid] for _ in range(2)])
        for t in range(hp.steps_per_episode):
            s, ns = int(days[t]), int(nxt[t])
            bootstrap = hp.gamma * q.values[ns].max()
            for a in range(len(grid)):
                if trace.visit_counts[s, a] > 0:
                    worst = max(worst, abs(q.values[s, a] - (rewards[s, a] + bootstrap)))
    report("fixed-point-residual", worst <= 1e-3, f"max residual {worst:.3e} <= 1e-3")


def test_golden_qtable_digest(canonical_run):
    """The canonical Q tables are bitwise equal to the committed golden digest."""
    h = hashlib.sha256()
    for run in canonical_run["runs"]:
        h.update(np.ascontiguousarray(run["q"].values, dtype="<f8").tobytes())
    digest = h.hexdigest()
    report("golden-qtable-digest", digest == GOLDEN_QTABLES_SHA256, f"sha256 {digest[:16]}...")


def test_compare_determinism(tmp_path, capsys):
    """Byte-identical reports across reruns and across --jobs settings."""
    base = ["compare", "--cost-policy", "zero", "--seed", "0"]
    paths = {key: tmp_path / f"{key}" for key in ("a.csv", "b.csv", "par.csv", "a.json", "b.json")}
    assert main(base + ["-o", str(paths["a.csv"])]) == 0
    assert main(base + ["-o", str(paths["b.csv"])]) == 0
    assert main(base + ["--jobs", "4", "-o", str(paths["par.csv"])]) == 0
    assert main(base + ["--format", "json", "-o", str(paths["a.json"])]) == 0
    assert main(base + ["--format", "json", "-o", str(paths["b.json"])]) == 0
    capsys.readouterr()
    csv_same = paths["a.csv"].read_bytes() == paths["b.csv"].read_bytes()
    json_same = paths["a.json"].read_bytes() == paths["b.json"].read_bytes()
    par_same = paths["a.csv"].read_bytes() == paths["par.csv"].read_bytes()
    report(
        "compare-determinism",
        csv_same and json_same and par_same,
        f"csv rerun {csv_same}, json rerun {json_same}, parallel==sequential {par_same}",
    )


def test_reward_scaling_equivariance():
    """Scaling base demand by 10 scales every Q entry by exactly 10
    (relative error <= 1e-12) and leaves the greedy policy unchanged."""
    spec = sample_catalog()[0]
    scaled = dataclasses.replace(spec, base_demand=10.0 * spec.base_demand)
    grid = default_price_grid(spec, GRID_POINTS)
    hp = dataclasses.replace(Hyperparams(), seed=split_seed(MASTER_SEED, 0))
    q1, _ = train(spec, grid, hp=hp)
    q10, _ = train(scaled, grid, hp=hp)
    target = 10.0 * q1.values
    rel = np.abs(q10.values - target) / np.where(target == 0.0, 1.0, np.abs(target))
    policies_equal = [q1.argmax_action(s) for s in (0, 1)] == [q10.argmax_action(s) for s in (0, 1)]
    report(
        "reward-scaling-equivariance",
        float(rel.max()) <= 1e-12 and policies_equal,
        f"max relative error {rel.max():.3e}, greedy policy unchanged {policies_equal}",
    )


def test_demand_model_unit_checks():
    """Anchor equality, clipping, and monotone non-increase on 1000
    random (spec, price-pair) samples."""
    anchor_ok = all(demand(s, s.base_price, 1.0) == s.base_demand for s in sample_catalog())

    steep = dataclasses.replace(sample_catalog()[7])  # elasticity -8.4
    clip_ok = demand(steep, 2.0 * steep.base_price, 1.0) == 0.0

    rng = XorShift64(20240801)
    monotone_ok = True
    for _ in range(1000):
        e = -(0.05 + 10.0 * rng.uniform())
        p0 = 5.0 + 2500.0 * rng.uniform()
        d0 = 300.0 * rng.uniform()
        spec = dataclasses.replace(sample_catalog()[0], elasticity=e, base_price=p0, base_demand=d0)
        pa = p0 * (0.05 + 3.0 * rng.uniform())
        pb = p0 * (0.05 + 3.0 * rng.uniform())
        lo, hi = min(pa, pb), max(pa, pb)
        if demand(spec, hi) > demand(spec, lo) + 1e-12:
            monotone_ok = False
            break
    report(
        "demand-model-unit-checks",
        anchor_ok and clip_ok and monotone_ok,
        f"anchor {anchor_ok}, clip {clip_ok}, monotone(1000 samples) {monotone_ok}",
    )


def test_revenue_curve_structure():
    """Exported revenue curve has a unique interior maximum within one
    sample step of the zero-cost vertex whenever the vertex is in-span."""
    samples = 101
    config = ExperimentConfig(cost_policy=CostPolicy("zero"))
    text = export_revenue_curves(sample_catalog(), config, samples_per_curve=samples)
    lines = text.strip().splitlines()[1:]
    by_product: dict[str, list[tuple[float, float]]] = {}
    import csv as _csv

    for row in _csv.reader(lines):
        product, day, price, _, revenue, _ = row
        if day == "Weekday":
            by_product.setdefault(product, []).append((float(price), float(revenue)))

    failures = []
    checked = 0
    for spec in sample_catalog():
        vertex = spec.base_price * (spec.elasticity - 1) / (2 * spec.elasticity)
        lo, hi = 0.5 * spec.base_price, 2.0 * spec.base_price
        if not (lo < vertex < hi):
            continue
        checked += 1
        points = by_product[spec.name]
        prices = [p for p, _ in points]
        revenues = [r for _, r in points]
        k = revenues.index(max(revenues))
        step = prices[1] - prices[0]
        unique_interior = (
            0 < k < len(points) - 1
            and revenues.count(max(revenues)) == 1
            and revenues[k] > revenues[k - 1]
            and revenues[k] > revenues[k + 1]
        )
        if not unique_interior or abs(prices[k] - vertex) > step:
            failures.append(spec.name)
    report(
        "revenue-curve-structure",
        checked > 0 and not failures,
        f"{checked} in-span products checked" + (f"; failures {failures}" if failures else ""),
    )


def test_catalog_round_trip():
    """sample-catalog output re-parses with zero rejections and matches
    the source table to the printed decimal."""
    text = serialize_catalog(sample_catalog())
    specs, validation = parse_catalog(text)
    values_ok = len(specs) == 14 and all(
        (s.name, s.elasticity, s.base_price, s.base_demand, s.unit_cost)
        == (name, e, p0, d0, 0.0)
        for s, (name, e, p0, d0) in zip(specs, TABLE_ROWS)
    )
    report(
        "catalog-round-trip",
        not validation.rejections and values_ok,
        f"rejections {len(validation.rejections)}, field-exact {values_ok}",
    )
