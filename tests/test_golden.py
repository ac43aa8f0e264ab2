"""Golden outputs: SHA-256 digests of whole CLI outputs.

``optimize`` (csv, json, markdown) and ``curve --samples 21`` run on the
embedded sample and on a seeded 300-row synthetic catalog, each at the
defaults and under a weekend uplift with a cost fraction; ``compare``
runs on a 40-product catalog, which trains in lockstep.  A refactor of
the baselines, grids or renderers must leave every digest unchanged.
"""

import hashlib
import math
import random

import pytest

from pricelab.cli import main

UPLIFT = ["--weekend-multiplier", "1.2", "--cost-policy", "fraction", "--cost-fraction", "0.4"]
SETTINGS = {"default": [], "uplift-cost": UPLIFT}
HEADER = "product_name,price_elasticity,base_price,base_demand,unit_cost\n"


def synthetic_catalog(rows: int, seed: int) -> str:
    """A clean catalog: log-uniform prices, elasticities from almost flat
    to steep enough to clip demand inside the grid, names that need CSV
    quoting, and a few exact round numbers that make grid ties."""
    rng = random.Random(seed)
    lines = [HEADER]
    for i in range(rows):
        price = round(math.exp(rng.uniform(math.log(0.5), math.log(50_000.0))), 2)
        elasticity = -round(rng.uniform(0.05, 12.0), 2)
        demand = round(rng.uniform(0.0, 500.0), 1)
        cost = round(price * rng.uniform(0.0, 0.9), 2) if i % 3 else 0.0
        name = (f'TV {i:03d}', f'"Quoted, {i}"', f'Set {i:03d} 55"')[i % 3]
        if i % 50 == 7:  # unit elasticity on a round price: symmetric profit ties
            price, elasticity, cost = 100.0, -1.0, 0.0
        lines.append(f"{name},{elasticity!r},{price!r},{demand!r},{cost!r}\n")
    return "".join(lines)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def catalogs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {"sample": None}
    for name, rows, seed in (("synthetic", 300, 20261018), ("forty", 40, 40)):
        paths[name] = root / f"{name}.csv"
        paths[name].write_text(synthetic_catalog(rows, seed), encoding="utf-8")
    return paths


def run_to_file(tmp_path, catalog, argv) -> str:
    out = tmp_path / "out"
    if catalog is not None:
        argv = [*argv, "--catalog", str(catalog)]
    assert main([*argv, "-o", str(out)]) == 0
    return digest(out)


OPTIMIZE_GOLDEN = {
    ("sample", "default", "csv"): "11c4e5202357201101b922204f4a1714ad6b271bd11bf2e945a81a89c2cf9f53",
    ("sample", "default", "json"): "9d60a96986db6c1e1868404b0e4cbe93c6c5eae3c7f49f1c86dcb83ce5a9f8ea",
    ("sample", "default", "markdown"): "2bdd79e9ff86ac87caacd761a3451c598f179f124dcef14547335d05083526ae",
    ("sample", "uplift-cost", "csv"): "c5a4a3503e2a4732e5dff76dd9d2eb00d190fc42a4b488a342a75bc1c86a0897",
    ("sample", "uplift-cost", "json"): "d98bc7adfc5eebf7a29e13d15a7eaa66be5a3b46d4ca4c7661631565e0f0e489",
    ("sample", "uplift-cost", "markdown"): "055e189d24bdcd6dd6ee41e71f73c2bfb2107764dadebcc8e215a8228e8ed259",
    ("synthetic", "default", "csv"): "7693d4e93dd149ae998b0616ce8053eb6b97b54791602644940ce3396edcd1f1",
    ("synthetic", "default", "json"): "b6ca1446f3c875f3ad9238662504eb7b0c64f9cf69822510cce097f15151b1c5",
    ("synthetic", "default", "markdown"): "b8248da8e1f2305e8e8389adf7e8f605fd9b38a08bec886c17e796a073335416",
    ("synthetic", "uplift-cost", "csv"): "0c5e4fc69c7f196d437cb335db8b3f765acebebbab894710047cc46e2d0f9c3a",
    ("synthetic", "uplift-cost", "json"): "03d6da30fbf0ad1ae3020e0e2bea2ebc1825af4b8fd8561fc68036e25568f532",
    ("synthetic", "uplift-cost", "markdown"): "3a88e34118c6a886e350fae0d04a5f9d707fcb4ae7d8b071caf1b9949aaa8c2b",
}

CURVE_GOLDEN = {
    ("sample", "default"): "3aed19bc2649fbdb228c40fd5e0a84eb482990283af1b6bef6935b7518850bb0",
    ("sample", "uplift-cost"): "c098cbe8fe3c264691172ecb4ce7fd4e2578c1a80d1e8f251069fe1dc3ab4fd2",
    ("synthetic", "default"): "98e8725409d33b132efa4abcb36f3946353dadf425e24b4709a234746427e865",
    ("synthetic", "uplift-cost"): "354755eea2f26e09dcfe8b858fc53c0c45c8c88773b7cdb22ca9263efc8d636d",
}

COMPARE_GOLDEN = {
    "csv": "c228f4b00f37d10ac5257af8e36751da20baa3893d628455bd333871fd984666",
    "json": "3d65a72720663eeaadfaba14c0625b22632a04230f7de819f34e5f4bb436ce4a",
}


@pytest.mark.parametrize("catalog, setting, fmt", list(OPTIMIZE_GOLDEN))
def test_optimize_digest(tmp_path, catalogs, catalog, setting, fmt):
    argv = ["optimize", "--format", fmt, *SETTINGS[setting]]
    got = run_to_file(tmp_path, catalogs[catalog], argv)
    assert got == OPTIMIZE_GOLDEN[catalog, setting, fmt]


@pytest.mark.parametrize("catalog, setting", list(CURVE_GOLDEN))
def test_curve_digest(tmp_path, catalogs, catalog, setting):
    argv = ["curve", "--samples", "21", *SETTINGS[setting]]
    assert run_to_file(tmp_path, catalogs[catalog], argv) == CURVE_GOLDEN[catalog, setting]


@pytest.mark.parametrize("fmt", list(COMPARE_GOLDEN))
def test_compare_digest(tmp_path, catalogs, fmt):
    argv = ["compare", "--episodes", "20", "--format", fmt, *UPLIFT]
    assert run_to_file(tmp_path, catalogs["forty"], argv) == COMPARE_GOLDEN[fmt]
