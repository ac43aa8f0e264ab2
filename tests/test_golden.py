"""Golden outputs: SHA-256 digests of whole CLI outputs.

``optimize`` (csv, json, markdown) and ``curve --samples 21`` run on the
embedded sample and on a seeded 300-row synthetic catalog, each at the
defaults and under a weekend uplift with a cost fraction; ``compare``
runs on a 40-product catalog (also for 300 episodes, past the epsilon
floor) and on the 14-product sample, both also with rows whose grid or
rewards are unusable, and ``compare --format json`` on names JSON must
escape.  ``optimize`` (csv, json, markdown) runs on such names and, with
``curve`` and ``compare``, on a catalog with no accepted rows.
``train`` and ``compare`` on the sample also run a long decay (1,500
episodes at 0.999, about 1,050 of them above the floor) with 7- and
5-step episodes, so that the decay spans several draw blocks and an
episode can end inside one.  Every ``compare`` digest with products to
train is checked on both training paths.  Every ``optimize``, ``curve``
and ``compare`` digest is also checked with the reports written in blocks
of 1 and of 5 products, so that every catalog here is split into blocks.
Every ``optimize`` and ``compare`` digest is checked again with the
products run in chunks of 1, 5 and ``LOCKSTEP_MIN_PRODUCTS`` products.
``train`` (table and sidecar), ``validate`` and ``sample-catalog`` are
pinned too.  A refactor of the baselines, grids, product setup, training
kernels or renderers must leave every digest unchanged.
"""

import dataclasses
import hashlib
import math
import random

import pytest

from pricelab import experiment, qlearn
from pricelab.catalog import parse_catalog, sample_catalog, serialize_catalog
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


@pytest.fixture(params=["lockstep", "scalar"])
def kernel(request, monkeypatch):
    """Train every catalog on one path: the lockstep kernel, or the scalar
    kernel product by product.  The digests must not depend on it, nor on
    where ``LOCKSTEP_MIN_PRODUCTS`` sits."""
    monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", 1 if request.param == "lockstep" else 10**9)
    return request.param


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
def test_compare_digest(tmp_path, catalogs, fmt, kernel):
    argv = ["compare", "--episodes", "20", "--format", fmt, *UPLIFT]
    assert run_to_file(tmp_path, catalogs["forty"], argv) == COMPARE_GOLDEN[fmt]


# rows no product pipeline may silently drop: two unusable price grids and
# one product whose rewards overflow; every other row must come out as usual
BAD_ROWS = "Huge,-0.5,1.7e308,1.0,0\nTiny,-1.0,5e-324,10.0,0\nBig,-0.5,100.0,1e307,0\n"

# one row per rejection reason, between accepted rows
REJECTING_CATALOG = HEADER + (
    "Fine,-1.0,100.0,10.0,0\n"
    "Flat,0.5,100.0,10.0,0\n"
    "Free,-1.0,0.0,10.0,0\n"
    "Costly,-1.0,100.0,10.0,150.0\n"
    "Fine,-2.0,50.0,5.0,0\n"
    "Broken,-1.0,abc,10.0,0\n"
    "Short,-1.0\n"
    '"Quoted, name",-0.8,423.8,27.0,10.0\n'
)


def run_with_code(tmp_path, argv, code) -> str:
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == code
    return digest(out)


def write_catalog(tmp_path, text):
    path = tmp_path / "catalog.csv"
    path.write_text(text, encoding="utf-8")
    return path


TRAIN_GOLDEN = {
    "table": "af49d5b04c09337a5e918dfacfc35e8405b1db4c6c0b52efecff6c280ea52e03",
    "sidecar": "7b0f16f00a9f480aafe138c0de0ac39f2e66365c242dc4f6c33f2c6ce76422e7",
}

OTHER_GOLDEN = {
    "validate": "009e56c9020c9703e8ee6df3050db6a83f4669b2ca491fb919b17c0a7d217d3d",
    "sample-catalog": "cfaf85671c1d35eef84174ab28ec5cffeeb41a49397648fbe0722bcedb31b715",
    "compare-markdown": "b4dd8f442994f1a99f3ae80e6482b55fe74ca1a350241e906204ef133d6f3b12",
    "compare-sample": "044682133f79b22a67d268663c47398a00a2175927630bf2f3a00db380924a1c",
    "compare-floor": "ca4a93d2b28884923be44455398d466496db69fcaa21ad6e082cc6ac18257d93",
    "compare-bad-rows-sample-csv": "c1aeb1fb080ca9666337789d9acccca5131b0ff046f90c39a49c491ea91be3c3",
    "compare-bad-rows-forty-csv": "52159107f5a81a21bb97455a20096345f22b9e3ab98a195e73d11dda501b522c",
    "compare-bad-rows-sample-markdown": "ab1ab80fca85d595d3c4ff3919a0e14e5483ad80465be002048a10ba0af13c6f",
    "compare-bad-rows-forty-json": "35addf5d6f7843f1c4a4d31bc6eba016e1111327266c7895e86cffd586af6cde",
    "compare-escaped-names-14-json": "8c262c3d7190f7427f6d7df48dd39cd03e0bfb11be35b6df38c202aeca35616e",
    "compare-escaped-names-40-json": "f6736f1e4129381a282bfc44ffa66573d3cbc8e99c27e4c436754784497f04b8",
    "optimize-escaped-names-csv": "e014210b5c690f7797a17584eaf75bda2dbb8fbc66e5a5f6e03a5fb62ab8053e",
    "optimize-escaped-names-json": "5e17f82065de615890d879a46ef33eadd0c4d968119258f1c62265686f642647",
    "optimize-escaped-names-markdown": "923d12ed9972e16d525bce5289695d51c0f138f557532c699b9d8a31dcb09743",
    "optimize-no-rows-csv": "e1885131bab58bcb8ba11b47a821d9bb15f8a7b3a57e875a5f9a561ce7fb63be",
    "optimize-no-rows-json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "optimize-no-rows-markdown": "27e93865c5b848943fa72540902dee4bb2df7a9aece7d5d79e63611c4afca0a2",
    "curve-no-rows": "41e67cde87d681911467cd5d485ae511675a58a1390b1aabe29ddfa5fc81aa18",
    "compare-no-rows-csv": "36311191bbe83e90521c9170a5ea7556c7f13b7a76821463b311e467937022e8",
    "compare-no-rows-json": "7fd0ceb57a0f7052cc71cd4665a71606541e1ce072300ea45f93b278fde52763",
    "compare-no-rows-markdown": "7b24ccf159378b9cd0a87e6cdd9b0a92b415f6f4da412622e9725c465c1a3ef7",
}


# epsilon decays 1.0 -> 0.35 over about 1,050 episodes
LONG_DECAY = ["--episodes", "1500", "--epsilon-decay", "0.999"]
STEPS = {"7-steps": [], "5-steps": ["--steps-per-episode", "5"]}

LONG_DECAY_GOLDEN = {
    ("train", "7-steps"): (
        "0b0f2c418188a2d0776676c19806c135c66fb46e10bdf28293d55e95da8677f5",
        "43525bbff7d47f0be383da3afc87dd92da315d17c3fe4c860a1594c81b3913b1",
    ),
    ("train", "5-steps"): (
        "36d2218aeaa19515a2d7f8b34728657310e8659687dd128d27038ca673969583",
        "e31a6dc63aa22a30da4b5b54a0678d414ef3d4fa2a44e367409bbc743a6a9070",
    ),
    ("compare", "7-steps"): "5dc8587d8e5919a937222316f3e95682d069e6de78534997aebb5f642b084706",
    ("compare", "5-steps"): "f8b20d312ef5d18d1cefbbfa8eea858f99582c6c43505caf86dbabbb10366c00",
}


@pytest.mark.parametrize("steps", list(STEPS))
def test_train_long_decay_digest(tmp_path, steps):
    argv = ["train", "--product", 'Samsung 24" HD', *LONG_DECAY, *STEPS[steps]]
    assert main([*argv, "-o", str(tmp_path / "q.csv")]) == 0
    got = (digest(tmp_path / "q.csv"), digest(tmp_path / "q.hyperparams.json"))
    assert got == LONG_DECAY_GOLDEN["train", steps]


@pytest.mark.parametrize("steps", list(STEPS))
def test_compare_long_decay_digest(tmp_path, steps, kernel):
    argv = ["compare", *LONG_DECAY, *STEPS[steps]]
    assert run_to_file(tmp_path, None, argv) == LONG_DECAY_GOLDEN["compare", steps]


def test_train_digest(tmp_path):
    argv = ["train", "--product", 'Samsung 55" 4K', "--episodes", "300", "--seed", "7", *UPLIFT]
    assert main([*argv, "-o", str(tmp_path / "q.csv")]) == 0
    got = {"table": digest(tmp_path / "q.csv"), "sidecar": digest(tmp_path / "q.hyperparams.json")}
    assert got == TRAIN_GOLDEN


def test_validate_digest(tmp_path):
    catalog = write_catalog(tmp_path, REJECTING_CATALOG)
    got = run_with_code(tmp_path, ["validate", "--catalog", str(catalog)], 1)
    assert got == OTHER_GOLDEN["validate"]


def test_sample_catalog_digest(tmp_path):
    assert run_with_code(tmp_path, ["sample-catalog"], 0) == OTHER_GOLDEN["sample-catalog"]


def test_compare_markdown_digest(tmp_path, catalogs, kernel):
    argv = ["compare", "--episodes", "20", "--format", "markdown", *UPLIFT]
    assert run_to_file(tmp_path, catalogs["forty"], argv) == OTHER_GOLDEN["compare-markdown"]


def test_compare_sample_digest(tmp_path, kernel):
    argv = ["compare", "--episodes", "50", *UPLIFT]
    assert run_to_file(tmp_path, None, argv) == OTHER_GOLDEN["compare-sample"]


def test_compare_floor_digest(tmp_path, catalogs, kernel):
    # 300 episodes: epsilon reaches its floor at episode 210, so 90 episodes
    # train at a constant epsilon
    argv = ["compare", "--episodes", "300", *UPLIFT]
    assert run_to_file(tmp_path, catalogs["forty"], argv) == OTHER_GOLDEN["compare-floor"]


@pytest.mark.parametrize(
    "base, fmt", [("sample", "csv"), ("forty", "csv"), ("sample", "markdown"), ("forty", "json")]
)
def test_compare_bad_rows_digest(tmp_path, catalogs, base, fmt, kernel):
    text = serialize_catalog(sample_catalog()) if base == "sample" else catalogs[base].read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    catalog = write_catalog(tmp_path, "".join(lines[:4]) + BAD_ROWS + "".join(lines[4:]))
    argv = ["compare", "--episodes", "20", "--format", fmt]
    assert run_to_file(tmp_path, catalog, argv) == OTHER_GOLDEN[f"compare-bad-rows-{base}-{fmt}"]


# names the JSON writer must escape: quote, backslash, slash, tab and non-ASCII
ESCAPED_NAMES = ('Say "hi"', "back\\slash", "a/b", "tab\there", "Café", "€ 99", 'all "\\/\té€')


def escaped_names_catalog(tmp_path, rows):
    specs, _ = parse_catalog(synthetic_catalog(rows, 14))
    names = [f"{ESCAPED_NAMES[i % len(ESCAPED_NAMES)]} {i}" for i in range(rows)]
    renamed = [dataclasses.replace(spec, name=name) for spec, name in zip(specs, names)]
    catalog = write_catalog(tmp_path, serialize_catalog(renamed))
    assert [s.name for s in parse_catalog(catalog.read_text(encoding="utf-8"))[0]] == names
    return catalog


@pytest.mark.parametrize("rows", [14, 40])
def test_compare_escaped_names_json_digest(tmp_path, rows, kernel):
    catalog = escaped_names_catalog(tmp_path, rows)
    argv = ["compare", "--episodes", "20", "--format", "json", "--catalog", str(catalog)]
    assert run_to_file(tmp_path, None, argv) == OTHER_GOLDEN[f"compare-escaped-names-{rows}-json"]


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_optimize_escaped_names_digest(tmp_path, fmt):
    argv = ["optimize", "--format", fmt, *UPLIFT, "--catalog", str(escaped_names_catalog(tmp_path, 14))]
    assert run_to_file(tmp_path, None, argv) == OTHER_GOLDEN[f"optimize-escaped-names-{fmt}"]


NO_ROWS_COMMANDS = [["optimize", "--format", "csv"], ["optimize", "--format", "json"],
                    ["optimize", "--format", "markdown"], ["curve"], ["compare", "--format", "csv"],
                    ["compare", "--format", "json"], ["compare", "--format", "markdown"]]
NO_ROWS_IDS = ["optimize-csv", "optimize-json", "optimize-markdown", "curve", "compare-csv", "compare-json",
               "compare-markdown"]


@pytest.mark.parametrize("command", NO_ROWS_COMMANDS, ids=NO_ROWS_IDS)
def test_no_rows_digest(tmp_path, command):
    # every row rejected: a header, a bare table or an empty list
    catalog = write_catalog(tmp_path, HEADER + "Flat,0.5,100.0,10.0,0\nFree,-1.0,0.0,10.0,0\n")
    name = "-".join([command[0], "no-rows", *command[2:]])
    assert run_to_file(tmp_path, None, [*command, "--catalog", str(catalog)]) == OTHER_GOLDEN[name]


# --- the same digests with the reports written in small blocks ---------------
# With 5 products a block, the bad rows (catalog indices 3 to 5) fall on both
# sides of a block boundary, the 14-product catalogs end in a short block and
# the 40-product ones in a full one; with 1, every product is a block.


@pytest.fixture(params=[1, 5], ids=["block-1", "block-5"])
def small_block(request, monkeypatch):
    monkeypatch.setattr(experiment, "_BLOCK", request.param)


@pytest.mark.parametrize("catalog, setting, fmt", list(OPTIMIZE_GOLDEN))
def test_optimize_digest_in_small_blocks(tmp_path, catalogs, catalog, setting, fmt, small_block):
    test_optimize_digest(tmp_path, catalogs, catalog, setting, fmt)


@pytest.mark.parametrize("catalog, setting", list(CURVE_GOLDEN))
def test_curve_digest_in_small_blocks(tmp_path, catalogs, catalog, setting, small_block):
    test_curve_digest(tmp_path, catalogs, catalog, setting)


@pytest.mark.parametrize("fmt", list(COMPARE_GOLDEN))
def test_compare_digest_in_small_blocks(tmp_path, catalogs, fmt, small_block):
    test_compare_digest(tmp_path, catalogs, fmt, None)
    test_compare_markdown_digest(tmp_path, catalogs, None)
    test_compare_floor_digest(tmp_path, catalogs, None)


@pytest.mark.parametrize("steps", list(STEPS))
def test_compare_long_decay_digest_in_small_blocks(tmp_path, steps, small_block):
    test_compare_long_decay_digest(tmp_path, steps, None)


def test_compare_sample_digest_in_small_blocks(tmp_path, small_block):
    test_compare_sample_digest(tmp_path, None)


@pytest.mark.parametrize(
    "base, fmt", [("sample", "csv"), ("forty", "csv"), ("sample", "markdown"), ("forty", "json")]
)
def test_compare_bad_rows_digest_in_small_blocks(tmp_path, catalogs, base, fmt, small_block):
    test_compare_bad_rows_digest(tmp_path, catalogs, base, fmt, None)


@pytest.mark.parametrize("rows", [14, 40])
def test_compare_escaped_names_json_digest_in_small_blocks(tmp_path, rows, small_block):
    test_compare_escaped_names_json_digest(tmp_path, rows, None)


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_optimize_escaped_names_digest_in_small_blocks(tmp_path, fmt, small_block):
    test_optimize_escaped_names_digest(tmp_path, fmt)


@pytest.mark.parametrize("command", NO_ROWS_COMMANDS, ids=NO_ROWS_IDS)
def test_no_rows_digest_in_small_blocks(tmp_path, command, small_block):
    test_no_rows_digest(tmp_path, command)


# --- the same digests with the products run in small chunks -------------------
# With 5 products a chunk, the bad rows (catalog indices 3 to 5) fall on both
# sides of a chunk boundary; with LOCKSTEP_MIN_PRODUCTS, the 300-row catalog
# ends in a short chunk; with 1, every product is a chunk.  Each compare digest
# is checked on both training paths, which then run chunk by chunk.


@pytest.fixture(params=[1, 5, qlearn.LOCKSTEP_MIN_PRODUCTS], ids=["chunk-1", "chunk-5", "chunk-lockstep-min"])
def small_chunk(request, monkeypatch):
    monkeypatch.setattr(experiment, "_CHUNK", request.param)


@pytest.mark.parametrize("catalog, setting, fmt", list(OPTIMIZE_GOLDEN))
def test_optimize_digest_in_small_chunks(tmp_path, catalogs, catalog, setting, fmt, small_chunk):
    test_optimize_digest(tmp_path, catalogs, catalog, setting, fmt)


@pytest.mark.parametrize("fmt", list(COMPARE_GOLDEN))
def test_compare_digest_in_small_chunks(tmp_path, catalogs, fmt, small_chunk, kernel):
    test_compare_digest(tmp_path, catalogs, fmt, kernel)
    test_compare_markdown_digest(tmp_path, catalogs, kernel)
    test_compare_floor_digest(tmp_path, catalogs, kernel)


@pytest.mark.parametrize("steps", list(STEPS))
def test_compare_long_decay_digest_in_small_chunks(tmp_path, steps, small_chunk, kernel):
    test_compare_long_decay_digest(tmp_path, steps, kernel)


def test_compare_sample_digest_in_small_chunks(tmp_path, small_chunk, kernel):
    test_compare_sample_digest(tmp_path, kernel)


@pytest.mark.parametrize(
    "base, fmt", [("sample", "csv"), ("forty", "csv"), ("sample", "markdown"), ("forty", "json")]
)
def test_compare_bad_rows_digest_in_small_chunks(tmp_path, catalogs, base, fmt, small_chunk, kernel):
    test_compare_bad_rows_digest(tmp_path, catalogs, base, fmt, kernel)


@pytest.mark.parametrize("rows", [14, 40])
def test_compare_escaped_names_json_digest_in_small_chunks(tmp_path, rows, small_chunk, kernel):
    test_compare_escaped_names_json_digest(tmp_path, rows, kernel)


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_optimize_escaped_names_digest_in_small_chunks(tmp_path, fmt, small_chunk):
    test_optimize_escaped_names_digest(tmp_path, fmt)


@pytest.mark.parametrize("command", NO_ROWS_COMMANDS[:3] + NO_ROWS_COMMANDS[4:], ids=NO_ROWS_IDS[:3] + NO_ROWS_IDS[4:])
def test_no_rows_digest_in_small_chunks(tmp_path, command, small_chunk):
    test_no_rows_digest(tmp_path, command)
