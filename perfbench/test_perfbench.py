"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import functools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_program()

TINY = workloads.Scale(wide_products=12, wide_episodes=5, dirty_rows=300, curve_samples=5,
                       sample_episodes=20)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str, trace: bool) -> dict:
    return run.run(name, seed=7, seconds=0.1, trace=trace, scale=TINY)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    doc = _tiny(name, trace)
    result = doc["result"]
    assert result["correct"], doc["verification"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert doc["verification"]["digest"] == "unverified"
    assert doc["manifest"]["kernel"] in ("python", "numba")
    assert doc["manifest"]["workload_seed"] == 7


def test_traced_run_shows_what_each_workload_exercises():
    sample = _tiny("sample-compare", True)["result"]["metrics"]
    baselines = _tiny("catalog-baselines", True)["result"]["metrics"]
    assert sample["kernels.train_kernel_s"]["value"] > 0
    assert sample["qlearn.q_updates"]["value"] == 14 * 20 * 7
    assert baselines["kernels.train_kernel_s"]["value"] == 0
    assert baselines["catalog.rows"]["value"] == 3 * TINY.dirty_rows
    assert baselines["catalog.rejected"]["value"] == 3 * 15


def test_output_that_differs_from_the_reference_digest_fails():
    cmd = workloads.build("sample-compare", 0, run.OUT / "work" / "test").commands[0]
    verifier = run.Verifier({"compare": "0" * 64})
    verifier.check(cmd, 0, b"product,day\n")
    assert verifier.failed == 1 and verifier.error_ratio == 1.0


def test_corrupted_output_counts_as_error_and_fails_the_run(monkeypatch, capsys):
    def corrupt(path):  # drops the last line, as a writer that died would
        data = path.read_bytes()
        return data[: data.rstrip(b"\n").rfind(b"\n") + 1]

    monkeypatch.setattr(run, "read_output", corrupt)
    doc = _tiny("catalog-baselines", False)
    assert not doc["result"]["correct"]
    assert doc["verification"]["error_ratio"] > 0
    assert doc["result"]["metrics"]["success_ratio"]["value"] < 1

    reference = run.load_reference()["canonical_qtables"]
    monkeypatch.setattr(run, "canonical_qtables_digest", lambda: reference)
    monkeypatch.setattr(run, "run", functools.partial(run.run, scale=TINY))
    code = run.main(["--workload", "sample-compare", "--seed", "3", "--seconds", "0.1"])
    assert code != 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_dirty_catalog_hits_every_reason_at_a_fixed_share():
    from pricelab.catalog import parse_catalog

    text, planned, names = workloads.dirty_catalog(5, 1000)
    specs, report = parse_catalog(text)
    seen = collections.Counter(o.reason.value for o in report.rejections)
    assert seen == planned == {reason: 10 for reason in workloads.REASONS}
    assert [s.name for s in specs] == names
    assert workloads.dirty_catalog(5, 1000)[0] == text
    assert workloads.dirty_catalog(6, 1000)[0] != text


def test_missing_trace_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("pricelab.rng", "gone", "rng.gone"),))
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["pricelab.rng.gone"]
    finally:
        tracer.uninstall()


def test_self_time_subtracts_children_and_uses_cpu_time_on_pool_threads():
    main, pool = 1, 2
    spans = [  # run, span, parent, name, thread, start, end, cpu_start, cpu_end
        (1, 1, None, "cli.main", main, 0.0, 10.0, 0.0, 1.0),
        (1, 2, 1, "experiment.run_experiment", main, 1.0, 9.0, 0.2, 0.3),
        (1, 3, 2, "qlearn.train", pool, 2.0, 8.0, 0.0, 5.0),
        (1, 4, 3, "kernels.train_kernel", pool, 3.0, 7.0, 1.0, 4.5),
    ]
    m = tracing.layer_metrics(spans, {"qlearn.q_updates": 7.0}, main)
    assert m["cli.self_s"] == 2.0
    assert m["experiment.self_s"] == 3.0
    assert m["qlearn.train_s"] == 5.0
    assert m["qlearn.train_self_s"] == 1.5
    assert m["kernels.updates_per_s"] == 2.0
    assert m["rng.split_seed_s"] == 0.0


def test_compare_refuses_results_from_different_kernels(capsys):
    tmp_path = run.OUT / "test-compare"
    tmp_path.mkdir(parents=True, exist_ok=True)
    base = {"workload": "w", "trace": 0, "manifest": {"kernel": "python"},
            "result": {"metrics": {"run_s": {"value": 2.0, "unit": "s"}}}}
    same = json.loads(json.dumps(base))
    other = json.loads(json.dumps(base))
    other["manifest"]["kernel"] = "numba"
    paths = []
    for i, doc in enumerate((base, same, other)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare.main([str(paths[0]), str(paths[1])]) == 0
    assert compare.main([str(paths[0]), str(paths[2])]) == 2
    assert "different kernels" in capsys.readouterr().err
