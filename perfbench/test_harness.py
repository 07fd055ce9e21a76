"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kmspec.cli as kc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from workloads import Item, SetSpec  # noqa: E402


def small_free_item(tmp_path, points=("2",)):
    K = SetSpec(points=points)
    config = {"mode": "free-product", "K": K.to_config(), "k": 2,
              "range": "10", "tol": "1e-6", "grid_n": 401}
    return workloads._cli_item("fp-small", config, tmp_path / "configs", K)


def test_correct_items_pass(tmp_path):
    item = small_free_item(tmp_path)
    result = worker.run_passes([item], 0.0, tmp_path / "out")
    assert result["attempted"] == 2
    assert result["failures"] == []


def test_doctored_report_is_counted(tmp_path, monkeypatch):
    item = small_free_item(tmp_path)
    real_execute = kc.execute

    def doctored(config):
        artifacts, manifest = real_execute(config)
        report = json.loads(artifacts["report.json"])
        report["flat_intervals"].append(["7.0", "10.0"])
        artifacts["report.json"] = kc.canonical_json(report)
        return artifacts, manifest

    monkeypatch.setattr(kc, "execute", doctored)
    result = worker.run_passes([item], 0.0, tmp_path / "out")
    assert result["attempted"] == 2
    assert len(result["failures"]) == 2
    assert all("spurious members" in reason for _, _, reason in result["failures"])


def test_dropped_point_is_counted(tmp_path, monkeypatch):
    item = small_free_item(tmp_path, points=("2.013", "-3.117"))
    real_execute = kc.execute

    def doctored(config):
        artifacts, manifest = real_execute(config)
        report = json.loads(artifacts["report.json"])
        report["isolated_roots"] = report["isolated_roots"][:1]
        assert float(report["isolated_roots"][0]) < 0.0
        artifacts["report.json"] = kc.canonical_json(report)
        return artifacts, manifest

    monkeypatch.setattr(kc, "execute", doctored)
    result = worker.run_passes([item], 0.0, tmp_path / "out", min_passes=1)
    assert [reason for _, _, reason in result["failures"]] == [
        "point 2.013 of K is not reported"]


def test_raise_failed_check_and_nondeterminism_are_counted(tmp_path):
    calls = []

    def boom():
        raise RuntimeError("boom")

    def flaky():
        calls.append(1)
        return {"passed": True, "value": len(calls)}

    items = [Item(name="raises", check=boom),
             Item(name="fails", check=lambda: {"passed": False}),
             Item(name="flaky", check=flaky),
             Item(name="fine", check=lambda: {"passed": True})]
    result = worker.run_passes(items, 0.0, tmp_path / "out")
    assert result["attempted"] == 8
    reasons = {(p, name): reason for p, name, reason in result["failures"]}
    assert set(reasons) == {(0, "raises"), (1, "raises"), (0, "fails"),
                            (1, "fails"), (1, "flaky")}
    assert reasons[(0, "raises")] == "raised RuntimeError: boom"
    assert "earlier repetition" in reasons[(1, "flaky")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    def inputs(seed, sub):
        items = workloads.build_items(workload, seed, tmp_path / sub)
        return [(i.name, i.config, i.K) for i in items]

    assert inputs(3, "a") == inputs(3, "b")
    if workload.startswith("free-product"):
        assert inputs(3, "a") != inputs(4, "c")


def test_free_product_strata():
    for seed in range(20):
        sets = workloads.free_product_sets(seed, workloads.FREE_STRATA,
                                              workloads.FREE_REACH)
        for K, (lo, hi) in zip(sets, workloads.FREE_STRATA):
            d0 = float(K.distance(np.zeros(1))[0])
            assert lo - 5e-4 <= d0 <= hi + 5e-4
            kc.ClosedSetSpec.from_config(K.to_config())


def test_traced_self_times_within_wall(tmp_path):
    items = [small_free_item(tmp_path)]
    items += [i for i in workloads.build_items("oracles", 0, tmp_path / "o")
              if i.name in ("growth", "conformality")]
    tracer = spans.Tracer()
    result = worker.run_passes(items, 0.0, tmp_path / "out", tracer)
    assert result["failures"] == []
    (traced_wall,) = [w for traced, w in result["passes"] if traced]
    self_times = tracer.self_times()
    assert 0.0 < sum(self_times.values()) <= traced_wall
    assert self_times["cli"] > 0.0 and self_times["blocks.conformality"] > 0.0
    assert tracer.counts["blocks.conformality_checks"] == 10
    # wrappers are gone after the traced pass
    assert not hasattr(kc.execute, "__wrapped__")


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = spans.layer_metrics({}, {}, {}, 1, overhead=0.0)
    assert per_layer == {name: m["unit"] for name, m in printed.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS[:4])
