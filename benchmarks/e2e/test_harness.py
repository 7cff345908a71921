"""Checks of the benchmark harness itself.

Run explicitly (tier-1's ``testpaths`` does not collect this file)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from catalogue import END_TO_END, PER_LAYER  # noqa: E402
from generate import SPECS, make_workload  # noqa: E402
from spans import self_time_by_name_us, self_times_us  # noqa: E402


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert run.percentile(values, 0) == 10.0
    assert run.percentile(values, 50) == 30.0
    assert run.percentile(values, 100) == 50.0
    assert run.percentile(values, 95) == pytest.approx(48.0)
    assert run.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def span(id, name, parent, start, end, **extra):
    return {"id": id, "name": name, "request": 0, "parent": parent,
            "start_us": start, "end_us": end, **extra}


def test_self_time_is_span_minus_what_children_cover():
    spans = [
        span(0, "request", None, 0.0, 100.0),
        span(1, "parse", 0, 0.0, 10.0),
        span(2, "algorithm", 0, 10.0, 90.0),
        # Aggregated child: 1000 short calls, 30 us inside them in total.
        span(3, "lm", 2, 12.0, 88.0, busy_us=30.0, calls=1000),
        span(4, "rm", 2, 13.0, 89.0, busy_us=20.0, calls=1000),
        # A child that overhangs its parent is clipped to it.
        span(5, "render", 0, 95.0, 120.0),
    ]
    selfs = self_times_us(spans)
    assert selfs[0] == pytest.approx(100.0 - 10.0 - 80.0 - 5.0)
    assert selfs[2] == pytest.approx(80.0 - 30.0 - 20.0)
    assert selfs[3] == pytest.approx(30.0)
    assert selfs[5] == pytest.approx(25.0)
    assert self_time_by_name_us(spans)["algorithm"] == pytest.approx(30.0)


def test_storage_increase_counts_a_restarted_counter_whole():
    def sample(generation, decodes, hits):
        return {"generation": generation, "storage": {
            "segments": {"decodes": decodes, "decode_ms": 0.0, "local_hits": 0},
            "buffer_pool": {"hits": hits, "misses": 0},
            "pager": None, "bptree": {},
        }}

    grown = run.storage_increase([sample(0, 100, 5), sample(0, 160, 9), sample(1, 300, 12)])
    # 60 in generation 0, then a reader that restarted from zero reached 300.
    assert grown["segments"]["decodes"] == 360
    # The buffer pool's counters survive a refresh.
    assert grown["buffer_pool"]["hits"] == 7


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_is_deterministic_for_a_fixed_seed(name):
    first = make_workload(name, 7, 1.0)
    again = make_workload(name, 7, 1.0)
    other = make_workload(name, 8, 1.0)
    for attribute in ("queries", "ops", "warmup", "batches", "lists", "xml_text"):
        assert getattr(first, attribute) == getattr(again, attribute)
    assert (first.ops, first.lists) != (other.ops, other.lists)
    assert first.expected_ids(first.ops[0][1]) == again.expected_ids(again.ops[0][1])


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(SPECS)
    wanted = {k: v for k, v in END_TO_END.items() if k != "error_rate"}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]} == wanted
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == PER_LAYER


def test_smoke_run_end_to_end(tmp_path):
    out = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == list(SPECS)
    for name, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, result["failures"])
        assert set(result["end_to_end"]) == set(END_TO_END)
        assert set(result["per_layer"]) == set(PER_LAYER)
        assert result["per_layer"]["trace.coverage"]["value"] >= 0.9
        assert os.path.exists(os.path.join(HERE, "out", f"trace-{name}.jsonl"))
    layers = {name: r["per_layer"] for name, r in document["workloads"].items()}
    assert layers["zipf_hot"]["xksearch.cache.hit_rate"]["value"] == 1.0
    assert layers["miss_skewed"]["core.model_ratio"]["value"] == 1.0
    assert layers["miss_balanced"]["core.model_ratio"]["value"] == 1.0
    assert layers["doc_update_mix"]["index.updates.stale_reads"]["value"] == 0
