"""The tracer must not change what it measures, and its spans must nest.

    python3 -m pytest -q perfbench/tests

Runs small versions of the benchmark's workloads in-process, untraced and
traced, through the same code path as a benchmark repetition.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from rep import run  # noqa: E402
from tracer import LAYER_UNITS, Tracer, check_spans, layer_metrics  # noqa: E402
from workloads import Workload  # noqa: E402

SMALL = {
    "hks": Workload("small-hks", "", (3, 40, 8, 0.3),
                    dict(method="hks", n_clients=4, rounds=4, warmup_rounds=2)),
    "fedcache": Workload("small-fedcache", "", (3, 40, 8, 0.3),
                         dict(method="fedcache", R=2, n_clients=4, rounds=4, warmup_rounds=2,
                              alpha_dir=0.5)),
    "fedavg": Workload("small-fedavg", "", (3, 40, 8, 0.3),
                       dict(method="fedavg", n_clients=4, rounds=3, local_epochs=2)),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for method, spec in SMALL.items():
        base = tmp_path_factory.mktemp(method)
        out[method] = (
            run(spec, 3, base / "untraced", trace=False),
            run(spec, 3, base / "traced", trace=True),
            base,
        )
    return out


@pytest.mark.parametrize("method", sorted(SMALL))
def test_traced_rounds_csv_is_byte_identical(runs, method):
    untraced, traced, base = runs[method]
    assert untraced["problems"] == [] and traced["problems"] == []
    assert (base / "traced" / "rounds.csv").read_bytes() == (
        base / "untraced" / "rounds.csv"
    ).read_bytes()
    assert traced["rounds_csv_sha256"] == untraced["rounds_csv_sha256"]


def test_uninstall_restores_every_binding():
    import hks.federation as federation
    import hks.knowledge as knowledge
    import hks.models as models
    from hks.knowledge import hnsw

    before = (federation.train_step, knowledge.build_hierarchy, hnsw.HnswIndex.query)
    tracer = Tracer().install()
    assert federation.train_step is models.train_step
    assert federation.train_step.__wrapped__ is before[0]
    tracer.uninstall()
    assert (federation.train_step, knowledge.build_hierarchy, hnsw.HnswIndex.query) == before


def _spans(base: Path) -> list[list]:
    import json

    rows = [json.loads(line) for line in (base / "traced" / "spans.jsonl").read_text().splitlines()]
    return [[r["id"], r["parent"], r["name"], r["start"], r["end"], r["attrs"]] for r in rows]


@pytest.mark.parametrize("method", sorted(SMALL))
def test_spans_nest_and_self_times_are_nonnegative(runs, method):
    spans = _spans(runs[method][2])
    assert spans and check_spans(spans) == []
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + s[4] - s[3]
    for s in spans:
        assert s[4] - s[3] - child_time.get(s[0], 0.0) >= -1e-9
        if s[1] is not None:
            parent = spans[s[1]]
            assert parent[3] <= s[3] <= s[4] <= parent[4]


def test_check_spans_reports_escaping_and_overlapping_children():
    spans = [
        [0, None, "outer", 0.0, 1.0, None],
        [1, 0, "a", 0.5, 1.5, None],
        [2, 0, "b", 0.4, 0.6, None],
    ]
    problems = check_spans(spans)
    assert any("escapes" in p for p in problems)
    assert any("overlap" in p for p in problems)


def test_layer_counts_match_each_methods_knowledge_path(runs):
    hks_layers = runs["hks"][1]["layers"]
    fedcache_layers = runs["fedcache"][1]["layers"]
    fedavg_layers = runs["fedavg"][1]["layers"]
    for layers in (hks_layers, fedcache_layers, fedavg_layers):
        assert set(layers) | {"trace.overhead_s"} == set(LAYER_UNITS)
        assert layers["hnsw.insert_calls"] > 0
        assert layers["models.train_step_calls"] > 0
        assert layers["metrics.evaluate_calls"] > 0
    assert hks_layers["hierarchy.build_calls"] == 4 - 2  # rounds - warmup_rounds
    assert hks_layers["hnsw.query_calls"] == 0
    assert hks_layers["cache.label_reads"] == 0
    assert hks_layers["teachers.fetch_calls"] > 0
    assert fedcache_layers["hnsw.query_calls"] == fedcache_layers["teachers.fetch_calls"] > 0
    assert fedcache_layers["hierarchy.build_calls"] == 0
    assert fedcache_layers["cache.label_reads"] > 0
    assert fedavg_layers["hierarchy.build_calls"] == 0
    assert fedavg_layers["teachers.fetch_calls"] == 0
    assert fedavg_layers["hnsw.query_calls"] == 0
    assert fedavg_layers["models.fedavg_aggregate_s"] > 0


def test_layer_metrics_self_time_excludes_children():
    spans = [
        [0, None, "teachers.fetch", 0.0, 1.0, {"hit": True}],
        [1, 0, "hnsw.query", 0.2, 0.7, {"k": 4, "found": 3, "label_reads": 10}],
    ]
    layers = layer_metrics(spans, label_reads=0)
    assert layers["teachers.fetch_s"] == pytest.approx(0.5)
    assert layers["hnsw.query_s"] == pytest.approx(0.5)
    assert layers["hnsw.short_results"] == 1
    assert layers["hnsw.predicate_evals_per_query"] == 10
    assert layers["teachers.coverage"] == 1.0
