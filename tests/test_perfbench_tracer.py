"""The traced benchmark (`perfbench/tracer.py`) wraps functions of `hks` by
name from outside the package and reads their arguments and results.
Installing and uninstalling it against the current sources must succeed and
leave every name as it was, and a traced run must yield well-nested spans
and the layer counts the run implies, so a renamed or removed traced
function, attribute or argument fails here instead of in every traced
repetition."""
import importlib
import sys
from pathlib import Path

import pytest

import hks.cli  # noqa: F401  (loads every module the tracer patches)
from hks.data import synth_train_and_test
from hks.federation import FederationConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def hks_bindings():
    """Every module-level name and class attribute of the loaded hks modules."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hks" or mod_name.startswith("hks.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_install_then_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = hks_bindings()
    installed = tracer.Tracer().install()
    try:
        during = hks_bindings()
    finally:
        installed.uninstall()
    after = hks_bindings()

    patched = {key for key, value in during.items() if value is not before.get(key)}
    # the round engine calls every traced teacher builder and layer by name
    for name in (
        "fetch_teacher", "feddistill_teacher", "fedcache_teacher", "build_hierarchy",
        "client_train", "train_step",
    ):
        assert ("hks.federation", name) in patched, name
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("method", ["hks", "fedcache", "fedavg"])
def test_traced_run_yields_nested_spans_and_the_layer_counts_it_implies(method, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    train, test = synth_train_and_test(3, 40, 6, 0.3, seed=0, test_per_class=10)
    cfg = FederationConfig(
        method=method, n_clients=3, rounds=5, warmup_rounds=2, alpha_dir=1000.0, R=2, seed=0
    )
    tracer = tracer_module.Tracer().install()
    try:
        result = run_experiment(cfg, train, test)
    finally:
        tracer.uninstall()
    cache = result.state.cache
    assert tracer_module.check_spans(tracer.spans) == []
    metrics = tracer_module.layer_metrics(tracer.spans, cache.label_reads)
    assert metrics["models.train_step_calls"] > 0
    # each stacked step runs inside the client phase of its tier and names
    # that tier, which the per-tier step times are summed under
    for span in tracer.spans:
        if span[2] == "models.train_step":
            assert span[5]["tier"] in ("small", "medium", "large"), span[5]
            parents = []
            while span[1] is not None:
                span = tracer.spans[span[1]]
                parents.append(span[2])
            assert "federation.client_train" in parents
    if method == "hks":
        assert metrics["hierarchy.n_leaves"] == len(cache)
        assert metrics["hierarchy.build_calls"] == cfg.rounds - cfg.warmup_rounds - 1
        assert metrics["hnsw.insert_calls"] == metrics["hnsw.query_calls"] == 0
    elif method == "fedcache":
        assert metrics["hierarchy.build_calls"] == 0
        # the neighbour search is exact: no index, one label read per row
        assert metrics["hnsw.insert_calls"] == metrics["hnsw.query_calls"] == 0
        assert metrics["cache.label_reads"] == len(cache)
    else:
        assert metrics["hierarchy.build_calls"] == metrics["teachers.fetch_calls"] == 0
        assert metrics["models.fedavg_aggregate_s"] > 0
