"""Out-of-program tracing: wrap each layer's public functions with spans.

The simulator is not modified. `Tracer.install` replaces every reference to a
traced function in the loaded `hks` modules (the home module plus every
module that re-exports it or bound it by name at import, such as
`hks.federation`) with a wrapper that records a span, then calls the
original. Methods are wrapped on their class. `uninstall` restores them all.

A span is `[span_id, parent_id, name, start, end, attrs]`; the parent is the
span that was open when the call started. Spans stay in memory until the run
ends.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

# Slack for float rounding when comparing summed child durations to a parent.
_EPS = 1e-9

# Per-layer metric -> unit. Every value is a total over one simulation
# unless the name says otherwise.
LAYER_UNITS = {
    "hnsw.insert_calls": "count",
    "hnsw.insert_s": "s",
    "hashing.encode_rows_s": "s",
    "data.partition_s": "s",
    "hnsw.query_calls": "count",
    "hnsw.query_s": "s",
    "hnsw.predicate_evals_per_query": "evals/query",
    "hnsw.short_results": "count",
    "hierarchy.build_calls": "count",
    "hierarchy.build_s": "s",
    "hierarchy.agglomerate_s": "s",
    "hierarchy.n_leaves": "count",
    "hierarchy.dist_matrix_bytes": "B",
    "teachers.fetch_calls": "count",
    "teachers.fetch_s": "s",
    "teachers.coverage": "fraction",
    "models.train_step_calls": "count",
    "models.train_step_s.small": "s",
    "models.train_step_s.medium": "s",
    "models.train_step_s.large": "s",
    "models.train_step_us_per_sample": "us",
    "models.fedavg_aggregate_s": "s",
    "cache.update_logits_calls": "count",
    "cache.update_logits_s": "s",
    "cache.label_reads": "count",
    "metrics.evaluate_calls": "count",
    "metrics.evaluate_s": "s",
    "federation.client_train_s": "s",
    "federation.round_self_s": "s",
    "federation.init_self_s": "s",
    "cli.write_outputs_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Reads the cache's public label counter; set once the cache exists.
        self.label_reads: Callable[[], int] = lambda: 0

    def wrap(self, fn, name: str, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after:
                rec[5] = after(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Wrap a module-level function under every name that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hks" or mod_name.startswith("hks.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def install(self) -> "Tracer":
        """Wrap the public boundary of every layer of `src/hks/`."""
        import hks.cli as cli
        import hks.data as data
        import hks.federation as federation
        import hks.metrics as metrics
        import hks.models as models
        from hks.knowledge import cache, hashing, hierarchy, hnsw, teachers

        tiers = {hidden: tier.value for tier, hidden in models.TIER_HIDDEN.items()}

        def train_step_attrs(args, kwargs, result, pre):
            model, X = args[0], args[1]
            return {"tier": tiers.get(model.layer_dims[1:-1], model.architecture_id), "rows": len(X)}

        def query_attrs(args, kwargs, result, pre):
            k = args[2] if len(args) > 2 else kwargs["k"]
            return {"k": k, "found": len(result), "label_reads": self.label_reads() - pre}

        self.patch_function(data, "synth_train_and_test", "data.synth_train_and_test")
        self.patch_function(data, "dirichlet_partition", "data.partition")
        self.patch_method(hashing.RandomProjectionEncoder, "encode_rows", "hashing.encode_rows")
        self.patch_method(hnsw.HnswIndex, "insert", "hnsw.insert")
        self.patch_method(
            hnsw.HnswIndex, "query", "hnsw.query",
            before=lambda a, k: self.label_reads(), after=query_attrs,
        )
        self.patch_method(cache.KnowledgeCache, "update_logits", "cache.update_logits")
        self.patch_function(
            hierarchy, "build_hierarchy", "hierarchy.build",
            after=lambda a, k, r, p: {"n_leaves": r.n_leaves},
        )
        self.patch_function(hierarchy, "agglomerate", "hierarchy.agglomerate")
        self.patch_function(
            teachers, "fetch_teacher", "teachers.fetch",
            after=lambda a, k, r, p: {"hit": bool(r)},
        )
        for attr in ("fedcache_teacher", "feddistill_teacher"):
            self.patch_function(
                teachers, attr, "teachers.fetch",
                after=lambda a, k, r, p: {"hit": r is not None},
            )
        self.patch_function(models, "train_step", "models.train_step", after=train_step_attrs)
        self.patch_function(models, "fedavg_aggregate", "models.fedavg_aggregate")
        self.patch_function(metrics, "evaluate", "metrics.evaluate")
        self.patch_function(federation, "init_federation", "federation.init")
        self.patch_function(federation, "client_train", "federation.client_train")
        self.patch_function(federation, "run_round", "federation.run_round")
        self.patch_function(cli, "write_run_outputs", "cli.write_outputs")
        return self


def check_spans(spans: list[list]) -> list[str]:
    """Problems with span structure: bad intervals, escaping or overlapping children."""
    problems = []
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        sid, parent, name, start, end = s[:5]
        if end is None or end < start:
            problems.append(f"span {sid} ({name}) has no valid end")
            continue
        if parent is not None:
            p = spans[parent]
            if start < p[3] or end > p[4]:
                problems.append(f"span {sid} ({name}) escapes parent {parent} ({p[2]})")
            children[parent].append(s)
    for parent, kids in children.items():
        p = spans[parent]
        kids.sort(key=lambda s: s[3])
        for a, b in zip(kids, kids[1:]):
            if b[3] < a[4]:
                problems.append(f"children {a[0]} and {b[0]} of span {parent} overlap")
        covered = sum(k[4] - k[3] for k in kids)
        if p[4] - p[3] - covered < -_EPS:
            problems.append(f"span {parent} ({p[2]}) has negative self time")
    return problems


def layer_metrics(spans: list[list], label_reads: int) -> dict[str, float]:
    """Per-layer counts and seconds for one traced simulation.

    `label_reads` is the cache's label counter at the end of the run; the
    overhead metric needs an untraced run and is added by the caller.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        duration = s[4] - s[3]
        total[s[2]] += duration
        self_time[s[2]] += duration
        calls[s[2]] += 1
        if s[1] is not None:
            self_time[spans[s[1]][2]] -= duration

    def attrs(name):
        return [s[5] for s in spans if s[2] == name]

    queries = attrs("hnsw.query")
    fetches = attrs("teachers.fetch")
    builds = attrs("hierarchy.build")
    rows = 0
    step_s: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[2] == "models.train_step":
            step_s[s[5]["tier"]] += s[4] - s[3]
            rows += s[5]["rows"]
    n_leaves = max((a["n_leaves"] for a in builds), default=0)

    return {
        "hnsw.insert_calls": calls["hnsw.insert"],
        "hnsw.insert_s": total["hnsw.insert"],
        "hashing.encode_rows_s": total["hashing.encode_rows"],
        "data.partition_s": total["data.partition"],
        "hnsw.query_calls": calls["hnsw.query"],
        "hnsw.query_s": total["hnsw.query"],
        "hnsw.predicate_evals_per_query": (
            statistics.fmean(a["label_reads"] for a in queries) if queries else 0.0
        ),
        "hnsw.short_results": sum(1 for a in queries if a["found"] < a["k"]),
        "hierarchy.build_calls": calls["hierarchy.build"],
        "hierarchy.build_s": total["hierarchy.build"],
        "hierarchy.agglomerate_s": total["hierarchy.agglomerate"],
        "hierarchy.n_leaves": n_leaves,
        "hierarchy.dist_matrix_bytes": 8 * n_leaves * n_leaves,
        "teachers.fetch_calls": calls["teachers.fetch"],
        "teachers.fetch_s": self_time["teachers.fetch"],
        "teachers.coverage": (
            sum(1 for a in fetches if a["hit"]) / len(fetches) if fetches else 0.0
        ),
        "models.train_step_calls": calls["models.train_step"],
        **{f"models.train_step_s.{tier}": step_s[tier] for tier in ("small", "medium", "large")},
        "models.train_step_us_per_sample": (
            1e6 * total["models.train_step"] / rows if rows else 0.0
        ),
        "models.fedavg_aggregate_s": total["models.fedavg_aggregate"],
        "cache.update_logits_calls": calls["cache.update_logits"],
        "cache.update_logits_s": total["cache.update_logits"],
        "cache.label_reads": label_reads,
        "metrics.evaluate_calls": calls["metrics.evaluate"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "federation.client_train_s": total["federation.client_train"],
        "federation.round_self_s": self_time["federation.run_round"],
        "federation.init_self_s": self_time["federation.init"],
        "cli.write_outputs_s": total["cli.write_outputs"],
    }
