"""The benchmark's workloads: a synthetic dataset plus a federation config.

Each workload is one closed-loop simulation: one process generates the data,
initialises the federation, runs every round to completion and writes the
run outputs. This module holds plain data so `run.py` can list and
validate workloads without importing the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (n_classes, per_class, input_dim, spread), as `hks run --synthetic`.
    synthetic: tuple[int, int, int, float]
    # FederationConfig keyword arguments; the seed is added per run.
    federation: dict


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hks-scaled",
            "server-heavy: 8 hierarchy rebuilds over ~2.4k cached logits and KD steps "
            "with per-sample path teachers; the HNSW index is built but never read",
            (10, 300, 32, 0.3),
            dict(method="hks", granularity="all", n_clients=20, rounds=12, warmup_rounds=4),
        ),
        Workload(
            "fedcache-ref",
            "index-read heavy: thousands of label-filtered HNSW queries and no "
            "hierarchy; the only workload that reads the index",
            (4, 200, 16, 0.3),
            dict(method="fedcache", R=4, n_clients=10, rounds=18, alpha_dir=0.5),
        ),
        Workload(
            "fedavg-scaled",
            "no knowledge reads: teacher-free train steps and parameter averaging; "
            "setup still pays for the unused HNSW build",
            (10, 300, 32, 0.3),
            dict(
                method="fedavg",
                fedavg_tier="small",
                n_clients=20,
                rounds=24,
                local_epochs=4,
            ),
        ),
    )
}
