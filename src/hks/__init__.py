"""Deterministic single-process federated learning simulator.

Clients share per-sample logits; the server organizes them into a bottom-up
cluster hierarchy and serves teacher knowledge at a chosen granularity,
alongside parameter-averaging and distillation baselines.
"""
from .data import ClientShard, Dataset, dirichlet_partition, load_idx, synth_blobs
from .federation import (
    ClientState,
    ExperimentResult,
    FederationConfig,
    FederationState,
    Method,
    init_federation,
    run_experiment,
    run_round,
)
from .knowledge import Granularity, KnowledgeCache
from .metrics import ExperimentSummary, RoundReport, evaluate, maua
from .models import CapacityTier, Model, build_model, fedavg_aggregate

__version__ = "0.1.0"

__all__ = [
    "ClientShard",
    "Dataset",
    "dirichlet_partition",
    "load_idx",
    "synth_blobs",
    "ClientState",
    "ExperimentResult",
    "FederationConfig",
    "FederationState",
    "Method",
    "init_federation",
    "run_experiment",
    "run_round",
    "Granularity",
    "KnowledgeCache",
    "ExperimentSummary",
    "RoundReport",
    "evaluate",
    "maua",
    "CapacityTier",
    "Model",
    "build_model",
    "fedavg_aggregate",
    "__version__",
]
