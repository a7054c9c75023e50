"""Accuracy evaluation and the two headline metrics.

MAUA is the maximum over rounds of the mean per-client local-test accuracy
(personalization); global accuracy is the mean over clients of accuracy on
the evenly distributed global test set (generalization). All functions are
read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import DivergenceError, EmptyDatasetError, InvalidInputError
from .models import Model, forward_batch

Array = np.ndarray


@dataclass(frozen=True)
class RoundReport:
    """Per-round metrics; accuracy vectors have one entry per client."""

    round: int
    per_client_local_acc: Array
    global_acc_per_client: Array
    mean_ce: float
    mean_kd: float
    hierarchy_built: bool

    def __post_init__(self) -> None:
        for name, v in (
            ("per_client_local_acc", self.per_client_local_acc),
            ("global_acc_per_client", self.global_acc_per_client),
        ):
            v = np.asarray(v)
            if v.size and (v.min() < 0.0 or v.max() > 1.0):
                raise InvalidInputError(f"{name} outside [0, 1]")

    @property
    def mean_local_acc(self) -> float:
        return float(np.mean(self.per_client_local_acc))

    @property
    def min_local_acc(self) -> float:
        return float(np.min(self.per_client_local_acc))

    @property
    def max_local_acc(self) -> float:
        return float(np.max(self.per_client_local_acc))

    @property
    def mean_global_acc(self) -> float:
        return float(np.mean(self.global_acc_per_client))


@dataclass(frozen=True)
class ExperimentSummary:
    """Headline numbers for one run, which has at least one round.

    The one record of a run's results: its fields are the keys of the run's
    summary.json (with wall_seconds) and the metrics of the comparison table,
    so a new metric is a new field.
    """

    maua: float
    best_global_acc: float
    final_global_acc: float


def evaluate(m: Model, ds: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties pick the lowest class.

    A model whose finite parameters give non-finite logits has diverged:
    DivergenceError, and no accuracy is read from them.
    """
    if len(ds) == 0:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward_batch(m, ds.features)
    if not np.isfinite(logits).all():
        raise DivergenceError("training diverged: non-finite logits on evaluation")
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == ds.labels))


def maua(per_round_acc: Sequence) -> float:
    """Max over rounds of the unweighted client mean of local accuracy, from
    one per-client accuracy vector per round."""
    if len(per_round_acc) == 0:
        raise InvalidInputError("MAUA is undefined without any round")
    return float(max(np.mean(row, dtype=np.float64) for row in per_round_acc))


def summarize(reports: Sequence[RoundReport]) -> ExperimentSummary:
    """The run's headline numbers; InvalidInputError without any round."""
    global_means = [r.mean_global_acc for r in reports]
    return ExperimentSummary(
        maua=maua([r.per_client_local_acc for r in reports]),
        best_global_acc=float(max(global_means)),
        final_global_acc=float(global_means[-1]),
    )
