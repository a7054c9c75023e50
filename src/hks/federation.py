"""Round engine: warm-up, a server phase that builds each round's teacher
tables, local training against them, logit upload, and method dispatch.

A round has three phases. The server phase (`teacher_tables`) builds every
structure the round's teachers read from the cache as the previous round's
barrier left it: hks clusters it into this round's tree, which is never kept,
and fedcache queries its neighbour rows once. The client phase trains one
capacity tier at a time, all of the tier's clients in lockstep as one stack
of models. Clients are independent, and each keeps its own batch order, RNG
stream and teacher rows, so every client ends the phase as it would training
alone, bit for bit. A single barrier then checks every client in client-id
order and applies the buffered uploads and, for fedavg, the averaging.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import (
    ClientShard,
    Dataset,
    PartitionSpec,
    dirichlet_partition,
    epoch_order,
    split_local_test,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyDatasetError,
    InvalidInputError,
)
from .knowledge import (
    Granularity,
    HnswIndex,
    KnowledgeCache,
    RandomProjectionEncoder,
    build_hierarchy,
    fedcache_neighbors,
    fedcache_teacher,
    feddistill_teacher,
    fetch_teacher,
)
from .metrics import ExperimentSummary, RoundReport, evaluate, summarize
from .models import (
    CapacityTier,
    Model,
    ModelStack,
    aggregate_weights,
    build_model,
    fedavg_aggregate,
    train_step,
)
from .numerics import KdConfig, LossBreakdown, TeacherTable, teacher_table

Array = np.ndarray


class Method(str, Enum):
    LOCAL_ONLY = "local_only"
    FEDAVG = "fedavg"
    FEDDISTILL = "feddistill"
    FEDCACHE = "fedcache"
    HKS = "hks"


LOGIT_METHODS = frozenset({Method.FEDDISTILL, Method.FEDCACHE, Method.HKS})

# Seed-stream tags; every derived stream is keyed by (seed, tag, ...).
_TAG_PARTITION = 1
_TAG_LOCAL_SPLIT = 2
_TAG_MODEL_INIT = 3
_TAG_ENCODER = 4
_TAG_HNSW = 5
_TAG_DATA = 6


def child_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from nonnegative integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass
class FederationConfig:
    method: Method = Method.HKS
    granularity: Granularity = Granularity.ALL
    n_clients: int = 20
    rounds: int = 18
    local_epochs: int = 1
    # None resolves to min(10, rounds): ten warm-up rounds at the reference
    # scale, never more than the run itself.
    warmup_rounds: int | None = None
    lr: float = 0.01
    batch_size: int = 8
    kd: KdConfig = field(default_factory=KdConfig)
    R: int = 4
    alpha_dir: float = 1.0
    seed: int = 0
    exclude_self: bool = True
    test_fraction: float = 0.2
    # None resolves to 2 * batch_size: every client can fill two batches.
    min_per_client: int | None = None
    fedavg_tier: CapacityTier = CapacityTier.SMALL
    d_hash: int = 32
    hnsw_m: int = 16
    hnsw_ef_construction: int = 200
    hnsw_ef_search: int = 64
    linkage: str = "average"
    cluster_space: str = "logits"

    def __post_init__(self) -> None:
        enums = (("method", Method), ("granularity", Granularity), ("fedavg_tier", CapacityTier))
        for key, kind in enums:
            try:
                setattr(self, key, kind(getattr(self, key)))
            except ValueError:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}") from None
        if self.warmup_rounds is None:
            self.warmup_rounds = min(10, self.rounds)
        if self.min_per_client is None:
            self.min_per_client = 2 * self.batch_size

    def validate(self) -> None:
        # chained comparisons are False for NaN, so they reject it too
        checks = [
            ("n_clients", self.n_clients >= 1),
            ("rounds", self.rounds >= 0),
            ("local_epochs", self.local_epochs >= 1),
            ("warmup_rounds", 0 <= self.warmup_rounds <= self.rounds),
            ("lr", 0 < self.lr < math.inf),
            ("batch_size", self.batch_size >= 1),
            ("R", self.R >= 1),
            ("alpha_dir", 0 < self.alpha_dir < math.inf),
            ("seed", self.seed >= 0),
            ("test_fraction", 0 < self.test_fraction < 1),
            ("min_per_client", self.min_per_client >= 0),
            ("d_hash", self.d_hash >= 1),
            ("hnsw_m", self.hnsw_m >= 2),
            ("hnsw_ef_construction", self.hnsw_ef_construction >= 1),
            ("hnsw_ef_search", self.hnsw_ef_search >= 1),
            ("linkage", self.linkage in ("average", "single", "complete")),
            ("cluster_space", self.cluster_space in ("logits", "soft")),
        ]
        for key, ok in checks:
            if not ok:
                raise ConfigError(f"constraint violation on '{key}' (got {getattr(self, key)!r})")


@dataclass
class ClientState:
    client_id: int
    tier: CapacityTier
    model: Model
    shard: ClientShard


@dataclass
class FederationState:
    config: FederationConfig
    clients: list[ClientState]
    cache: KnowledgeCache
    # Only fedcache reads the hash index; every other method leaves it None.
    index: HnswIndex | None
    n_classes: int
    global_test: Dataset
    # fedcache's (n, R) neighbour rows, queried once at the first distilling
    # round in which every cached row holds logits. From then on they cannot
    # change: hashes and labels are fixed at init.
    neighbors: Array | None = None
    round: int = 0


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    summary: ExperimentSummary
    state: FederationState


def init_federation(
    cfg: FederationConfig, dataset: Dataset, global_test: Dataset
) -> FederationState:
    """Partition data, build tiered clients and the knowledge cache; fedcache
    also hashes and indexes every training sample."""
    cfg.validate()
    if global_test is None or len(global_test) == 0:
        raise ConfigError("a nonempty global test set is required to report rounds")
    spec = PartitionSpec(
        n_clients=cfg.n_clients,
        alpha_dir=cfg.alpha_dir,
        seed=child_seed(cfg.seed, _TAG_PARTITION),
        min_per_client=cfg.min_per_client,
    )
    parts = dirichlet_partition(dataset, spec)
    clients: list[ClientState] = []
    for k in range(cfg.n_clients):
        shard = split_local_test(
            parts[k],
            dataset,
            cfg.test_fraction,
            child_seed(cfg.seed, _TAG_LOCAL_SPLIT, k),
            client_id=k,
        )
        if len(shard.local_test) == 0:
            raise EmptyDatasetError(
                f"client {k} has no local test samples, so its local accuracy is undefined"
            )
        tier = cfg.fedavg_tier if cfg.method is Method.FEDAVG else CapacityTier.for_client(k)
        model = build_model(
            tier, dataset.input_dim, dataset.n_classes, child_seed(cfg.seed, _TAG_MODEL_INIT, k)
        )
        clients.append(ClientState(k, tier, model, shard))
    trains = [c.shard.train for c in clients]
    labels = hashes = index = None
    if cfg.method in (Method.FEDDISTILL, Method.FEDCACHE):
        labels = np.concatenate([train.labels for train in trains])
    if cfg.method is Method.FEDCACHE:
        encoder = RandomProjectionEncoder(
            dataset.input_dim, cfg.d_hash, child_seed(cfg.seed, _TAG_ENCODER)
        )
        hashes = np.concatenate([encoder.encode_rows(train.features) for train in trains])
        index = HnswIndex(
            cfg.d_hash,
            m=cfg.hnsw_m,
            ef_construction=cfg.hnsw_ef_construction,
            ef_search=cfg.hnsw_ef_search,
            seed=child_seed(cfg.seed, _TAG_HNSW),
        )
        for h in hashes:
            index.insert(h)
    cache = KnowledgeCache(
        [len(train) for train in trains], dataset.n_classes, labels=labels, hashes=hashes
    )
    return FederationState(
        config=cfg,
        clients=clients,
        cache=cache,
        index=index,
        n_classes=dataset.n_classes,
        global_test=global_test,
    )


def teacher_tables(state: FederationState, round_index: int) -> list[TeacherTable | None]:
    """The server phase: each client's teacher table for a round's client
    phase; None entries when the round does not distill.

    Uploads apply only at the barrier, so every teacher is fixed for the
    whole round and the tables are built once, before any client trains,
    from the cache as the previous round left it.
    """
    cfg = state.config
    no_teachers = [None] * len(state.clients)
    if cfg.method not in LOGIT_METHODS or round_index < cfg.warmup_rounds:
        return no_teachers
    if cfg.method is Method.HKS:
        # The first tree clusters round W's uploads, so the round-W client
        # phase still trains on cross-entropy alone.
        if round_index == cfg.warmup_rounds:
            return no_teachers
        tree = build_hierarchy(
            state.cache,
            state.n_classes,
            linkage=cfg.linkage,
            space=cfg.cluster_space,
            temperature=cfg.kd.temperature,
        )
        blocks = fetch_teacher(state.cache, tree, cfg.granularity, cfg.exclude_self)
    elif cfg.method is Method.FEDDISTILL:
        blocks = feddistill_teacher(state.cache)
    else:
        if state.neighbors is None and (state.cache.updated_round >= 0).all():
            state.neighbors = fedcache_neighbors(state.cache, state.index, cfg.R)
        if state.neighbors is None:
            return no_teachers
        blocks = fedcache_teacher(state.cache, state.neighbors)
    return [teacher_table(logits, mask, cfg.kd.temperature) for logits, mask in blocks]


def lockstep_stacks(sizes: Array, batch_size: int) -> list[tuple[int, int, int, int]]:
    """The steps of one epoch of lockstep training over shards of nonincreasing
    `sizes`, as (position, first row, end row, batch size).

    Each shard is cut into batches in its own order; a step at a position
    stacks the rows whose batch there has one size. Rows with a full batch
    come first and each short size forms the next block, because the sizes
    do not increase.
    """
    steps = []
    for start in range(0, int(sizes[0]), batch_size):
        widths = np.minimum(sizes - start, batch_size)
        row = 0
        while row < len(widths) and widths[row] > 0:
            end = row + int(np.count_nonzero(widths[row:] == widths[row]))
            steps.append((start, row, end, int(widths[row])))
            row = end
    return steps


def client_train(
    clients: list[ClientState],
    state: FederationState,
    round_index: int,
    tables: list[TeacherTable | None],
) -> list[tuple[ClientState, LossBreakdown, Array]]:
    """The client phase of one capacity tier: local epochs on seeded batches,
    every client of the tier stepped in lockstep as one `ModelStack`; without
    teacher tables (warm-up rounds) training is pure cross-entropy.

    Stack row r holds the r-th largest shard (ties in the given order), so
    every step of `lockstep_stacks` trains one block of rows. Each client
    keeps its own batch order, teacher rows and loss sums, and a stacked step
    computes each model as a step of that model alone would, so every client
    ends as it would training by itself.

    Returns, per client in the given order, the trained client, its
    sample-weighted mean loss breakdown, and the last forward logits of every
    training sample for upload, (n_k, C) in local index order.
    """
    cfg = state.config
    sizes = [len(c.shard.train) for c in clients]
    order = sorted(range(len(clients)), key=lambda k: -sizes[k])
    trains = [clients[k].shard.train for k in order]
    row_sizes = np.array([sizes[k] for k in order])
    # row r's samples are rows offsets[r]:offsets[r + 1] of the tier's arrays
    offsets = np.concatenate([[0], np.cumsum(row_sizes)])
    features = np.concatenate([train.features for train in trains])
    labels = np.concatenate([train.labels for train in trains])
    teachers = None
    if tables[0] is not None:
        teachers = TeacherTable(
            *(np.concatenate([getattr(tables[k], f) for k in order]) for f in ("q", "h", "has"))
        )
    first = clients[order[0]].model
    stack = ModelStack(
        first.architecture_id, first.layer_dims, np.stack([clients[k].model.params for k in order])
    )
    logits = np.empty((len(labels), state.n_classes))
    ce_sum = np.zeros(len(order))
    kd_sum = np.zeros(len(order))
    steps = lockstep_stacks(row_sizes, cfg.batch_size)
    for e in range(cfg.local_epochs):
        epoch_key = round_index * cfg.local_epochs + e
        # sample_order[r, j] is the tier-array row of row r's j-th sample this epoch
        sample_order = np.zeros((len(order), row_sizes[0]), dtype=np.intp)
        for r, k in enumerate(order):
            shuffled = epoch_order(clients[k].shard, cfg.seed, epoch_key)
            sample_order[r, : row_sizes[r]] = offsets[r] + shuffled
        for start, a, b, width in steps:
            idx = sample_order[a:b, start : start + width]
            batch_teachers = None if teachers is None else teachers.take(idx)
            bd, Z = train_step(
                replace(stack, params=stack.params[a:b]),
                features[idx], labels[idx], batch_teachers, cfg.kd, cfg.lr,
            )
            logits[idx] = Z
            ce_sum[a:b] += bd.ce * width
            kd_sum[a:b] += bd.kd * width
    results: list = [None] * len(clients)
    for r, k in enumerate(order):
        n_samples = row_sizes[r] * cfg.local_epochs
        ce = float(ce_sum[r] / n_samples)
        kd = float(kd_sum[r] / n_samples)
        breakdown = LossBreakdown(ce=ce, kd=kd, total=ce + cfg.kd.alpha_kd * kd)
        model = replace(clients[k].model, params=stack.params[r].copy())
        upload = logits[offsets[r] : offsets[r + 1]]
        results[k] = (replace(clients[k], model=model), breakdown, upload)
    return results


def run_round(state: FederationState) -> RoundReport:
    """One communication round: server phase, client phase, barrier, report."""
    cfg = state.config
    t = state.round
    if t >= cfg.rounds:
        raise InvalidInputError(f"round {t} exceeds configured rounds {cfg.rounds}")

    tables = teacher_tables(state, t)
    results: list = [None] * len(state.clients)
    for tier in CapacityTier:
        members = [i for i, c in enumerate(state.clients) if c.tier is tier]
        if members:
            trained = client_train(
                [state.clients[i] for i in members], state, t, [tables[i] for i in members]
            )
            for i, out in zip(members, trained):
                results[i] = out

    # One check per client and round keeps the steps free of it; in client-id
    # order, so a divergent run names its lowest diverged client. Only the
    # logit methods upload their logits.
    uploads: list[tuple[int, Array]] = []
    breakdowns: list[LossBreakdown] = []
    for i, (trained, bd, logits) in enumerate(results):
        where = f"client {trained.client_id} in round {t}"
        if not np.isfinite(trained.model.params).all():
            raise DivergenceError(f"training diverged: non-finite parameters at {where}")
        if cfg.method in LOGIT_METHODS and not np.isfinite(logits).all():
            raise DivergenceError(f"training diverged: non-finite logits at {where}")
        state.clients[i] = trained
        breakdowns.append(bd)
        uploads.append((trained.client_id, logits))

    if cfg.method in LOGIT_METHODS:
        for client_id, logits in uploads:
            state.cache.update_logits(client_id, logits, t)

    if cfg.method is Method.FEDAVG:
        weights = aggregate_weights([len(c.shard.train) for c in state.clients])
        merged = fedavg_aggregate([c.model for c in state.clients], weights)
        for i, client in enumerate(state.clients):
            state.clients[i] = replace(
                client, model=replace(merged, params=merged.params.copy(), seed=client.model.seed)
            )

    local_acc = np.array([evaluate(c.model, c.shard.local_test) for c in state.clients])
    global_acc = np.array([evaluate(c.model, state.global_test) for c in state.clients])
    report = RoundReport(
        round=t,
        per_client_local_acc=local_acc,
        global_acc_per_client=global_acc,
        mean_ce=float(np.mean([b.ce for b in breakdowns])),
        mean_kd=float(np.mean([b.kd for b in breakdowns])),
        hierarchy_built=cfg.method is Method.HKS and tables[0] is not None,
    )
    state.round = t + 1
    return report


def run_experiment(
    cfg: FederationConfig, dataset: Dataset, global_test: Dataset
) -> ExperimentResult:
    """Initialize and run all configured rounds, then summarize."""
    state = init_federation(cfg, dataset, global_test)
    reports = [run_round(state) for _ in range(cfg.rounds)]
    return ExperimentResult(reports=reports, summary=summarize(reports), state=state)
