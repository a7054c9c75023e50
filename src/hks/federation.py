"""Round engine: warm-up, a server phase that builds each round's teacher
table, local training against it, logit upload, and method dispatch.

A round has three phases. The server phase (`teacher_tables`) builds every
structure the round's teachers read from the cache as the previous round's
barrier left it, and changes no field of the state: hks clusters the cache
into this round's tree, which is never kept, and fedcache reads the
neighbour rows that init queried. The client phase trains one
capacity tier at a time, all of the tier's clients in lockstep as the one
stack of models that holds them for the whole run. Clients are independent,
and each keeps its own batch order, RNG stream and teacher rows, so every
client ends the phase as it would training alone, bit for bit. A single
barrier then checks every client in client-id order and, for the logit
methods, writes the whole round's buffered uploads into the cache in one
call, or, for fedavg, applies the averaging.
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


@dataclass(frozen=True)
class FederationConfig:
    """Federation settings; a built config is valid and never changes.

    `warmup_rounds` and `min_per_client` are derived when they are None and
    stored as ints, so `dataclasses.replace` keeps the derived values: pass
    None for a key to derive it again from the new settings.
    """

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
                object.__setattr__(self, key, kind(getattr(self, key)))
            except ValueError:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}") from None
        if self.warmup_rounds is None:
            object.__setattr__(self, "warmup_rounds", min(10, self.rounds))
        if self.min_per_client is None:
            object.__setattr__(self, "min_per_client", 2 * self.batch_size)
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
    # A view of the client's row of its tier's stack.
    model: Model
    shard: ClientShard


@dataclass(frozen=True)
class TierStack:
    """One capacity tier's clients and their models, one stack for the run.

    Row r of `stack` is client `members[r]`'s model. Rows are sorted by shard
    size, largest first and ties by client id, so every step of `steps`
    (`lockstep_stacks` of the nonincreasing `sizes`) trains one block of rows.
    """

    members: Array
    stack: Model
    sizes: Array
    steps: list[tuple[int, int, int, int]]


@dataclass
class FederationState:
    config: FederationConfig
    clients: list[ClientState]
    tiers: list[TierStack]
    # Every client's training samples, in cache-row order.
    train: Dataset
    cache: KnowledgeCache
    global_test: Dataset
    # fedcache's (n, R) neighbour rows, queried once at init, where hashes,
    # labels and owners are fixed; None for every other method.
    neighbors: Array | None
    round: int = 0


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    summary: ExperimentSummary
    state: FederationState


def init_federation(
    cfg: FederationConfig, dataset: Dataset, global_test: Dataset
) -> FederationState:
    """Partition data, build tiered clients and the knowledge cache for a config
    that checked itself when built; fedcache also hashes every sample and
    queries each row's neighbour rows once, from an index it then drops."""
    if global_test is None or len(global_test) == 0:
        raise ConfigError("a nonempty global test set is required to report rounds")
    spec = PartitionSpec(
        n_clients=cfg.n_clients,
        alpha_dir=cfg.alpha_dir,
        seed=child_seed(cfg.seed, _TAG_PARTITION),
        min_per_client=cfg.min_per_client,
    )
    parts = dirichlet_partition(dataset, spec)
    shards = []
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
        shards.append(shard)
    trains = [shard.train for shard in shards]
    sizes = np.array([len(train) for train in trains])
    train = Dataset(
        np.concatenate([t.features for t in trains]),
        np.concatenate([t.labels for t in trains]),
        dataset.n_classes,
    )
    tier_of = [
        cfg.fedavg_tier if cfg.method is Method.FEDAVG else CapacityTier.for_client(k)
        for k in range(cfg.n_clients)
    ]
    tiers: list[TierStack] = []
    clients: list = [None] * cfg.n_clients
    for tier in CapacityTier:
        members = [k for k in range(cfg.n_clients) if tier_of[k] is tier]
        if not members:
            continue
        members.sort(key=lambda k: -sizes[k])
        seeds = [child_seed(cfg.seed, _TAG_MODEL_INIT, k) for k in members]
        built = [build_model(tier, dataset.input_dim, dataset.n_classes, s) for s in seeds]
        stack = replace(built[0], params=np.stack([m.params for m in built]))
        steps = lockstep_stacks(sizes[members], cfg.batch_size)
        tiers.append(TierStack(np.array(members), stack, sizes[members], steps))
        for r, k in enumerate(members):
            clients[k] = ClientState(k, tier, replace(stack, params=stack.params[r]), shards[k])
    labels = train.labels if cfg.method in (Method.FEDDISTILL, Method.FEDCACHE) else None
    cache = KnowledgeCache(sizes, dataset.n_classes, labels=labels)
    neighbors = None
    if cfg.method is Method.FEDCACHE:
        encoder = RandomProjectionEncoder(
            dataset.input_dim, cfg.d_hash, child_seed(cfg.seed, _TAG_ENCODER)
        )
        hashes = encoder.encode_rows(train.features)
        index = HnswIndex(
            cfg.d_hash,
            m=cfg.hnsw_m,
            ef_construction=cfg.hnsw_ef_construction,
            ef_search=cfg.hnsw_ef_search,
            seed=child_seed(cfg.seed, _TAG_HNSW),
        )
        for h in hashes:
            index.insert(h)
        neighbors = fedcache_neighbors(cache, index, hashes, cfg.R)
    return FederationState(
        config=cfg,
        clients=clients,
        tiers=tiers,
        train=train,
        cache=cache,
        global_test=global_test,
        neighbors=neighbors,
    )


def teacher_tables(state: FederationState, round_index: int) -> TeacherTable | None:
    """The server phase: the teacher table of every cache row for a round's
    client phase, or None when the round does not distill.

    Uploads apply only at the barrier, so every teacher is fixed for the
    whole round and the table is built once, before any client trains,
    from the cache as the previous round left it. No method distills
    before the first upload. The state is only read: fedcache's neighbour
    rows come from init.
    """
    cfg = state.config
    if cfg.method not in LOGIT_METHODS or round_index < cfg.warmup_rounds or state.cache.round < 0:
        return None
    if cfg.method is Method.HKS:
        # The first tree clusters round W's uploads, so the round-W client
        # phase still trains on cross-entropy alone.
        if round_index == cfg.warmup_rounds:
            return None
        tree = build_hierarchy(
            state.cache,
            state.train.n_classes,
            linkage=cfg.linkage,
            space=cfg.cluster_space,
            temperature=cfg.kd.temperature,
        )
        logits, mask = fetch_teacher(state.cache, tree, cfg.granularity, cfg.exclude_self)
    elif cfg.method is Method.FEDDISTILL:
        logits, mask = feddistill_teacher(state.cache)
    else:
        logits, mask = fedcache_teacher(state.cache, state.neighbors)
    return teacher_table(logits, mask, cfg.kd.temperature)


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
    tier: TierStack,
    state: FederationState,
    round_index: int,
    table: TeacherTable | None,
    uploads: Array,
) -> LossBreakdown:
    """The client phase of one capacity tier: local epochs on seeded batches,
    every client of the tier stepped in lockstep in its stack, in place;
    without a teacher table (warm-up rounds) training is pure cross-entropy.

    Each client keeps its own batch order, teacher rows and loss sums, and a
    stacked step computes each model as a step of that model alone would, so
    every client ends as it would training by itself. Features, labels and
    teacher rows are read by cache row, and the last forward logits of every
    training sample are written to its row of the (n, C) `uploads`.

    Returns each stack row's sample-weighted mean loss breakdown, as (K,)
    arrays.
    """
    cfg = state.config
    starts = [state.cache.rows[k].start for k in tier.members]
    ce_sum = np.zeros(len(starts))
    kd_sum = np.zeros(len(starts))
    for e in range(cfg.local_epochs):
        epoch_key = round_index * cfg.local_epochs + e
        # sample_order[r, j] is the cache row of row r's j-th sample this epoch
        sample_order = np.zeros((len(starts), tier.sizes[0]), dtype=np.intp)
        for r, k in enumerate(tier.members):
            shuffled = epoch_order(state.clients[k].shard, cfg.seed, epoch_key)
            sample_order[r, : tier.sizes[r]] = starts[r] + shuffled
        for start, a, b, width in tier.steps:
            idx = sample_order[a:b, start : start + width]
            bd, Z = train_step(
                replace(tier.stack, params=tier.stack.params[a:b]),
                state.train.features[idx],
                state.train.labels[idx],
                None if table is None else table.take(idx),
                cfg.kd,
                cfg.lr,
            )
            uploads[idx] = Z
            ce_sum[a:b] += bd.ce * width
            kd_sum[a:b] += bd.kd * width
    n_samples = tier.sizes * cfg.local_epochs
    ce, kd = ce_sum / n_samples, kd_sum / n_samples
    return LossBreakdown(ce=ce, kd=kd, total=ce + cfg.kd.alpha_kd * kd)


def run_round(state: FederationState) -> RoundReport:
    """One communication round: server phase, client phase, barrier, report."""
    cfg = state.config
    t = state.round
    if t >= cfg.rounds:
        raise InvalidInputError(f"round {t} exceeds configured rounds {cfg.rounds}")

    table = teacher_tables(state, t)
    uploads = np.empty((len(state.cache), state.train.n_classes))
    ce = np.empty(len(state.clients))
    kd = np.empty(len(state.clients))
    for tier in state.tiers:
        bd = client_train(tier, state, t, table, uploads)
        ce[tier.members], kd[tier.members] = bd.ce, bd.kd

    # One check per client and round keeps the steps free of it; in client-id
    # order, so a divergent run names its lowest diverged client. Only the
    # logit methods upload their logits, all clients' in one write.
    uploading = cfg.method in LOGIT_METHODS
    for client in state.clients:
        where = f"client {client.client_id} in round {t}"
        if not np.isfinite(client.model.params).all():
            raise DivergenceError(f"training diverged: non-finite parameters at {where}")
        if uploading and not np.isfinite(uploads[state.cache.rows[client.client_id]]).all():
            raise DivergenceError(f"training diverged: non-finite logits at {where}")
    if uploading:
        state.cache.update_logits(uploads, t)

    if cfg.method is Method.FEDAVG:
        (tier,) = state.tiers
        by_id = np.argsort(tier.members)
        rows = replace(tier.stack, params=tier.stack.params[by_id])
        tier.stack.params[:] = fedavg_aggregate(rows, aggregate_weights(tier.sizes[by_id]))

    local_acc = np.array([evaluate(c.model, c.shard.local_test) for c in state.clients])
    global_acc = np.array([evaluate(c.model, state.global_test) for c in state.clients])
    report = RoundReport(
        round=t,
        per_client_local_acc=local_acc,
        global_acc_per_client=global_acc,
        mean_ce=float(np.mean(ce)),
        mean_kd=float(np.mean(kd)),
        hierarchy_built=cfg.method is Method.HKS and table is not None,
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
