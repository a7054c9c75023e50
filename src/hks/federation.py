"""Round engine: warm-up, a server phase that builds each round's teacher
table, local training against it, logit upload, and method dispatch.

A round has three phases. The server phase (`teacher_tables`) builds every
structure the round's teachers read from the cache as the previous round's
barrier left it, and changes no field of the state: hks clusters the cache
into this round's tree, which is never kept, and fedcache reads the
neighbour rows that init searched. The client phase trains one
capacity tier at a time, all of the tier's clients in lockstep as the one
stack of models that holds them for the whole run: each epoch takes one
stacked step per full-batch position, through the view of the rows that
have a batch there, then one per distinct short last-batch width, over
the rows whose last batch has that width, gathered from the stack and
written back. Clients are independent, and each keeps its own batch order,
RNG stream and teacher rows, so every client ends the phase as it would
training alone, bit for bit. A single
barrier then checks every client in client-id order and, for the logit
methods, writes the whole round's buffered uploads into the cache in one
call (only they allocate the buffer), or, for fedavg, applies the
averaging, after which its one merged model is scored on the global test
set once for every client.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import (
    ClientShard,
    Dataset,
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
    KnowledgeCache,
    RandomProjectionEncoder,
    build_hierarchy,
    fedcache_neighbors,
    fedcache_teacher,
    feddistill_teacher,
    fetch_teacher,
)
from .knowledge.hierarchy import LINKAGES
from .metrics import ExperimentSummary, RoundReport, evaluate, summarize
from .models import (
    CapacityTier,
    Model,
    build_model,
    fedavg_aggregate,
    train_step,
)
from .numerics import TeacherTable

Array = np.ndarray


class Method(str, Enum):
    LOCAL_ONLY = "local_only"
    FEDAVG = "fedavg"
    FEDDISTILL = "feddistill"
    FEDCACHE = "fedcache"
    HKS = "hks"


LOGIT_METHODS = frozenset({Method.FEDDISTILL, Method.FEDCACHE, Method.HKS})

# Seed-stream tags; every derived stream is keyed by (seed, tag, ...). Tags
# are never renumbered or reused (5 is retired): either would change runs'
# streams.
_TAG_PARTITION = 1
_TAG_LOCAL_SPLIT = 2
_TAG_MODEL_INIT = 3
_TAG_ENCODER = 4
_TAG_DATA = 6


def child_seed(*parts: int) -> int:
    """Stable 64-bit seed derived from nonnegative integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class FederationConfig:
    """Federation settings; a built config is valid and never changes.

    The one place that coerces (an Enum's text to the Enum) and checks them;
    the KD term carries T^2 (Hinton et al., arXiv:1503.02531), so T^2 must
    be positive and finite. `warmup_rounds` and `min_per_client` are derived
    when they are None and stored as ints, so `dataclasses.replace` keeps
    the derived values: pass None for a key to derive it again.
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
    temperature: float = 3.0
    alpha_kd: float = 1.5
    R: int = 4
    alpha_dir: float = 1.0
    seed: int = 0
    exclude_self: bool = True
    test_fraction: float = 0.2
    # None resolves to 2 * batch_size: every client can fill two batches.
    min_per_client: int | None = None
    fedavg_tier: CapacityTier = CapacityTier.SMALL
    d_hash: int = 32
    linkage: str = "average"

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
        # T * T, not T ** 2: a float's ** raises OverflowError where * gives inf
        t_squared = self.temperature * self.temperature
        # chained comparisons are False for NaN, so they reject it too
        checks = [
            ("n_clients", self.n_clients >= 1),
            ("rounds", self.rounds >= 1),
            ("local_epochs", self.local_epochs >= 1),
            ("warmup_rounds", 0 <= self.warmup_rounds <= self.rounds),
            ("lr", 0 < self.lr < math.inf),
            ("batch_size", self.batch_size >= 1),
            ("temperature", 0 < self.temperature < math.inf),
            ("temperature", t_squared < math.inf, "T^2 overflows"),
            ("temperature", t_squared > 0, "T^2 underflows to zero"),
            ("alpha_kd", 0 <= self.alpha_kd < math.inf),
            ("R", self.R >= 1),
            ("alpha_dir", 0 < self.alpha_dir < math.inf),
            ("seed", self.seed >= 0),
            ("test_fraction", 0 < self.test_fraction < 1),
            ("min_per_client", self.min_per_client >= 0),
            ("d_hash", self.d_hash >= 1),
            ("linkage", self.linkage in LINKAGES),
        ]
        for key, ok, *why in checks:
            if not ok:
                note = f": {why[0]}" if why else ""
                raise ConfigError(f"constraint violation on '{key}' (got {getattr(self, key)!r}){note}")


@dataclass
class ClientState:
    """Client k of `FederationState.clients`: a view of its row of its
    tier's stack, and its data."""

    model: Model
    shard: ClientShard


@dataclass(frozen=True)
class TierStack:
    """One capacity tier's clients and their models, one stack for the run.

    Row r of `stack` is client `members[r]`'s model. Rows are sorted by shard
    size, largest first and ties by client id, so the rows with a full batch
    at a position are a prefix of the stack. An epoch (`epoch_plan` of the
    nonincreasing `sizes`) runs the `full` steps, each a batch position and
    a `Model` whose parameters are a view of that prefix, then the `tails`,
    each the rows whose short last batch has one width and those batches'
    (rows, width) sample positions.
    """

    members: Array
    stack: Model
    sizes: Array
    full: list[tuple[int, Model]]
    tails: list[tuple[Array, Array]]


@dataclass
class FederationState:
    config: FederationConfig
    clients: list[ClientState]
    tiers: list[TierStack]
    # Every client's training samples, in cache-row order.
    train: Dataset
    cache: KnowledgeCache
    global_test: Dataset
    # fedcache's (n, min(R, largest class)) neighbour rows, searched once at
    # init, where hashes, labels and owners are fixed; None otherwise.
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
    searches each row's neighbour rows once, exactly, with no index."""
    if global_test is None or len(global_test) == 0:
        raise EmptyDatasetError("a nonempty global test set is required to report rounds")
    parts = dirichlet_partition(
        dataset,
        cfg.n_clients,
        cfg.alpha_dir,
        child_seed(cfg.seed, _TAG_PARTITION),
        cfg.min_per_client,
    )
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
        full, tails = epoch_plan(sizes[members], cfg.batch_size)
        views = [(start, replace(stack, params=stack.params[:end])) for start, end in full]
        tiers.append(TierStack(np.array(members), stack, sizes[members], views, tails))
        for r, k in enumerate(members):
            clients[k] = ClientState(replace(stack, params=stack.params[r]), shards[k])
    labels = train.labels if cfg.method in (Method.FEDDISTILL, Method.FEDCACHE) else None
    cache = KnowledgeCache(sizes, dataset.n_classes, labels=labels)
    neighbors = None
    if cfg.method is Method.FEDCACHE:
        encoder = RandomProjectionEncoder(
            dataset.input_dim, cfg.d_hash, child_seed(cfg.seed, _TAG_ENCODER)
        )
        neighbors = fedcache_neighbors(cache, encoder.encode_rows(train.features), cfg.R)
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
    before round 1, whose cache holds round 0's uploads. The state is only
    read: fedcache's neighbour rows come from init.
    """
    cfg = state.config
    # hks's first tree clusters round W's uploads, so its round-W client
    # phase still trains on cross-entropy alone.
    first = max(1, cfg.warmup_rounds + (cfg.method is Method.HKS))
    if cfg.method not in LOGIT_METHODS or round_index < first:
        return None
    if cfg.method is Method.HKS:
        tree = build_hierarchy(state.cache, state.train.n_classes, cfg.linkage)
        return fetch_teacher(state.cache, tree, cfg.granularity, cfg.temperature, cfg.exclude_self)
    if cfg.method is Method.FEDDISTILL:
        return feddistill_teacher(state.cache, cfg.temperature)
    return fedcache_teacher(state.cache, state.neighbors, cfg.temperature)


def epoch_plan(
    sizes: Array, batch_size: int
) -> tuple[list[tuple[int, int]], list[tuple[Array, Array]]]:
    """The steps of one epoch of lockstep training over shards of nonincreasing
    `sizes`: the full steps as (position, end row), then the tail steps as
    (rows, positions).

    Each shard is cut into batches in its own order. A full step trains the
    batch at one position of every row that has a full batch there, rows
    [0, end) because the sizes do not increase. A tail step trains the short
    last batch of every row whose last batch has one width, whatever its
    position: `positions[i]` are the sample positions of row `rows[i]`'s
    tail. Each row's tail is its last batch, so every row still trains its
    batches in order.
    """
    n_full = sizes // batch_size
    full = [(j * batch_size, int(np.count_nonzero(n_full > j))) for j in range(int(n_full[0]))]
    widths = sizes % batch_size
    tails = []
    for width in np.flatnonzero(np.bincount(widths)[1:]) + 1:
        rows = np.flatnonzero(widths == width)
        tails.append((rows, (n_full[rows] * batch_size)[:, None] + np.arange(width)))
    return full, tails


def client_train(
    tier: TierStack,
    state: FederationState,
    round_index: int,
    table: TeacherTable | None,
    uploads: Array | None,
) -> tuple[Array, Array]:
    """The client phase of one capacity tier: local epochs on seeded batches,
    every client of the tier stepped in lockstep in its stack, in place;
    without a teacher table (warm-up rounds) training is pure cross-entropy.

    Each client keeps its own batch order, teacher rows and loss sums, and a
    stacked step computes each model as a step of that model alone would, so
    every client ends as it would training by itself. Each epoch follows the
    tier's plan: every full step trains the view of the stack's prefix that
    it carries, and every tail step trains its rows gathered from the stack,
    then writes them back. Features, labels and teacher rows are read by
    cache row, and, for the logit methods, the last forward logits of every
    training sample are written to its row of the (n, C) `uploads` (None for
    the other methods).

    Returns each stack row's sample-weighted mean cross-entropy and KD loss,
    as a pair of (K,) arrays.
    """
    cfg = state.config
    starts = [state.cache.rows[k].start for k in tier.members]
    ce_sum = np.zeros(len(starts))
    kd_sum = np.zeros(len(starts))

    def step(model: Model, rows: slice | Array, idx: Array) -> None:
        (ce, kd), Z = train_step(
            model,
            state.train.features[idx],
            state.train.labels[idx],
            None if table is None else table.take(idx),
            cfg.temperature,
            cfg.alpha_kd,
            cfg.lr,
        )
        if uploads is not None:
            uploads[idx] = Z
        width = idx.shape[1]
        ce_sum[rows] += ce * width
        kd_sum[rows] += kd * width

    for e in range(cfg.local_epochs):
        epoch_key = round_index * cfg.local_epochs + e
        # sample_order[r, j] is the cache row of row r's j-th sample this epoch
        sample_order = np.zeros((len(starts), tier.sizes[0]), dtype=np.intp)
        for r, k in enumerate(tier.members):
            sample_order[r, : tier.sizes[r]] = starts[r] + epoch_order(
                int(tier.sizes[r]), k, cfg.seed, epoch_key
            )
        for start, view in tier.full:
            end = len(view.params)
            step(view, slice(0, end), sample_order[:end, start : start + cfg.batch_size])
        for rows, positions in tier.tails:
            gathered = Model(tier.stack.layer_dims, tier.stack.params[rows])
            step(gathered, rows, sample_order[rows[:, None], positions])
            tier.stack.params[rows] = gathered.params
    n_samples = tier.sizes * cfg.local_epochs
    return ce_sum / n_samples, kd_sum / n_samples


def run_round(state: FederationState) -> RoundReport:
    """One communication round: server phase, client phase, barrier, report."""
    cfg = state.config
    t = state.round
    if t >= cfg.rounds:
        raise InvalidInputError(f"round {t} exceeds configured rounds {cfg.rounds}")

    table = teacher_tables(state, t)
    # Only the logit methods upload their logits, all clients' in one write.
    uploading = cfg.method in LOGIT_METHODS
    uploads = np.empty((len(state.cache), state.train.n_classes)) if uploading else None
    ce = np.empty(len(state.clients))
    kd = np.empty(len(state.clients))
    for tier in state.tiers:
        ce[tier.members], kd[tier.members] = client_train(tier, state, t, table, uploads)

    # One check per client and round keeps the steps free of it; in client-id
    # order, so a divergent run names its lowest diverged client.
    for k, client in enumerate(state.clients):
        where = f"client {k} in round {t}"
        if not np.isfinite(client.model.params).all():
            raise DivergenceError(f"training diverged: non-finite parameters at {where}")
        if uploading and not np.isfinite(uploads[state.cache.rows[k]]).all():
            raise DivergenceError(f"training diverged: non-finite logits at {where}")
    if uploading:
        state.cache.update_logits(uploads)

    if cfg.method is Method.FEDAVG:
        (tier,) = state.tiers
        by_id = np.argsort(tier.members)
        tier.stack.params[:] = fedavg_aggregate(tier.stack.params[by_id], tier.sizes[by_id])

    local_acc = np.array([evaluate(c.model, c.shard.local_test) for c in state.clients])
    if cfg.method is Method.FEDAVG:
        # every client holds the one merged model, so one evaluation scores all
        global_acc = np.full(len(state.clients), evaluate(state.clients[0].model, state.global_test))
    else:
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
