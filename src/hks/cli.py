"""Experiment runner: config parsing, seeded execution, CSV/JSON reporting.

Subcommands:
  run     one experiment -> rounds.csv, summary.json, config.resolved.json
  sweep   cross-product of methods/granularities/R values/seeds -> run dirs
          plus one comparison.csv
  report  re-render a comparison table from the stored per-run summaries

Every run directory is self-describing: config.resolved.json plus the seed
reproduce it byte-for-byte (wall_seconds aside).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .data import Dataset, load_idx, split_local_test, stratified_subsample, synth_train_and_test
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateInputError,
    DivergenceError,
    EmptyDatasetError,
    EmptyShardError,
    FormatError,
    HksError,
    InfeasiblePartitionError,
    InsufficientDataError,
    InvalidInputError,
    ModeError,
    ShapeError,
    StaleHierarchyError,
    TruncatedFileError,
    UndefinedMetricError,
)
from .federation import FederationConfig, Method, child_seed, run_experiment, _TAG_DATA
from .knowledge import Granularity

ROUNDS_CSV_SCHEMA = "# hks-rounds-v1"
ROUNDS_CSV_COLUMNS = (
    "round",
    "mean_local_acc",
    "min_local_acc",
    "max_local_acc",
    "mean_global_acc",
    "mean_ce",
    "mean_kd",
    "hierarchy_built",
)

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ConfigError, 2),
    (FormatError, 3),
    (ConsistencyError, 4),
    (TruncatedFileError, 5),
    (InfeasiblePartitionError, 6),
    (EmptyShardError, 7),
    (EmptyDatasetError, 8),
    (DegenerateInputError, 9),
    (InsufficientDataError, 11),
    (StaleHierarchyError, 12),
    (ModeError, 13),
    (UndefinedMetricError, 15),
    (ShapeError, 16),
    (InvalidInputError, 17),
    (DivergenceError, 18),
    (HksError, 20),
    (OSError, 21),
)


@dataclass(frozen=True)
class RunConfig:
    """Full experiment description: federation settings plus dataset selector."""

    federation: FederationConfig
    synthetic: tuple[int, int, int, float] | None = None
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    max_train_samples: int | None = None
    out: str = "runs/latest"

    def __post_init__(self) -> None:
        if self.synthetic is None and (self.idx_images is None or self.idx_labels is None):
            raise ConfigError(
                "no dataset selected: provide 'synthetic' or both 'idx_images' and 'idx_labels'"
            )
        if self.synthetic is not None:
            n_classes, per_class, dim, spread = self.synthetic
            if not (min(n_classes, per_class, dim) >= 1 and 0 <= spread < math.inf):
                raise ConfigError(f"constraint violation on 'synthetic' (got {self.synthetic!r})")
            for key in ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels",
                        "max_train_samples"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"'{key}' does not apply to a 'synthetic' dataset")
        if (self.idx_test_images is None) != (self.idx_test_labels is None):
            raise ConfigError("give both 'idx_test_images' and 'idx_test_labels', or neither")
        if self.max_train_samples is not None and self.max_train_samples < 1:
            raise ConfigError("constraint violation on 'max_train_samples'")

    def resolved(self) -> dict:
        """Every config key with its effective value, in field-table order."""
        out = {}
        for f in config_fields(type(self)):
            value = f.read(self)
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            out[f.key] = value
        return out


@dataclass(frozen=True)
class ConfigField:
    """One settable config value: a leaf of the RunConfig dataclass tree.

    The JSON key is the leaf field's name and the flag is that name with
    dashes, so nested settings (e.g. `federation.kd.temperature`) are set as
    a flat `temperature` key or `--temperature` flag.
    """

    path: tuple[str, ...]
    kind: Any  # declared type with `| None` stripped
    optional: bool

    @property
    def key(self) -> str:
        return self.path[-1]

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def read(self, rc: RunConfig):
        return reduce(getattr, self.path, rc)


def config_fields(cls: type = RunConfig) -> tuple[ConfigField, ...]:
    """Field table of a config dataclass; dataclass-typed fields are expanded."""

    def walk(node: type, prefix: tuple[str, ...]):
        hints = get_type_hints(node)
        for f in fields(node):
            hint = hints[f.name]
            args = get_args(hint)
            if is_dataclass(hint):
                yield from walk(hint, prefix + (f.name,))
            elif type(None) in args:
                (kind,) = [a for a in args if a is not type(None)]
                yield ConfigField(prefix + (f.name,), kind, True)
            else:
                yield ConfigField(prefix + (f.name,), hint, False)

    table = tuple(walk(cls, ()))
    if len({f.key for f in table}) != len(table):
        raise TypeError(f"{cls.__name__} defines a config key twice")
    return table


def _coerce(f: ConfigField, value):
    """Read a JSON (or flag) value as the field's declared type."""
    key, kind = f.key, f.kind
    if value is None and f.optional:
        return None
    if get_origin(kind) is tuple:
        return _parse_synthetic(value)
    if issubclass(kind, Enum):
        try:
            return kind(str(value).lower())
        except ValueError:
            raise ConfigError(f"unknown {key} {value!r}")
    mismatch = ConfigError(f"type mismatch on '{key}': cannot read {value!r} as {kind.__name__}")
    if (
        isinstance(value, bool) != (kind is bool)
        or isinstance(value, str) != (kind is str)
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        raise mismatch
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise mismatch


def _parse_synthetic(value) -> tuple[int, int, int, float]:
    """C,per_class,dim,spread from a flag's text, or from a JSON list whose
    entries follow `_coerce`'s int and float rules."""
    if not isinstance(value, (str, list, tuple)):
        raise ConfigError("type mismatch on 'synthetic': expected 'C,per_class,dim,spread'")
    parts = value.split(",") if isinstance(value, str) else value
    if len(parts) != 4:
        raise ConfigError("'synthetic' needs exactly C,per_class,dim,spread")
    kinds = (int, int, int, float)
    if not isinstance(value, str):
        return tuple(_coerce(ConfigField(("synthetic",), k, False), v) for k, v in zip(kinds, parts))
    try:
        return tuple(k(v) for k, v in zip(kinds, parts))
    except ValueError:
        raise ConfigError("type mismatch on 'synthetic': C,per_class,dim must be int, spread real")


def _build(cls: type, values: dict):
    """Construct a config dataclass tree from flat, already coerced values."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            try:
                kwargs[f.name] = _build(hints[f.name], values)
            except InvalidInputError as exc:
                raise ConfigError(f"constraint violation on {f.name} settings: {exc}")
        elif f.name in values:
            kwargs[f.name] = values[f.name]
    return cls(**kwargs)


def parse_config(
    path: str | None = None, overrides: dict | None = None, cls: type = RunConfig
) -> RunConfig:
    """Merge a JSON config file with flag overrides; flags win; unknown keys and bad values fail."""
    merged: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(loaded)
    merged.update({k: v for k, v in (overrides or {}).items() if v is not None})

    table = {f.key: f for f in config_fields(cls)}
    unknown = sorted(set(merged) - table.keys())
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    return _build(cls, {key: _coerce(table[key], value) for key, value in merged.items()})


def load_experiment_data(rc: RunConfig) -> tuple[Dataset, Dataset]:
    """Resolve the config's dataset selector into (train, global_test)."""
    seed = rc.federation.seed
    if rc.synthetic is not None:
        n_classes, per_class, dim, spread = rc.synthetic
        return synth_train_and_test(
            n_classes, per_class, dim, spread, child_seed(seed, _TAG_DATA)
        )
    train = load_idx(rc.idx_images, rc.idx_labels)
    if rc.idx_test_images is not None:
        global_test = load_idx(rc.idx_test_images, rc.idx_test_labels)
        if global_test.input_dim != train.input_dim:
            raise ConsistencyError(
                f"test images have {global_test.input_dim} pixels, training images {train.input_dim}"
            )
        if global_test.n_classes > train.n_classes:
            raise ConsistencyError(
                f"test labels reach class {global_test.n_classes - 1}, "
                f"training labels only class {train.n_classes - 1}"
            )
    else:
        # No held-out pair supplied: carve a stratified tenth off the
        # training set to serve as the balanced global test set.
        holdout = split_local_test(
            list(range(len(train))), train, 0.1, child_seed(seed, _TAG_DATA, 1)
        )
        train, global_test = holdout.train, holdout.local_test
    if rc.max_train_samples is not None:
        train = stratified_subsample(train, rc.max_train_samples, child_seed(seed, _TAG_DATA, 2))
    return train, global_test


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_outputs(out_dir: Path, rc: RunConfig, result, wall_seconds: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "rounds.csv", "w", newline="", encoding="ascii") as f:
        f.write(ROUNDS_CSV_SCHEMA + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ROUNDS_CSV_COLUMNS)
        for r in result.reports:
            writer.writerow([_fmt(getattr(r, c)) for c in ROUNDS_CSV_COLUMNS])
    fed = rc.federation
    summary = {
        "maua": result.summary.maua,
        "best_global_acc": result.summary.best_global_acc,
        "final_global_acc": result.summary.final_global_acc,
        "method": fed.method.value,
        "granularity": fed.granularity.value,
        "R": fed.R,
        "alpha_dir": fed.alpha_dir,
        "seed": fed.seed,
        "wall_seconds": wall_seconds,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="ascii")
    (out_dir / "config.resolved.json").write_text(
        json.dumps(rc.resolved(), indent=2) + "\n", encoding="ascii"
    )


def _run_and_write(rc: RunConfig):
    """Load, run and write one experiment; its wall_seconds excludes the write."""
    start = time.perf_counter()
    train, global_test = load_experiment_data(rc)
    result = run_experiment(rc.federation, train, global_test)
    write_run_outputs(Path(rc.out), rc, result, time.perf_counter() - start)
    return result


def cmd_run(rc: RunConfig) -> int:
    summary = _run_and_write(rc).summary
    print(
        f"run {rc.federation.method.value}: maua={_fmt_opt(summary.maua)} "
        f"final_global={_fmt_opt(summary.final_global_acc)} "
        f"rounds={summary.rounds_run} -> {Path(rc.out)}"
    )
    return 0


def _hyperparameter_label(fed: FederationConfig) -> str:
    if fed.method is Method.HKS:
        return f"granularity={fed.granularity.value}"
    if fed.method is Method.FEDCACHE:
        return f"R={fed.R}"
    if fed.method is Method.FEDAVG:
        return f"tier={fed.fedavg_tier.value}"
    return "-"


def _sweep_cases(rc: RunConfig, methods, granularities, r_values, seeds):
    for method in methods:
        if method is Method.HKS:
            variants = [("granularity", g) for g in granularities]
        elif method is Method.FEDCACHE:
            variants = [("R", r) for r in r_values]
        else:
            variants = [(None, None)]
        for field_name, value in variants:
            for seed in seeds:
                fed = replace(rc.federation, method=method, seed=seed)
                name = method.value
                if field_name == "granularity":
                    fed = replace(fed, granularity=value)
                    name += f"_{value.value}"
                elif field_name == "R":
                    fed = replace(fed, R=value)
                    name += f"_R{value}"
                elif method is Method.FEDAVG:
                    name += f"_{fed.fedavg_tier.value}"
                yield f"{name}_seed{seed}", fed


def cmd_sweep(rc: RunConfig, methods, granularities, r_values, seeds) -> int:
    """Run every case of the sweep. Building the case list checks every
    case's settings, before the sweep directory is made or any case runs."""
    sweep_dir = Path(rc.out)
    cases = [
        (name, replace(rc, federation=fed, out=str(sweep_dir / name)))
        for name, fed in _sweep_cases(rc, methods, granularities, r_values, seeds)
    ]
    sweep_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, case in cases:
        fed = case.federation
        result = _run_and_write(case)
        rows.append(
            {
                "method": fed.method.value,
                "hyperparameter": _hyperparameter_label(fed),
                "seed": fed.seed,
                "maua": result.summary.maua,
                "best_global_acc": result.summary.best_global_acc,
                "final_global_acc": result.summary.final_global_acc,
                "run_dir": name,
            }
        )
        print(f"sweep case {name}: maua={_fmt_opt(result.summary.maua)}")
    with open(sweep_dir / "comparison.csv", "w", newline="", encoding="ascii") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) if isinstance(v, (float, bool)) else v for k, v in row.items()})
    print(f"sweep: {len(rows)} runs -> {sweep_dir / 'comparison.csv'}")
    return 0


def _fmt_opt(v) -> str:
    return "undefined" if v is None else f"{v:.4f}"


_REPORT_METRICS = ("maua", "best_global_acc", "final_global_acc")


def _read_summary(path: Path) -> dict[str, float]:
    """The report metrics of a summary.json, each a JSON number in [0, 1]; a
    run without rounds stores null, read as nan."""
    try:
        summary = json.loads(path.read_text(encoding="ascii"))
        values = {k: summary[k] for k in _REPORT_METRICS}
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path} is not a readable run summary: {exc!r}") from None
    for key, value in values.items():
        # bool is a subclass of int; chained comparisons are False for nan
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if value is not None and not (number and 0 <= value <= 1):
            raise FormatError(f"{path}: {key!r} is {value!r}, not a number in [0, 1] or null")
    return {k: math.nan if v is None else float(v) for k, v in values.items()}


def cmd_report(runs_dir: str, out_file: str | None) -> int:
    """Rebuild the comparison table from each run's settings (via parse_config) and summary.json."""
    base = Path(runs_dir)
    run_dirs = sorted(p.parent for p in base.glob("*/summary.json"))
    if (base / "summary.json").exists():
        run_dirs.insert(0, base)
    if not run_dirs:
        raise ConfigError(f"no run directories with summary.json under {runs_dir}")
    grouped: dict[tuple[str, str], list[dict]] = {}
    row_settings: dict[tuple[str, str], tuple[Path, dict]] = {}
    row_seeds: dict[tuple[str, str], dict[int, Path]] = {}
    for run_dir in run_dirs:
        try:
            rc = parse_config(str(run_dir / "config.resolved.json"))
        except ConfigError as exc:
            raise ConfigError(f"run {run_dir}: {exc}") from None
        fed = rc.federation
        key = (fed.method.value, _hyperparameter_label(fed))
        # one row averages seeds of one configuration, never two configurations
        settings = {k: v for k, v in rc.resolved().items() if k not in ("seed", "out")}
        first_dir, first = row_settings.setdefault(key, (run_dir, settings))
        differing = sorted(k for k in first if first[k] != settings[k])
        if differing:
            raise ConfigError(
                f"runs {first_dir} and {run_dir} fall into one report row {key} but differ "
                f"in {', '.join(repr(k) for k in differing)}"
            )
        # so the row's run count is its number of distinct seeds
        seed_dir = row_seeds.setdefault(key, {}).setdefault(fed.seed, run_dir)
        if seed_dir != run_dir:
            raise ConfigError(
                f"runs {seed_dir} and {run_dir} are both seed {fed.seed} of report row {key}"
            )
        grouped.setdefault(key, []).append(_read_summary(run_dir / "summary.json"))

    header = f"{'method':<12} {'hyperparameters':<20} {'seeds':>5} {'MAUA':>8} {'global(best)':>13} {'global(final)':>14}"
    print(header)
    print("-" * len(header))
    table_rows = []
    for (method, hyper), entries in sorted(grouped.items()):
        maua_mean, best_mean, final_mean = (
            sum(e[k] for e in entries) / len(entries) for k in _REPORT_METRICS
        )
        print(
            f"{method:<12} {hyper:<20} {len(entries):>5} {maua_mean:>8.4f} "
            f"{best_mean:>13.4f} {final_mean:>14.4f}"
        )
        table_rows.append(
            {
                "method": method,
                "hyperparameter": hyper,
                "n_seeds": len(entries),
                "maua_mean": _fmt(maua_mean),
                "best_global_acc_mean": _fmt(best_mean),
                "final_global_acc_mean": _fmt(final_mean),
            }
        )
    if out_file:
        with open(out_file, "w", newline="", encoding="ascii") as f:
            writer = csv.DictWriter(f, fieldnames=list(table_rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            writer.writerows(table_rows)
        print(f"report -> {out_file}")
    return 0


def _flag_bool(text: str):
    """`true`/`false` become bools; any other text is left for _coerce to reject."""
    return {"true": True, "false": False}.get(text, text)


def _add_config_flags(p: argparse.ArgumentParser, cls: type) -> None:
    """One flag per config field; values are coerced again by parse_config."""
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    for f in config_fields(cls):
        if f.kind is bool:
            p.add_argument(f.flag, dest=f.key, type=_flag_bool, metavar="{true,false}")
        elif isinstance(f.kind, type) and issubclass(f.kind, Enum):
            p.add_argument(f.flag, dest=f.key, choices=[m.value for m in f.kind])
        else:
            p.add_argument(f.flag, dest=f.key, type=f.kind if f.kind in (int, float) else str)


def build_parser(cls: type = RunConfig) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hks", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment")
    _add_config_flags(run_p, cls)
    sweep_p = sub.add_parser("sweep", help="run a method/granularity/seed cross-product")
    _add_config_flags(sweep_p, cls)
    sweep_p.add_argument("--methods", help="comma-separated method list")
    sweep_p.add_argument("--granularities", help="comma-separated granularity list (hks)")
    sweep_p.add_argument("--R-values", dest="r_values", help="comma-separated R list (fedcache)")
    sweep_p.add_argument("--seeds", help="comma-separated seed list")
    report_p = sub.add_parser("report", help="re-render summaries from stored CSVs")
    report_p.add_argument("runs_dir")
    report_p.add_argument("--out", dest="out_file")
    return parser


def _sweep_list(text: str | None, flag: str, parse, default) -> list:
    """Parsed entries of a comma-separated sweep flag; an entry that does not
    parse or is given twice is rejected."""
    if not text:
        return [default]
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = parse(token)
        except ValueError:
            raise ConfigError(f"{flag} has an invalid entry {token!r}") from None
        if value in values:
            raise ConfigError(f"{flag} repeats {token!r}")
        values.append(value)
    return values


def flag_overrides(args: argparse.Namespace, cls: type = RunConfig) -> dict:
    return {f.key: getattr(args, f.key) for f in config_fields(cls)}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.runs_dir, args.out_file)
        rc = parse_config(args.config, flag_overrides(args))
        if args.command == "run":
            return cmd_run(rc)
        fed = rc.federation
        methods = _sweep_list(args.methods, "--methods", lambda t: Method(t.lower()), fed.method)
        granularities = _sweep_list(
            args.granularities, "--granularities", lambda t: Granularity(t.lower()), fed.granularity
        )
        r_values = _sweep_list(args.r_values, "--R-values", int, fed.R)
        seeds = _sweep_list(args.seeds, "--seeds", int, fed.seed)
        return cmd_sweep(rc, methods, granularities, r_values, seeds)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps errors to codes
        return _fail(exc)


def _fail(exc: Exception) -> int:
    for exc_type, code in _EXIT_CODES:
        if isinstance(exc, exc_type):
            print(f"error: {exc}", file=sys.stderr)
            return code
    raise exc


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
