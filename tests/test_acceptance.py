"""Acceptance suite: one test per criterion, each printing a PASS/WARN line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hks.cli import main
from hks.data import dirichlet_partition, PartitionSpec, stratified_subsample, synth_blobs, synth_train_and_test, load_idx
from hks.federation import FederationConfig, Method, init_federation, run_experiment, run_round
from hks.knowledge import (
    Granularity,
    HnswIndex,
    agglomerate,
    build_hierarchy,
)
from hks.metrics import evaluate, maua
from hks.models import CapacityTier, Model, build_model
from hks.numerics import KdConfig
from reference_oracles import (
    batch_loss_finite_diff,
    cache_from_rows,
    ce_grad,
    cross_entropy,
    cut_partition,
    exact_knn,
    finite_diff,
    kd_grad,
    kd_loss,
    members,
    naive_linkage,
    one_model_loss_and_grad,
    table_from_lists,
)

from hks.data import Dataset


def _report(name: str, status: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0

    rng = np.random.default_rng(101)
    for case in range(100):
        n_classes = (2, 5, 10)[case % 3]
        z = rng.normal(scale=2.0, size=n_classes)
        y = int(rng.integers(n_classes))
        worst = max(worst, _rel_err(ce_grad(z, y), finite_diff(lambda v: cross_entropy(v, y), z)))

    rng = np.random.default_rng(102)
    for case in range(100):
        n_classes = (2, 5, 10)[case % 3]
        cfg = KdConfig(
            temperature=float(rng.uniform(1.0, 5.0)),
            alpha_kd=1.0,
            t_squared_scaling=bool(case % 2),
        )
        z_s = rng.normal(scale=2.0, size=n_classes)
        z_t = rng.normal(scale=2.0, size=n_classes)
        numeric = finite_diff(lambda v: kd_loss(v, z_t, cfg), z_s)
        worst = max(worst, _rel_err(kd_grad(z_s, z_t, cfg), numeric))

    rng = np.random.default_rng(103)
    kd_cfg = KdConfig(temperature=3.0, alpha_kd=1.5, t_squared_scaling=True)
    for case in range(100):
        m = build_model(CapacityTier.SMALL, 4, 3, seed=int(rng.integers(1 << 30)))
        batch = int(rng.integers(2, 7))
        X = rng.normal(size=(batch, 4))
        y = rng.integers(3, size=batch)
        teachers = None
        if case % 2:
            teachers = table_from_lists(
                [[rng.normal(size=3)] if rng.random() > 0.3 else [] for _ in range(batch)],
                3,
                kd_cfg.temperature,
            )
        _, grads, _ = one_model_loss_and_grad(m, X, y, teachers, kd_cfg)
        worst = max(worst, _rel_err(grads, batch_loss_finite_diff(m, X, y, teachers, kd_cfg)))

    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"worst relative error {worst:.2e}"
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    _report("criterion 1 gradient oracle", "PASS", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_clustering_oracle():
    rng = np.random.default_rng(202)
    checked = 0
    for case in range(50):
        dim = (2, 10)[case % 2]
        n = int(rng.integers(4, 33))
        X = rng.normal(size=(n, dim))
        tree = agglomerate(X, cut=1)
        expected_merges, expected_cut = naive_linkage(X, cut=2)
        assert len(tree.merges) == len(expected_merges) == n - 1, f"case {case}"
        for merge, (left, right, height) in zip(tree.merges, expected_merges):
            got_left = frozenset(members(tree, merge.left))
            got_right = frozenset(members(tree, merge.right))
            assert (got_left, got_right) == (left, right), f"case {case}"
            assert abs(merge.height - height) <= 1e-9, f"case {case}"
        got_cut = set(cut_partition(agglomerate(X, cut=2)))
        assert got_cut == set(expected_cut), f"case {case}"
        checked += 1

    cache = cache_from_rows([4], [0.0, 0.1, 10.0, 10.1])
    tree = build_hierarchy(cache, 2)
    partition = set(cut_partition(tree))
    assert partition == {frozenset({0, 1}), frozenset({2, 3})}
    _report("criterion 2 clustering oracle", "PASS", f"{checked} instances exact")


def test_criterion_03_ann_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    points = rng.normal(size=(1000, 32))
    index = HnswIndex(32, m=16, ef_construction=200, ef_search=64, seed=303)
    for p in points:
        index.insert(p)
    hits = 0
    for q in rng.normal(size=(100, 32)):
        truth = set(exact_knn(points, q, 10))
        hits += len(truth & set(index.query(q, 10)))
    recall = hits / 1000.0
    elapsed = time.perf_counter() - start
    assert recall >= 0.95, f"recall@10 = {recall:.3f}"
    assert elapsed < 5.0, f"ANN oracle took {elapsed:.1f}s"
    _report("criterion 3 ANN oracle", "PASS", f"recall@10 {recall:.3f}, {elapsed:.1f}s")


def test_criterion_04_partition_properties():
    ds = synth_blobs(6, 80, 3, 0.5, seed=404)
    rng = np.random.default_rng(404)
    for _ in range(50):
        n_clients = int(rng.integers(1, 15))
        alpha = float(rng.uniform(0.05, 100.0))
        seed = int(rng.integers(100_000))
        parts = dirichlet_partition(ds, PartitionSpec(n_clients, alpha, seed=seed))
        flat = np.concatenate(parts)
        assert len(flat) == len(ds)
        assert len(np.unique(flat)) == len(ds)

    skew_ds = synth_blobs(5, 200, 2, 1.0, seed=405)

    def mean_entropy(alpha: float, seed: int) -> float:
        parts = dirichlet_partition(skew_ds, PartitionSpec(10, alpha, seed=seed))
        entropies = []
        for part in parts:
            if len(part) == 0:
                continue
            p = np.bincount(skew_ds.labels[part], minlength=5) / len(part)
            nz = p[p > 0]
            entropies.append(float(-(nz * np.log(nz)).sum()))
        return float(np.mean(entropies))

    skewed = np.mean([mean_entropy(0.5, s) for s in range(20)])
    uniform = np.mean([mean_entropy(1000.0, s) for s in range(20)])
    assert skewed < uniform, f"entropy ordering violated: {skewed:.3f} vs {uniform:.3f}"
    _report(
        "criterion 4 partition properties",
        "PASS",
        f"50 triples disjoint/complete; entropy {skewed:.3f} < {uniform:.3f}",
    )


def test_criterion_05_metric_arithmetic():
    assert maua([[0.5, 0.7], [0.8, 0.6]]) == 0.7

    params = np.array([1.0, -1.0, 0.0, 0.0])
    threshold_model = Model("mlp-1-2", (1, 2), params)
    ds = Dataset(np.array([[1.0], [-1.0], [2.0], [-2.0]]), np.array([0, 1, 1, 1]), 2)
    assert evaluate(threshold_model, ds) == 0.75

    bias0 = Model("mlp-1-2", (1, 2), np.array([0.0, 0.0, 10.0, 0.0]))
    assert evaluate(bias0, Dataset(np.ones((3, 1)), np.zeros(3, dtype=np.int64), 2)) == 1.0
    assert evaluate(bias0, Dataset(np.ones((3, 1)), np.ones(3, dtype=np.int64), 2)) == 0.0
    _report("criterion 5 metric arithmetic", "PASS")


def test_criterion_06_warmup_and_ablation_identities():
    train, test = synth_train_and_test(3, 60, 8, 0.3, seed=606, test_per_class=15)

    for method in Method:
        cfg = FederationConfig(
            method=method, n_clients=3, rounds=5, warmup_rounds=3, alpha_dir=1000.0, seed=6
        )
        result = run_experiment(cfg, train, test)
        for report in result.reports[:3]:
            assert report.mean_kd == 0.0, (method, report.round)

    kd_off = KdConfig(temperature=3.0, alpha_kd=0.0, t_squared_scaling=True)
    cfg_hks = FederationConfig(
        method=Method.HKS, n_clients=3, rounds=5, warmup_rounds=1, alpha_dir=1000.0, seed=6, kd=kd_off
    )
    cfg_local = FederationConfig(
        method=Method.LOCAL_ONLY, n_clients=3, rounds=5, warmup_rounds=1, alpha_dir=1000.0, seed=6, kd=kd_off
    )
    state_h = init_federation(cfg_hks, train, test)
    state_l = init_federation(cfg_local, train, test)
    for _ in range(5):
        run_round(state_h)
        run_round(state_l)
        for ch, cl in zip(state_h.clients, state_l.clients):
            assert np.array_equal(ch.model.params, cl.model.params)
    _report("criterion 6 warm-up and ablation identities", "PASS", "kd gate + bitwise ablation")


def test_criterion_07_end_to_end_easy_case():
    start = time.perf_counter()
    train, test = synth_train_and_test(4, 200, 16, 0.3, seed=707, test_per_class=50)
    cases = [("feddistill", Method.FEDDISTILL, {}), ("fedcache R=4", Method.FEDCACHE, {"R": 4})]
    cases += [(f"hks {g.value}", Method.HKS, {"granularity": g}) for g in Granularity]
    results = {}
    for label, method, extra in cases:
        cfg = FederationConfig(
            method=method, n_clients=6, rounds=15, warmup_rounds=5, alpha_dir=1000.0, seed=7, **extra
        )
        summary = run_experiment(cfg, train, test).summary
        results[label] = summary.final_global_acc
    elapsed = time.perf_counter() - start
    for label, acc in results.items():
        assert acc >= 0.90, f"{label}: final global accuracy {acc:.3f} < 0.90"
    assert elapsed < 120.0, f"easy case took {elapsed:.1f}s"
    detail = ", ".join(f"{k}={v:.3f}" for k, v in results.items())
    _report("criterion 7 end-to-end easy case", "PASS", f"{detail}; {elapsed:.1f}s")


def test_criterion_08_directional_heterogeneity():
    seeds = [0, 1, 2, 3, 4]
    labels = ["local_only", "feddistill", "hks top", "hks middle", "hks bottom", "hks all"]
    table: dict[int, dict[str, float]] = {}
    for seed in seeds:
        train, test = synth_train_and_test(4, 200, 16, 0.3, seed=800 + seed, test_per_class=50)
        row = {}
        for label in labels:
            if label == "local_only":
                method, extra = Method.LOCAL_ONLY, {}
            elif label == "feddistill":
                method, extra = Method.FEDDISTILL, {}
            else:
                method = Method.HKS
                extra = {"granularity": Granularity(label.split()[1])}
            cfg = FederationConfig(
                method=method, n_clients=10, rounds=18, alpha_dir=0.5, seed=seed, **extra
            )
            summary = run_experiment(cfg, train, test).summary
            row[label] = summary.maua
        table[seed] = row

    header = f"{'seed':>4} " + " ".join(f"{label:>11}" for label in labels)
    print("\n" + header)
    for seed in seeds:
        print(f"{seed:>4} " + " ".join(f"{table[seed][label]:>11.4f}" for label in labels))
    means = {label: float(np.mean([table[s][label] for s in seeds])) for label in labels}
    print(f"{'mean':>4} " + " ".join(f"{means[label]:>11.4f}" for label in labels))

    for row in table.values():
        assert all(0.0 <= v <= 1.0 for v in row.values())

    violations = []
    if means["hks middle"] < means["feddistill"] - 0.01:
        violations.append(
            f"mean MAUA(hks middle)={means['hks middle']:.4f} < feddistill-0.01={means['feddistill'] - 0.01:.4f}"
        )
    for label in ("hks top", "hks middle", "hks bottom", "hks all"):
        if means[label] < means["local_only"]:
            violations.append(f"mean MAUA({label})={means[label]:.4f} < local_only={means['local_only']:.4f}")
    if violations:
        _report("criterion 8 directional heterogeneity", "WARN", "; ".join(violations))
    else:
        _report("criterion 8 directional heterogeneity", "PASS")


def _fashionmnist_paths():
    root = Path(os.environ.get("HKS_FASHIONMNIST_DIR", "data/fashionmnist"))
    found = {}
    for key, stem in (
        ("train_images", "train-images-idx3-ubyte"),
        ("train_labels", "train-labels-idx1-ubyte"),
        ("test_images", "t10k-images-idx3-ubyte"),
        ("test_labels", "t10k-labels-idx1-ubyte"),
    ):
        for suffix in ("", ".gz"):
            p = root / f"{stem}{suffix}"
            if p.exists():
                found[key] = str(p)
                break
    return found if len(found) == 4 else None


def test_criterion_09_fashionmnist_smoke():
    paths = _fashionmnist_paths()
    if paths is None:
        pytest.skip("FashionMNIST IDX files not present (set HKS_FASHIONMNIST_DIR)")
    start = time.perf_counter()
    full_train = load_idx(paths["train_images"], paths["train_labels"])
    global_test = load_idx(paths["test_images"], paths["test_labels"])
    train = stratified_subsample(full_train, 2000, seed=909)

    hks_cfg = FederationConfig(
        method=Method.HKS,
        granularity=Granularity.ALL,
        n_clients=10,
        rounds=18,
        alpha_dir=1.0,
        batch_size=8,
        lr=0.01,
        seed=9,
    )
    hks_maua = run_experiment(hks_cfg, train, global_test).summary.maua

    fedavg_cfg = FederationConfig(
        method=Method.FEDAVG,
        fedavg_tier=CapacityTier.SMALL,
        n_clients=10,
        rounds=18,
        alpha_dir=1.0,
        batch_size=8,
        lr=0.01,
        seed=9,
    )
    fedavg_maua = run_experiment(fedavg_cfg, train, global_test).summary.maua
    elapsed = time.perf_counter() - start
    assert hks_maua >= fedavg_maua + 0.10, f"hks {hks_maua:.3f} vs fedavg {fedavg_maua:.3f}"
    assert elapsed < 600.0, f"smoke took {elapsed:.0f}s"
    _report(
        "criterion 9 fashionmnist smoke",
        "PASS",
        f"hks(all) MAUA {hks_maua:.3f} vs fedavg-small {fedavg_maua:.3f}, {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    flags = [
        "run",
        "--synthetic", "4,60,8,0.3",
        "--method", "hks",
        "--n-clients", "4",
        "--rounds", "4",
        "--warmup-rounds", "2",
        "--seed", "3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*flags, "--out", str(out_a)]) == 0
    assert main([*flags, "--out", str(out_b)]) == 0
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("wall_seconds")
    sb.pop("wall_seconds")
    assert sa == sb
    _report("criterion 10 determinism", "PASS", "byte-identical rounds.csv, summary.json")
