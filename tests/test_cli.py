import argparse
import csv
import gzip
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
from pathlib import Path

import pytest

import hks
from hks.cli import (
    ROUNDS_CSV_COLUMNS,
    RunConfig,
    _fmt,
    build_parser,
    config_fields,
    flag_overrides,
    main,
    parse_config,
)
from hks.errors import ConfigError
from hks.federation import FederationConfig, Method
from hks.knowledge import Granularity
from hks.models import CapacityTier
from hks.numerics import KdConfig


def fast_flags(out_dir, seed="0"):
    return [
        "--synthetic", "3,30,4,0.3",
        "--n-clients", "3",
        "--rounds", "3",
        "--warmup-rounds", "1",
        "--seed", seed,
        "--out", str(out_dir),
    ]


class TestParseConfig:
    def test_minimal_synthetic_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "4,50,8,0.3"}))
        rc = parse_config(str(path))
        fed = rc.federation
        assert fed.kd.temperature == 3.0
        assert fed.kd.alpha_kd == 1.5
        assert fed.warmup_rounds == 10
        assert fed.lr == 0.01
        assert fed.batch_size == 8
        assert fed.rounds == 18

    def test_granularity_string_parses(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", "granularity": "middle"}))
        assert parse_config(str(path)).federation.granularity is Granularity.MIDDLE

    def test_negative_alpha_dir_names_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", "alpha_dir": -1}))
        with pytest.raises(ConfigError, match="alpha_dir"):
            parse_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", "alpha_dri": 1.0}))
        with pytest.raises(ConfigError, match="alpha_dri"):
            parse_config(str(path))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", "rounds": 18, "seed": 1}))
        rc = parse_config(str(path), {"rounds": 2})
        assert rc.federation.rounds == 2
        assert rc.federation.seed == 1

    def test_built_config_cannot_change(self):
        rc = parse_flags("--synthetic", "3,10,4,0.3")
        with pytest.raises(FrozenInstanceError):
            rc.out = "elsewhere"
        assert rc.out == "runs/latest"

    def test_config_without_dataset_rejected_when_built(self):
        with pytest.raises(ConfigError, match="no dataset selected"):
            RunConfig(federation=FederationConfig())

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", "rounds": "lots"}))
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(str(path))

    def test_dataset_required(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config(None, {"rounds": 2})

    def test_warmup_cannot_exceed_rounds(self):
        with pytest.raises(ConfigError, match="warmup_rounds"):
            parse_config(None, {"synthetic": "3,10,4,0.3", "rounds": 2, "warmup_rounds": 5})


class TestRunCommand:
    def test_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run1"
        assert main(["run", *fast_flags(out)]) == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "config.resolved.json").exists()

    def test_rounds_csv_schema(self, tmp_path):
        out = tmp_path / "run2"
        main(["run", *fast_flags(out)])
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(ROUNDS_CSV_COLUMNS)
        assert len(lines) == 2 + 3  # schema + header + one row per round

    def test_summary_keys(self, tmp_path):
        out = tmp_path / "run3"
        main(["run", *fast_flags(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == [
            "maua",
            "best_global_acc",
            "final_global_acc",
            "method",
            "granularity",
            "R",
            "alpha_dir",
            "seed",
            "wall_seconds",
        ]
        assert 0.0 <= summary["maua"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", *fast_flags(out_a)])
        main(["run", *fast_flags(out_b)])
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa.pop("wall_seconds")
        sb.pop("wall_seconds")
        assert sa == sb

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--synthetic", "3,30,4,0.3", "--alpha-dir", "-1"])
        assert code == 2
        assert "alpha_dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha-dir", "inf"),
            ("--alpha-dir", "nan"),
            ("--alpha-kd", "nan"),
            ("--alpha-kd", "inf"),
            ("--temperature", "inf"),
            ("--lr", "inf"),
            ("--test-fraction", "nan"),
            ("--synthetic", "3,10,4,nan"),
            ("--synthetic", "3,10,4,inf"),
        ],
    )
    def test_non_finite_flag_exits_2_before_training(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("temperature", float("inf")), ("alpha_kd", float("nan")), ("lr", float("inf")),
         ("alpha_dir", float("-inf")), ("synthetic", [3, 10, 4, float("nan")]),
         ("synthetic", [3, 10, 4, float("inf")])],
    )
    def test_non_finite_json_value_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        # json writes these as the non-standard tokens Infinity / NaN, which it also reads
        cfg.write_text(json.dumps({"synthetic": "3,30,4,0.3", "n_clients": 3, "rounds": 2,
                                   "warmup_rounds": 1, "out": str(out), key: value}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize("value", ["0,10,4,0.3", "3,0,4,0.3", "3,10,0,0.3", "3,10,4,-1",
                                       "3,10,4,-inf"])
    def test_out_of_range_synthetic_exits_2_before_training(self, tmp_path, capsys, value):
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--synthetic", value]) == 2
        assert "synthetic" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize("method", ["hks", "fedavg"])
    def test_divergent_training_exits_with_its_own_code(self, tmp_path, capsys, method):
        out = tmp_path / "run"
        code = main(["run", *fast_flags(out), "--method", method, "--lr", "1e12"])
        assert code == 18
        assert "training diverged" in capsys.readouterr().err

    def test_client_without_local_test_samples_exits_8(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "run", "--synthetic", "10,6,8,0.3", "--method", "fedavg", "--n-clients", "12",
                "--rounds", "1", "--warmup-rounds", "0", "--min-per-client", "1",
                "--batch-size", "1", "--alpha-dir", "0.2", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 8
        assert "client 3 has no local test samples" in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()

    def test_resolved_config_reproduces_run(self, tmp_path):
        out_a = tmp_path / "a"
        main(["run", *fast_flags(out_a, seed="7")])
        resolved = json.loads((out_a / "config.resolved.json").read_text())
        cfg_file = tmp_path / "resolved.json"
        resolved["out"] = str(tmp_path / "b")
        cfg_file.write_text(json.dumps(resolved))
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert (out_a / "rounds.csv").read_bytes() == (tmp_path / "b" / "rounds.csv").read_bytes()


class TestIdxRuns:
    def write_dataset(self, tmp_path, n=150, seed=0, width=16, n_classes=4):
        import numpy as np

        from hks.data import Dataset
        from reference_oracles import write_idx

        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 256, size=(n, width)).astype(float) / 255.0
        labels = np.concatenate(
            [np.arange(n_classes, dtype=np.int64), rng.integers(0, n_classes, size=n - n_classes)]
        )
        ds = Dataset(feats, labels, n_classes)
        write_idx(ds, tmp_path / "imgs.idx", tmp_path / "labs.idx")
        return ds

    @pytest.mark.parametrize(
        "test_set, message",
        [
            (dict(width=20), "test images have 20 pixels, training images 16"),
            (dict(n_classes=3), "test labels reach class 2, training labels only class 1"),
        ],
    )
    def test_mismatched_test_set_is_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, test_set, message
    ):
        import hks.cli

        self.write_dataset(tmp_path, n_classes=2)
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        self.write_dataset(test_dir, n=60, seed=1, **test_set)
        runs = []
        monkeypatch.setattr(hks.cli, "run_experiment", lambda *a: runs.append(a))
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"),
                "--idx-test-images", str(test_dir / "imgs.idx"),
                "--idx-test-labels", str(test_dir / "labs.idx"),
                "--method", "local_only",
                "--n-clients", "3",
                "--rounds", "2",
                "--warmup-rounds", "2",
                "--out", str(out),
            ]
        )
        assert code == 4
        assert message in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_run_with_idx_pair_and_subsample(self, tmp_path):
        self.write_dataset(tmp_path)
        self.write_dataset(tmp_path / ".", n=150, seed=0)
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        self.write_dataset(test_dir, n=60, seed=1)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"),
                "--idx-test-images", str(test_dir / "imgs.idx"),
                "--idx-test-labels", str(test_dir / "labs.idx"),
                "--max-train-samples", "120",
                "--method", "feddistill",
                "--n-clients", "3",
                "--rounds", "2",
                "--warmup-rounds", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "summary.json").exists()

    def test_run_without_test_pair_holds_out_tenth(self, tmp_path):
        self.write_dataset(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"),
                "--method", "local_only",
                "--n-clients", "3",
                "--rounds", "2",
                "--warmup-rounds", "2",
                "--out", str(out),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "extra",
        [
            ["--idx-labels", "nothing.idx"],
            ["--idx-test-images", "nothing.idx", "--idx-test-labels", "nothing2.idx"],
            ["--max-train-samples", "5"],
        ],
    )
    def test_synthetic_run_rejects_idx_keys(self, tmp_path, capsys, extra):
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), *extra]) == 2
        assert "synthetic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--idx-test-images", "--idx-test-labels"])
    def test_half_a_test_pair_is_rejected(self, tmp_path, capsys, given):
        self.write_dataset(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"),
                given, str(tmp_path / "imgs.idx"),
                "--method", "local_only",
                "--n-clients", "3",
                "--rounds", "2",
                "--warmup-rounds", "2",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "idx_test_images" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, code, message",
        [
            ("cut", 5, "compressed file ends before its end marker"),
            ("not-gzip", 3, "not a valid gzip stream"),
        ],
    )
    def test_damaged_gzip_file_exits_with_its_code(self, tmp_path, capsys, damage, code, message):
        self.write_dataset(tmp_path)
        images = (tmp_path / "imgs.idx").read_bytes()
        packed = gzip.compress(images)
        gz = tmp_path / "imgs.idx.gz"
        gz.write_bytes(packed[: len(packed) // 2] if damage == "cut" else images)
        out = tmp_path / "run"
        argv = ["run", "--idx-images", str(gz), "--idx-labels", str(tmp_path / "labs.idx")]
        assert main([*argv, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_idx_file_maps_to_io_exit_code(self, tmp_path):
        code = main(
            [
                "run",
                "--idx-images", str(tmp_path / "missing.idx"),
                "--idx-labels", str(tmp_path / "missing2.idx"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 21


class TestSweepAndReport:
    def test_granularity_sweep_layout(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                *fast_flags(out),
                "--methods", "hks",
                "--granularities", "top,middle,bottom,all",
            ]
        )
        assert code == 0
        run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert run_dirs == ["hks_all_seed0", "hks_bottom_seed0", "hks_middle_seed0", "hks_top_seed0"]
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "method,hyperparameter,seed,maua,best_global_acc,final_global_acc,run_dir"
        assert len(comparison) == 5

    def test_report_renders_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        main(
            [
                "sweep",
                *fast_flags(out),
                "--methods", "local_only,hks",
                "--granularities", "middle",
                "--seeds", "0,1",
            ]
        )
        capsys.readouterr()
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 0
        text = capsys.readouterr().out
        assert "granularity=middle" in text
        assert "local_only" in text
        rows = report_file.read_text().splitlines()
        assert rows[0].startswith("method,hyperparameter,n_seeds")
        assert len(rows) == 3  # header + hks + local_only

    def test_report_rejects_different_configurations_in_one_row(self, tmp_path, capsys):
        out = tmp_path / "runs"
        for alpha in ("1.0", "0.1"):
            run = ["run", *fast_flags(out / f"alpha{alpha}"), "--method", "local_only", "--alpha-dir", alpha]
            assert main(run) == 0
        capsys.readouterr()
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 2
        err = capsys.readouterr().err
        assert "'alpha_dir'" in err and "local_only" in err
        assert not report_file.exists()

    def test_report_rejects_one_seed_twice_in_one_row(self, tmp_path, capsys):
        out = tmp_path / "runs"
        for name in ("first", "second"):
            assert main(["run", *fast_flags(out / name), "--method", "local_only"]) == 0
        capsys.readouterr()
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 2
        err = capsys.readouterr().err
        assert str(out / "first") in err and str(out / "second") in err and "seed 0" in err
        assert not report_file.exists()

    @pytest.mark.parametrize(
        "text",
        ['{"synthetic": [3, 30, 4, 0.3], "alpha_dri": 1.0}',
         '{"synthetic": [3, 30, 4, 0.3], "rounds": -1}',
         '{"synthetic": [3, 30, 4, 0.3],'],
        ids=["unknown-key", "bad-value", "not-json"],
    )
    def test_report_on_unreadable_settings_exits_2(self, tmp_path, capsys, text):
        run_dir = tmp_path / "runs" / "bad"
        assert main(["run", *fast_flags(run_dir), "--method", "local_only"]) == 0
        (run_dir / "config.resolved.json").write_text(text)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 2
        assert str(run_dir) in capsys.readouterr().err

    @pytest.mark.parametrize("drop", [None, "maua", "best_global_acc", "final_global_acc"],
                             ids=["not-json", "no-maua", "no-best", "no-final"])
    def test_report_on_unreadable_summary_exits_3(self, tmp_path, capsys, drop):
        run_dir = tmp_path / "runs" / "bad"
        assert main(["run", *fast_flags(run_dir), "--method", "local_only"]) == 0
        summary_file = run_dir / "summary.json"
        if drop is None:
            summary_file.write_text("{not json")
        else:
            summary = json.loads(summary_file.read_text())
            del summary[drop]
            summary_file.write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 3
        assert str(summary_file) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("maua", "0.5"), ("best_global_acc", True), ("final_global_acc", False),
         ("maua", 1.5), ("best_global_acc", -0.25), ("final_global_acc", float("nan")),
         ("maua", float("inf")), ("maua", [0.5]), ("best_global_acc", {"mean": 0.5})],
        ids=["string", "true", "false", "above-one", "negative", "nan", "inf", "list", "object"],
    )
    def test_report_on_a_summary_value_that_is_not_a_fraction_exits_3(
        self, tmp_path, capsys, key, value
    ):
        run_dir = tmp_path / "runs" / "bad"
        assert main(["run", *fast_flags(run_dir), "--method", "local_only"]) == 0
        summary_file = run_dir / "summary.json"
        summary = json.loads(summary_file.read_text())
        summary[key] = value
        summary_file.write_text(json.dumps(summary))
        capsys.readouterr()
        report_file = tmp_path / "report.csv"
        assert main(["report", str(tmp_path / "runs"), "--out", str(report_file)]) == 3
        err = capsys.readouterr().err
        assert str(summary_file) in err and repr(key) in err
        assert not report_file.exists()

    def test_report_on_empty_dir_fails(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_report_means_the_run_summaries(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        sweep = ["sweep", *fast_flags(out), "--methods", "local_only,hks", "--granularities",
                 "middle", "--seeds", "0,1"]
        assert main(sweep) == 0
        # a run without rounds has null summary values, which report as nan
        assert main(["run", *fast_flags(out / "no_rounds"), "--method", "feddistill",
                     "--rounds", "0", "--warmup-rounds", "0"]) == 0
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 0
        capsys.readouterr()

        by_method: dict[str, list[dict]] = {}
        for summary_file in sorted(out.glob("*/summary.json")):
            summary = json.loads(summary_file.read_text())
            by_method.setdefault(summary["method"], []).append(summary)
        rows = list(csv.DictReader(report_file.read_text().splitlines()))
        assert sorted(row["method"] for row in rows) == sorted(by_method)
        assert [len(by_method[m]) for m in ("local_only", "hks", "feddistill")] == [2, 2, 1]
        for row in rows:
            runs = by_method[row["method"]]
            assert row["n_seeds"] == str(len(runs))
            for column, key in (("maua_mean", "maua"), ("best_global_acc_mean", "best_global_acc"),
                                ("final_global_acc_mean", "final_global_acc")):
                values = [float("nan") if r[key] is None else r[key] for r in runs]
                assert row[column] == _fmt(sum(values) / len(values)), (row["method"], column)
        assert [row["maua_mean"] for row in rows if row["method"] == "feddistill"] == ["nan"]

    @pytest.mark.parametrize(
        "flag, value, repeated",
        [("--methods", "fedcache,local_only,FedCache", "FedCache"),
         ("--granularities", "top,middle,top", "top"),
         ("--R-values", "2,2", "2"),
         ("--seeds", "0,1,0", "0")],
    )
    def test_repeated_sweep_entry_exits_2_before_any_run(self, tmp_path, capsys, flag, value, repeated):
        out = tmp_path / "sweep"
        assert main(["sweep", *fast_flags(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(repeated) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, bad",
        [("--methods", "hks,nope", "nope"),
         ("--granularities", "top,coarse", "coarse"),
         ("--R-values", "2,x", "x"),
         ("--seeds", "0,1.5", "1.5")],
    )
    def test_invalid_sweep_entry_names_the_flag_and_exits_2(self, tmp_path, capsys, flag, value, bad):
        out = tmp_path / "sweep"
        assert main(["sweep", *fast_flags(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} has an invalid entry {bad!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, key, bad",
        [(["--methods", "fedcache", "--R-values", "2,0"], "R", "0"),
         (["--methods", "local_only", "--seeds", "0,-1"], "seed", "-1")],
    )
    def test_out_of_range_sweep_entry_exits_2_before_any_run(self, tmp_path, capsys, flags, key, bad):
        out = tmp_path / "sweep"
        assert main(["sweep", *fast_flags(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: constraint violation on {key!r} (got {bad})\n"
        assert not out.exists()


class TestModuleEntry:
    """`python -m hks.cli` runs the same command line as the console script."""

    def run_module(self, *args):
        src = str(Path(hks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "hks.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_run_writes_rounds_csv(self, tmp_path):
        out = tmp_path / "run"
        proc = self.run_module("run", *fast_flags(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "rounds.csv").exists()

    def test_invalid_flag_value_exits_2(self):
        proc = self.run_module("run", "--synthetic", "3,30,4,0.3", "--alpha-dir", "-1")
        assert proc.returncode == 2
        assert "alpha_dir" in proc.stderr

    def test_divergent_run_exits_18_with_only_the_error_line(self, tmp_path):
        # overflow inside a training step is no floating-point warning; the
        # typed error is the run's one line on stderr
        proc = self.run_module("run", *fast_flags(tmp_path / "run"), "--lr", "1e300")
        assert proc.returncode == 18
        assert proc.stderr.splitlines() == [
            "error: training diverged: non-finite parameters at client 0 in round 0"
        ]


def parse_flags(*argv, cls=RunConfig):
    args = build_parser(cls).parse_args(["run", *argv])
    return parse_config(args.config, flag_overrides(args, cls), cls=cls)


def parse_json(tmp_path, cfg, cls=RunConfig):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return parse_config(str(path), cls=cls)


class TestStrictCoercion:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("exclude_self", "false"),
            ("t_squared_scaling", "no"),
            ("exclude_self", 0),
            ("t_squared_scaling", 1),
            ("exclude_self", None),
        ],
    )
    def test_bool_key_takes_only_json_bools(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"type mismatch on '{key}'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", key: value})

    def test_bool_flags_take_true_and_false(self):
        rc = parse_flags("--synthetic", "3,10,4,0.3", "--exclude-self", "false")
        assert rc.federation.exclude_self is False
        rc = parse_flags("--synthetic", "3,10,4,0.3", "--t-squared-scaling", "true")
        assert rc.federation.kd.t_squared_scaling is True
        with pytest.raises(ConfigError, match="type mismatch on 'exclude_self'"):
            parse_flags("--synthetic", "3,10,4,0.3", "--exclude-self", "no")

    @pytest.mark.parametrize("value", [2.7, True, "2.5", [2], "2"])
    def test_int_key_rejects_bools_and_fractions(self, tmp_path, value):
        with pytest.raises(ConfigError, match="type mismatch on 'rounds'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "rounds": value})

    def test_int_key_accepts_integral_float(self, tmp_path):
        rc = parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "rounds": 2.0, "warmup_rounds": 1})
        assert rc.federation.rounds == 2 and isinstance(rc.federation.rounds, int)

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_float_key_rejects_bool(self, tmp_path, value):
        with pytest.raises(ConfigError, match="type mismatch on 'lr'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "lr": value})

    @pytest.mark.parametrize(
        "value",
        [
            [3.9, 30, 4, 0.3],
            [3, 30, True, 0.3],
            [3, 30, 4, True],
            ["3", 30, 4, 0.3],
            [3, 30, 4, "0.3"],
            [3, None, 4, 0.3],
        ],
    )
    def test_synthetic_entries_follow_the_int_and_float_rules(self, tmp_path, value):
        with pytest.raises(ConfigError, match="type mismatch on 'synthetic'"):
            parse_json(tmp_path, {"synthetic": value})

    @pytest.mark.parametrize(
        "key, value", [("lr", 10**400), ("synthetic", [3, 30, 4, 10**400])], ids=["lr", "synthetic"]
    )
    def test_float_entry_past_float64_range_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synthetic": "3,10,4,0.3", key: value}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert f"type mismatch on '{key}'" in capsys.readouterr().err

    def test_synthetic_accepts_integral_floats_and_int_spread(self, tmp_path):
        rc = parse_json(tmp_path, {"synthetic": [3.0, 30, 4, 1]})
        assert rc.synthetic == (3, 30, 4, 1.0)
        assert [type(v) for v in rc.synthetic] == [int, int, int, float]

    def test_enum_keys_read_lower_cased_values(self, tmp_path):
        rc = parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "method": "FedCache", "fedavg_tier": "LARGE"})
        assert rc.federation.method is Method.FEDCACHE
        assert rc.federation.fedavg_tier is CapacityTier.LARGE
        with pytest.raises(ConfigError, match="unknown granularity 'coarse'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "granularity": "coarse"})

    def test_existing_flag_spellings_and_choices(self):
        rc = parse_flags(
            "--idx-images", "images.idx", "--idx-labels", "labels.idx", "--R", "2",
            "--alpha-dir", "0.5", "--n-clients", "4", "--warmup-rounds", "1", "--batch-size", "4",
            "--max-train-samples", "20",
        )
        fed = rc.federation
        assert (fed.R, fed.alpha_dir, fed.n_clients, fed.warmup_rounds, fed.batch_size) == (2, 0.5, 4, 1, 4)
        assert rc.max_train_samples == 20
        run_p = subcommand_parser("run")
        for key, enum in (("method", Method), ("granularity", Granularity), ("fedavg_tier", CapacityTier)):
            assert option(run_p, key).choices == [m.value for m in enum]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "HKS"])


# One non-default value per config key, in config.resolved.json order.
NON_DEFAULT = {
    "method": "fedcache",
    "granularity": "middle",
    "n_clients": 5,
    "rounds": 7,
    "local_epochs": 2,
    "warmup_rounds": 3,
    "lr": 0.05,
    "batch_size": 4,
    "temperature": 2.0,
    "alpha_kd": 0.5,
    "t_squared_scaling": False,
    "R": 2,
    "alpha_dir": 0.25,
    "seed": 9,
    "exclude_self": False,
    "test_fraction": 0.3,
    "min_per_client": 5,
    "fedavg_tier": "large",
    "d_hash": 16,
    "hnsw_m": 8,
    "hnsw_ef_construction": 50,
    "hnsw_ef_search": 20,
    "linkage": "single",
    "cluster_space": "soft",
    "synthetic": [5, 20, 6, 0.5],
    "idx_images": "other-images.idx",
    "idx_labels": "other-labels.idx",
    "idx_test_images": "test-images.idx",
    "idx_test_labels": "test-labels.idx",
    "max_train_samples": 100,
    "out": "runs/elsewhere",
}
KEYS = [f.key for f in config_fields()]


def subcommand_parser(name, cls=RunConfig):
    sub = next(a for a in build_parser(cls)._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def option(parser, dest):
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action


def declared_default(key):
    """The default that the config dataclass declaring `key` gives it, read
    like `attribute` reads a value."""
    for cls in (KdConfig, FederationConfig, RunConfig):
        for f in fields(cls):
            if f.name == key:
                return f.default.value if isinstance(f.default, Enum) else f.default
    raise AssertionError(f"no config object declares {key!r}")


def attribute(rc, key):
    """The value of `key` read from whichever config object declares it."""
    for obj in (rc.federation.kd, rc.federation, rc):
        if key in {f.name for f in fields(obj)}:
            value = getattr(obj, key)
            return value.value if isinstance(value, Enum) else (
                list(value) if isinstance(value, tuple) else value
            )
    raise AssertionError(f"no config object declares {key!r}")


def flag_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def dataset_base(key):
    """A valid dataset selector for a config that sets `key`."""
    if key == "synthetic":
        return {}
    if key.startswith("idx_") or key == "max_train_samples":
        base = {"idx_images": "images.idx", "idx_labels": "labels.idx"}
        if key.startswith("idx_test_"):
            base.update(idx_test_images="test-images.idx", idx_test_labels="test-labels.idx")
        return base
    return {"synthetic": "3,10,4,0.3"}


@pytest.fixture(scope="module")
def resolved_pairs(tmp_path_factory):
    out = tmp_path_factory.mktemp("schema") / "run"
    assert main(["run", *fast_flags(out)]) == 0
    return json.loads((out / "config.resolved.json").read_text(), object_pairs_hook=list)


class TestSingleSchema:
    def test_keys_follow_the_field_table(self, resolved_pairs):
        assert KEYS == list(NON_DEFAULT)
        assert [k for k, _ in resolved_pairs] == KEYS

    @pytest.mark.parametrize("key", KEYS)
    def test_one_flag_and_one_resolved_key(self, key, resolved_pairs):
        for command in ("run", "sweep"):
            action = option(subcommand_parser(command), key)
            assert action.option_strings == ["--" + key.replace("_", "-")]
        assert [k for k, _ in resolved_pairs].count(key) == 1

    @pytest.mark.parametrize("key", KEYS)
    def test_json_and_flag_reach_the_attribute(self, key, tmp_path):
        value = NON_DEFAULT[key]
        base = dataset_base(key)
        by_json = parse_json(tmp_path, {**base, key: value})
        flags = [x for k, v in base.items() for x in ("--" + k.replace("_", "-"), v)]
        by_flag = parse_flags(*flags, "--" + key.replace("_", "-"), flag_text(value))
        assert declared_default(key) != value
        assert attribute(by_json, key) == value
        assert attribute(by_flag, key) == value
        assert by_json.resolved() == by_flag.resolved()
        assert by_json.resolved()[key] == value

    def test_resolved_config_round_trips(self, tmp_path):
        out = tmp_path / "run"
        extra = ["--exclude-self", "false", "--temperature", "2.5", "--linkage", "complete",
                 "--min-per-client", "3", "--local-epochs", "2", "--test-fraction", "0.25"]
        assert main(["run", *fast_flags(out), *extra]) == 0
        first = (out / "config.resolved.json").read_bytes()
        cfg_file = tmp_path / "resolved.json"
        cfg_file.write_bytes(first)
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert (out / "config.resolved.json").read_bytes() == first


@dataclass(frozen=True)
class _ExtendedFederation(FederationConfig):
    throwaway_knob: float = 0.5


@dataclass(frozen=True)
class _ExtendedRun(RunConfig):
    federation: _ExtendedFederation
    flavor: int = 3


class TestNewFieldNeedsNoOtherEdit:
    def test_field_gets_json_key_flag_and_resolved_entry(self, tmp_path):
        keys = [f.key for f in config_fields(_ExtendedRun)]
        assert keys == [*KEYS[: KEYS.index("synthetic")], "throwaway_knob", *KEYS[KEYS.index("synthetic") :], "flavor"]
        rc = parse_flags(
            "--synthetic", "3,10,4,0.3", "--throwaway-knob", "0.25", "--flavor", "7", cls=_ExtendedRun
        )
        assert (rc.federation.throwaway_knob, rc.flavor) == (0.25, 7)
        assert rc.resolved()["throwaway_knob"] == 0.25 and rc.resolved()["flavor"] == 7
        rc = parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "flavor": 9}, cls=_ExtendedRun)
        assert rc.flavor == 9
        with pytest.raises(ConfigError, match="type mismatch on 'flavor'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "flavor": 1.5}, cls=_ExtendedRun)
        with pytest.raises(ConfigError, match="unknown config key: 'flavor'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "flavor": 9})
