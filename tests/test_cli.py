import argparse
import contextlib
import csv
import gzip
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import hks.errors
from hks.errors import ConfigError, HksError
from hks.federation import FederationConfig, Method
from hks.knowledge import Granularity
from hks.metrics import ExperimentSummary
from hks.models import CapacityTier


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
        assert fed.temperature == 3.0
        assert fed.alpha_kd == 1.5
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
        assert list(summary) == [*(f.name for f in fields(ExperimentSummary)), "wall_seconds"]
        assert list(summary) == ["maua", "best_global_acc", "final_global_acc", "wall_seconds"]
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

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"synthetic": "3,30,4,0.3", "out": "\xff"}')
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1

    def test_zero_rounds_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--rounds", "0", "--warmup-rounds", "0"]) == 2
        assert capsys.readouterr().err == "error: constraint violation on 'rounds' (got 0)\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("extra", [["--alpha-kd", "0"], []])
    @pytest.mark.parametrize("value", ["1e200", "1e155"])
    def test_temperature_whose_square_overflows_exits_2_before_training(
        self, tmp_path, capsys, value, extra
    ):
        # T^2 scales the KD term: an infinite factor is a bad setting, not a
        # training divergence, whatever alpha_kd is
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--temperature", value, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: constraint violation on 'temperature'") and "overflows" in err
        assert not (out / "rounds.csv").exists()

    def test_temperature_with_a_finite_kd_scale_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--temperature", "1e154"]) == 0
        assert (out / "rounds.csv").exists()

    @pytest.mark.parametrize("value", ["1.5e-162", "1e-200", "1e-308"])
    def test_temperature_whose_square_underflows_exits_2_before_training(
        self, tmp_path, capsys, value
    ):
        # a zero T^2 would switch distillation off without a word, and near
        # the smallest floats the softened logits overflow
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--temperature", value]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: constraint violation on 'temperature' (got {value}): T^2 underflows to zero"
        ]
        assert not (out / "rounds.csv").exists()

    def test_temperature_with_the_smallest_positive_square_distills(self, tmp_path):
        # 1.6e-162 squared is the smallest subnormal, 5e-324
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out), "--temperature", "1.6e-162"]) == 0
        with open(out / "rounds.csv", newline="") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        assert float(rows[-1]["mean_kd"]) > 0.0

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

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_header_claiming_more_than_the_file_holds_exits_5(self, tmp_path, capsys, gz):
        # 4294967295 images of 65535 x 65535 pixels: a single read of the
        # declared payload overflows, and reading it whole would exhaust memory
        self.write_dataset(tmp_path)
        images = struct.pack(">IIII", 0x00000803, 2**32 - 1, 65535, 65535) + bytes(10)
        path = tmp_path / ("big.idx.gz" if gz else "big.idx")
        path.write_bytes(gzip.compress(images) if gz else images)
        out = tmp_path / "run"
        argv = ["run", "--idx-images", str(path), "--idx-labels", str(tmp_path / "labs.idx")]
        assert main([*argv, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == f"error: pixel data: expected {(2**32 - 1) * 65535**2} bytes, got 10\n"
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["training", "training-with-test-pair", "test-pair"])
    def test_idx_file_without_images_exits_8(self, tmp_path, capsys, empty):
        self.write_dataset(tmp_path)
        full = [str(tmp_path / "imgs.idx"), str(tmp_path / "labs.idx")]
        blank = [str(tmp_path / "empty-imgs.idx"), str(tmp_path / "empty-labs.idx")]
        Path(blank[0]).write_bytes(struct.pack(">IIII", 0x00000803, 0, 1, 16))
        Path(blank[1]).write_bytes(struct.pack(">II", 0x00000801, 0))
        train, test = {"training": (blank, None), "training-with-test-pair": (blank, full),
                       "test-pair": (full, blank)}[empty]
        out = tmp_path / "run"
        argv = ["run", "--idx-images", train[0], "--idx-labels", train[1]]
        if test is not None:
            argv += ["--idx-test-images", test[0], "--idx-test-labels", test[1]]
        argv += ["--method", "local_only", "--n-clients", "3", "--rounds", "2",
                 "--warmup-rounds", "2", "--out", str(out)]
        assert main(argv) == 8
        assert capsys.readouterr().err == f"error: {blank[0]} holds no images\n"
        assert not out.exists()

    def test_empty_held_out_tenth_exits_8_before_training(self, tmp_path, capsys, monkeypatch):
        import hks.federation

        # One image per class: the stratified tenth held out as the global
        # test set rounds to no images.
        self.write_dataset(tmp_path, n=40, n_classes=40)
        trained = []
        monkeypatch.setattr(hks.federation, "client_train", lambda *a: trained.append(a))
        out = tmp_path / "run"
        argv = ["run", "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"),
                "--n-clients", "1", "--min-per-client", "0", "--out", str(out)]
        assert main(argv) == 8
        err = capsys.readouterr().err
        assert err == "error: a nonempty global test set is required to report rounds\n"
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels, flags, code, line",
        [
            # image 0 is all zeros, so its hash projection is zero
            ([i % 3 for i in range(60)],
             ["--method", "fedcache", "--n-clients", "2", "--rounds", "2", "--batch-size", "2"],
             9, "error: projection collapsed an input to zero"),
            # hks cuts the tree into one cluster per class: 10, over the 8
            # training rows left after the held-out tenth and the local test
            ([0, 9] * 6,
             ["--method", "hks", "--n-clients", "1", "--rounds", "2", "--warmup-rounds", "0",
              "--batch-size", "1", "--min-per-client", "0"],
             11, "error: 8 records cannot be cut into 10 clusters"),
        ],
        ids=["zero-image-exits-9", "fewer-rows-than-classes-exits-11"],
    )
    def test_run_on_an_unusable_idx_pair_prints_one_error_line(
        self, tmp_path, capsys, labels, flags, code, line
    ):
        import numpy as np

        from hks.data import Dataset
        from reference_oracles import write_idx

        n = len(labels)
        feats = np.random.default_rng(0).integers(1, 256, size=(n, 4)) / 255.0
        feats[0] = 0.0
        write_idx(Dataset(feats, np.array(labels), max(labels) + 1),
                  tmp_path / "imgs.idx", tmp_path / "labs.idx")
        out = tmp_path / "run"
        argv = ["run", "--idx-images", str(tmp_path / "imgs.idx"),
                "--idx-labels", str(tmp_path / "labs.idx"), *flags, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and captured.out == ""
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
        assert comparison[0] == (
            "method,hyperparameter,n_seeds,maua_mean,best_global_acc_mean,final_global_acc_mean"
        )
        assert len(comparison) == 5

    def test_sweep_run_directory_names_and_row_labels(self, tmp_path):
        out = tmp_path / "sweep"
        sweep = ["sweep", *fast_flags(out), "--methods", "fedavg,fedcache,hks,local_only",
                 "--granularities", "top", "--R-values", "2", "--fedavg-tier", "medium"]
        assert main(sweep) == 0
        run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert run_dirs == ["fedavg_medium_seed0", "fedcache_R2_seed0", "hks_top_seed0",
                            "local_only_seed0"]
        rows = list(csv.DictReader((out / "comparison.csv").read_text().splitlines()))
        assert [(row["method"], row["hyperparameter"]) for row in rows] == [
            ("fedavg", "fedavg_tier=medium"), ("fedcache", "R=2"), ("hks", "granularity=top"),
            ("local_only", "-"),
        ]

    def test_sweep_comparison_is_the_report_table_of_its_runs(self, tmp_path):
        out = tmp_path / "sweep"
        # a run already in the sweep directory stays out of the sweep's table
        assert main(["run", *fast_flags(out / "earlier"), "--method", "feddistill"]) == 0
        sweep = ["sweep", *fast_flags(out), "--methods", "local_only,fedcache", "--R-values", "4,1",
                 "--seeds", "1,0"]
        assert main(sweep) == 0
        (out / "earlier").rename(tmp_path / "earlier")
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 0
        assert (out / "comparison.csv").read_bytes() == report_file.read_bytes()
        rows = list(csv.DictReader(report_file.read_text().splitlines()))
        assert [(row["method"], row["hyperparameter"], row["n_seeds"]) for row in rows] == [
            ("fedcache", "R=1", "2"), ("fedcache", "R=4", "2"), ("local_only", "-", "2"),
        ]

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

    def test_report_orders_rows_by_the_setting_value(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", *fast_flags(out), "--methods", "fedcache", "--R-values", "16,1,4"]) == 0
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 0
        rows = list(csv.DictReader(report_file.read_text().splitlines()))
        assert [row["hyperparameter"] for row in rows] == ["R=1", "R=4", "R=16"]

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
        [b'{"synthetic": [3, 30, 4, 0.3], "alpha_dri": 1.0}',
         b'{"synthetic": [3, 30, 4, 0.3], "rounds": -1}',
         b'{"synthetic": [3, 30, 4, 0.3],',
         b'{"synthetic": [3, 30, 4, 0.3], "out": "\xff"}'],
        ids=["unknown-key", "bad-value", "not-json", "not-utf8"],
    )
    def test_report_on_unreadable_settings_exits_2(self, tmp_path, capsys, text):
        run_dir = tmp_path / "runs" / "bad"
        assert main(["run", *fast_flags(run_dir), "--method", "local_only"]) == 0
        (run_dir / "config.resolved.json").write_bytes(text)
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: run {run_dir}: ") and err.count("\n") == 1

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
         ("maua", float("inf")), ("maua", [0.5]), ("best_global_acc", {"mean": 0.5}),
         ("maua", None)],
        ids=["string", "true", "false", "above-one", "negative", "nan", "inf", "list", "object",
             "null"],
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
        assert main(["run", *fast_flags(out / "feddistill"), "--method", "feddistill"]) == 0
        report_file = tmp_path / "report.csv"
        assert main(["report", str(out), "--out", str(report_file)]) == 0
        capsys.readouterr()

        by_method: dict[str, list[dict]] = {}
        for summary_file in sorted(out.glob("*/summary.json")):
            summary = json.loads(summary_file.read_text())
            method = json.loads((summary_file.parent / "config.resolved.json").read_text())["method"]
            by_method.setdefault(method, []).append(summary)
        rows = list(csv.DictReader(report_file.read_text().splitlines()))
        assert sorted(row["method"] for row in rows) == sorted(by_method)
        assert [len(by_method[m]) for m in ("local_only", "hks", "feddistill")] == [2, 2, 1]
        for row in rows:
            runs = by_method[row["method"]]
            assert row["n_seeds"] == str(len(runs))
            for column, key in (("maua_mean", "maua"), ("best_global_acc_mean", "best_global_acc"),
                                ("final_global_acc_mean", "final_global_acc")):
                values = [r[key] for r in runs]
                assert row[column] == _fmt(sum(values) / len(values)), (row["method"], column)

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
        "flags, flag, methods",
        [(["--methods", "local_only", "--granularities", "top", "--R-values", "1,4"],
          "--granularities", "'local_only'"),
         (["--methods", "local_only,fedavg", "--R-values", "1,4"], "--R-values", "'local_only', 'fedavg'"),
         (["--granularities", "top", "--R-values", "2"], "--R-values", "'hks'"),
         (["--methods", "fedcache,feddistill", "--granularities", "top,all"], "--granularities",
          "'fedcache', 'feddistill'")],
        ids=["local_only-granularities", "local_only-fedavg-R", "hks-R", "fedcache-feddistill-granularities"],
    )
    def test_sweep_list_no_listed_method_reads_exits_2_before_any_run(
        self, tmp_path, capsys, flags, flag, methods
    ):
        out = tmp_path / "sweep"
        assert main(["sweep", *fast_flags(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: '{flag}' does not apply to the methods {methods}\n"
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


# The exit code of every error type; 10, 12, 13, 14, 15 and 16 are retired,
# and 19 and 21 are the codes of MemoryError and of any other OSError.
EXIT_CODES = {
    "ConfigError": 2, "FormatError": 3, "ConsistencyError": 4, "TruncatedFileError": 5,
    "InfeasiblePartitionError": 6, "EmptyShardError": 7, "EmptyDatasetError": 8,
    "DegenerateInputError": 9, "InsufficientDataError": 11, "InvalidInputError": 17,
    "DivergenceError": 18, "HksError": 20,
}
OTHER_EXIT_CODES = {"MemoryError": 19, "OSError": 21}


class TestExitCodes:
    def test_every_error_type_has_its_own_code(self):
        types = [v for v in vars(hks.errors).values() if isinstance(v, type) and issubclass(v, HksError)]
        codes = {cls.__name__: cls.exit_code for cls in types}
        assert codes == EXIT_CODES
        assert len(set(codes.values()) | set(OTHER_EXIT_CODES.values())) == len(codes) + 2

    @pytest.mark.parametrize(
        "exc, code, line",
        [*((getattr(hks.errors, name)("boom"), code, "error: boom")
           for name, code in EXIT_CODES.items()),
         (MemoryError("boom"), 19, "error: out of memory: boom"),
         (FileNotFoundError("boom"), 21, "error: boom")],
        ids=[*EXIT_CODES, "MemoryError", "OSError"],
    )
    def test_main_returns_the_code_with_one_error_line(
        self, tmp_path, capsys, monkeypatch, exc, code, line
    ):
        import hks.cli

        def fail(rc):
            raise exc

        monkeypatch.setattr(hks.cli, "load_experiment_data", fail)
        out = tmp_path / "run"
        assert main(["run", *fast_flags(out)]) == code
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        import hks.cli

        def fail(rc):
            raise KeyError("boom")

        monkeypatch.setattr(hks.cli, "load_experiment_data", fail)
        with pytest.raises(KeyError):
            main(["run", *fast_flags(tmp_path / "run")])

    def test_readme_table_lists_every_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Exit codes\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| ") and line[2].isdigit()]
        table = {kind.strip().strip("`"): int(code) for code, kind in rows}
        assert len(table) == len(rows)
        assert table == {**EXIT_CODES, **OTHER_EXIT_CODES}


# Settings that no longer exist, each with a value it once took.
RETIRED_KEYS = {
    "hnsw_m": 8,
    "hnsw_ef_construction": 64,
    "hnsw_ef_search": 32,
    "cluster_space": "logits",
    "t_squared_scaling": True,
}


class TestRetiredKeys:
    """A retired setting is rejected with exit 2, naming the key, whether it
    comes as a flag, in a settings file or in an old run directory's
    settings: fedcache's neighbours come from an exact search (no HNSW
    settings), the tree is always built on raw logits, and the KD term
    always carries T^2."""

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_flag_exits_2(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", *fast_flags(out), flag, flag_text(RETIRED_KEYS[key])])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_config_file_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synthetic": "3,30,4,0.3", key: RETIRED_KEYS[key]}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: unknown config key: {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_report_over_a_run_holding_the_key_exits_2(self, tmp_path, capsys, key):
        run_dir = tmp_path / "runs" / "old"
        assert main(["run", *fast_flags(run_dir)]) == 0
        settings_file = run_dir / "config.resolved.json"
        settings = json.loads(settings_file.read_text())
        settings_file.write_text(json.dumps({**settings, key: RETIRED_KEYS[key]}))
        capsys.readouterr()
        assert main(["report", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: run {run_dir}: unknown config key: {key!r}\n"


class TestModuleEntry:
    """`python -m hks.cli` runs the same command line as the console script."""

    def run_module(self, *args, python_flags=()):
        src = str(Path(hks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, *python_flags, "-m", "hks.cli", *args],
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

    @pytest.mark.parametrize("value", ["1e-200", "1e-308"])
    def test_temperature_whose_square_underflows_exits_2_under_warnings_as_errors(
        self, tmp_path, value
    ):
        proc = self.run_module(
            "run", "--synthetic", "3,30,4,0.3", "--method", "hks", "--n-clients", "3",
            "--rounds", "4", "--warmup-rounds", "1", "--temperature", value,
            "--out", str(tmp_path / "run"), python_flags=("-W", "error"),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: constraint violation on 'temperature' (got {value}): T^2 underflows to zero"
        ]

    def test_divergent_run_exits_18_with_only_the_error_line(self, tmp_path):
        # overflow inside a training step is no floating-point warning; the
        # typed error is the run's one line on stderr
        proc = self.run_module("run", *fast_flags(tmp_path / "run"), "--lr", "1e300")
        assert proc.returncode == 18
        assert proc.stderr.splitlines() == [
            "error: training diverged: non-finite parameters at client 0 in round 0"
        ]

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--synthetic", "3,10,4,1e308", "--method", "local_only", "--rounds", "1"],
             "error: features contain non-finite values"),
            (["--synthetic", "3,20,4,1e155", "--method", "fedcache", "--rounds", "3",
              "--warmup-rounds", "1", "--batch-size", "2", "--lr", "1e-300"],
             "error: features are too large to hash: projection norms overflow"),
        ],
        ids=["blob-features", "fedcache-hash-norms"],
    )
    def test_overflowing_features_exit_17_with_only_the_error_line(self, tmp_path, flags, line):
        # the overflow itself is no floating-point warning; the typed error
        # is the run's one line on stderr
        proc = self.run_module("run", *flags, "--n-clients", "2", "--out", str(tmp_path / "run"))
        assert proc.returncode == 17
        assert proc.stderr.splitlines() == [line]

    def test_divergence_after_an_overflowing_loss_prints_only_the_error_line(self, tmp_path):
        # alpha_kd * kd overflows in the rounds before the parameters do; no
        # loss sum may warn on the way to the typed error
        proc = self.run_module(
            "run", "--synthetic", "4,20,3,1e150", "--method", "fedcache", "--n-clients", "7",
            "--lr", "1e-300", "--temperature", "1e8", "--alpha-kd", "1e300", "--alpha-dir", "1e6",
            "--exclude-self", "false", "--test-fraction", "0.01", "--min-per-client", "1",
            "--linkage", "complete", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 18
        assert proc.stderr.splitlines() == [
            "error: training diverged: non-finite parameters at client 0 in round 10"
        ]


# Prints whether `import numpy` alone loads numpy.ma, then whether a whole
# run of the method in argv[1] has loaded it.
_MASKED_PROBE = """
import sys
import numpy
print("numpy.ma" in sys.modules)
from hks.cli import main
assert main(["run", "--method", sys.argv[1], *sys.argv[2:]]) == 0
print("numpy.ma" in sys.modules)
"""


class TestNoMaskedArrays:
    """numpy loads `numpy.ma` lazily, at a cost of several milliseconds, on
    the first `np.unique` and a few other calls; no run needs it."""

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_a_run_never_imports_numpy_ma(self, tmp_path, method):
        src = str(Path(hks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        flags = ["--synthetic", "3,40,6,0.3", "--n-clients", "3", "--rounds", "4",
                 "--warmup-rounds", "1", "--out", str(tmp_path / "run")]
        proc = subprocess.run(
            [sys.executable, "-c", _MASKED_PROBE, method, *flags],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        at_import, after_run = lines[0], lines[-1]
        if at_import == "True":
            pytest.skip("this numpy loads numpy.ma on import")
        assert after_run == "False"


def parse_flags(*argv, cls=RunConfig):
    args = build_parser(cls).parse_args(["run", *argv])
    return parse_config(args.config, flag_overrides(args, cls), cls=cls)


def parse_json(tmp_path, cfg, cls=RunConfig):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return parse_config(str(path), cls=cls)


class TestStrictCoercion:
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_bool_key_takes_only_json_bools(self, tmp_path, value):
        with pytest.raises(ConfigError, match="type mismatch on 'exclude_self'"):
            parse_json(tmp_path, {"synthetic": "3,10,4,0.3", "exclude_self": value})

    def test_bool_flags_take_true_and_false(self):
        rc = parse_flags("--synthetic", "3,10,4,0.3", "--exclude-self", "false")
        assert rc.federation.exclude_self is False
        rc = parse_flags("--synthetic", "3,10,4,0.3", "--exclude-self", "true")
        assert rc.federation.exclude_self is True
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
    "R": 2,
    "alpha_dir": 0.25,
    "seed": 9,
    "exclude_self": False,
    "test_fraction": 0.3,
    "min_per_client": 5,
    "fedavg_tier": "large",
    "d_hash": 16,
    "linkage": "single",
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
    for cls in (FederationConfig, RunConfig):
        for f in fields(cls):
            if f.name == key:
                return f.default.value if isinstance(f.default, Enum) else f.default
    raise AssertionError(f"no config object declares {key!r}")


def attribute(rc, key):
    """The value of `key` read from whichever config object declares it."""
    for obj in (rc.federation, rc):
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

    def test_a_written_settings_file_reads_back_to_the_same_bytes(self, tmp_path):
        # config.resolved.json as runs write it, pinned: every key in the
        # field-table order, the distillation settings at non-default values
        # beside the other federation keys
        text = """{
  "method": "feddistill",
  "granularity": "all",
  "n_clients": 20,
  "rounds": 18,
  "local_epochs": 1,
  "warmup_rounds": 10,
  "lr": 0.01,
  "batch_size": 8,
  "temperature": 1.1,
  "alpha_kd": 0.7,
  "R": 4,
  "alpha_dir": 1.0,
  "seed": 0,
  "exclude_self": true,
  "test_fraction": 0.2,
  "min_per_client": 16,
  "fedavg_tier": "small",
  "d_hash": 32,
  "linkage": "average",
  "synthetic": [
    3,
    30,
    4,
    0.3
  ],
  "idx_images": null,
  "idx_labels": null,
  "idx_test_images": null,
  "idx_test_labels": null,
  "max_train_samples": null,
  "out": "runs/pinned"
}
"""
        path = tmp_path / "config.resolved.json"
        path.write_text(text)
        rc = parse_config(str(path))
        assert (rc.federation.temperature, rc.federation.alpha_kd) == (1.1, 0.7)
        assert list(rc.resolved().items()) == list(json.loads(text).items())
        assert len(rc.resolved()) == 26
        assert json.dumps(rc.resolved(), indent=2) + "\n" == text

    def test_readme_table_lists_every_key_and_flag_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        cells = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        # a cell may name several keys or flags, as in `idx_images` / `idx_labels`
        keys = [k for key_cell, _ in cells for k in key_cell.replace("`", "").split(" / ")]
        flags = [f for _, flag_cell in cells for f in flag_cell.replace("`", "").split(" / ")]
        assert [k.strip() for k in keys] == KEYS
        assert [f.strip() for f in flags] == [f.flag for f in config_fields()]

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_resolved_config_round_trips(self, tmp_path, method):
        # a run from a run's config.resolved.json, into another directory,
        # writes the same files; only the wall time and the directory differ
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        extra = ["--method", method, "--exclude-self", "false", "--temperature", "2.5",
                 "--linkage", "complete", "--granularity", "middle", "--R", "2",
                 "--fedavg-tier", "medium", "--min-per-client", "3", "--local-epochs", "2",
                 "--test-fraction", "0.25"]
        assert main(["run", *fast_flags(out_a), *extra]) == 0
        resolved = out_a / "config.resolved.json"
        assert main(["run", "--config", str(resolved), "--out", str(out_b)]) == 0
        settings = resolved.read_text().replace(json.dumps(str(out_a)), json.dumps(str(out_b)))
        assert (out_b / "config.resolved.json").read_text() == settings
        assert (out_b / "rounds.csv").read_bytes() == (out_a / "rounds.csv").read_bytes()

        def summary(out):
            lines = (out / "summary.json").read_text().splitlines()
            return [line for line in lines if not line.startswith('  "wall_seconds": ')]

        assert summary(out_b) == summary(out_a)
        assert len(summary(out_a)) == len((out_a / "summary.json").read_text().splitlines()) - 1


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


@st.composite
def run_invocations(draw):
    """`hks run` argument lists on tiny blob tasks sized from their settings,
    so most cases train: every method, 1-6 clients, batch sizes and local
    epochs that leave shards full and short batches, at most 3 rounds,
    and now and then a step size or skew that makes a run fail."""
    method = draw(st.sampled_from([m.value for m in Method]))
    n_clients = draw(st.integers(1, 6))
    batch_size = draw(st.integers(1, 6))
    rounds = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 4))
    # room for every client's 2 * batch_size samples, times a slack of 1-3
    per_class = -(-n_clients * 2 * batch_size * draw(st.integers(2, 6)) // (2 * n_classes))
    argv = [
        "run",
        "--synthetic", f"{n_classes},{per_class},3,{draw(st.sampled_from([0.0, 0.3, 2.0]))}",
        "--method", method,
        "--n-clients", str(n_clients),
        "--batch-size", str(batch_size),
        "--local-epochs", str(draw(st.integers(1, 3))),
        "--rounds", str(rounds),
        "--warmup-rounds", str(draw(st.integers(0, rounds))),
        "--lr", "1e300" if draw(st.integers(0, 7)) == 0 else draw(st.sampled_from(["0.05", "0.3"])),
        "--alpha-dir", draw(st.sampled_from(["0.1", "1.0", "100"])),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    if method == "hks":
        argv += ["--granularity", draw(st.sampled_from([g.value for g in Granularity]))]
        argv += ["--linkage", draw(st.sampled_from(["average", "single", "complete"]))]
    if method == "fedcache":
        argv += ["--R", str(draw(st.integers(1, 5)))]
    return argv, rounds


class TestRunInvocations:
    """Every `hks run` ends in exit 0 with its outputs, or in one `error:`
    line and a code from the README table; no warning or traceback leaks."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(run_invocations())
    # blob features that overflow to inf, and fedcache hashes whose norms do
    @example((["run", "--synthetic", "3,10,4,1e308", "--method", "local_only",
               "--n-clients", "2", "--rounds", "1"], 1))
    @example((["run", "--synthetic", "3,20,4,1e155", "--method", "fedcache",
               "--n-clients", "2", "--rounds", "3", "--warmup-rounds", "1",
               "--batch-size", "2", "--lr", "1e-300"], 3))
    def test_exit_code_and_outputs(self, case):
        argv, rounds = case
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            out, err = io.StringIO(), io.StringIO()
            run_dir = Path(tmp) / "run"
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(run_dir)])
            # the README table holds exactly these codes (TestExitCodes)
            assert code in {0, *EXIT_CODES.values(), *OTHER_EXIT_CODES.values()}, argv
            if code != 0:
                lines = err.getvalue().splitlines(keepends=True)
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
                assert lines[0].endswith("\n") and out.getvalue() == ""
                return
            assert err.getvalue() == "", argv
            summary = json.loads((run_dir / "summary.json").read_text())
            for key in ("maua", "best_global_acc", "final_global_acc"):
                assert 0.0 <= summary[key] <= 1.0, (argv, key)
            with open(run_dir / "rounds.csv", newline="") as f:
                rows = list(csv.reader(line for line in f if not line.startswith("#")))
            assert [row[0] for row in rows[1:]] == [str(t) for t in range(rounds)], argv


def rarely(draw):
    """True about one time in ten; hypothesis favours the ends of a range,
    so the mark is in its middle."""
    return draw(st.integers(0, 9)) == 5


def sweep_entries(draw, valid, bad, min_size=0):
    """Up to 3 distinct entries of a sweep list; rarely one more that
    repeats the first or is `bad`."""
    values = draw(st.lists(st.sampled_from(valid), min_size=min_size, max_size=3, unique=True))
    if values and rarely(draw):
        values.append(draw(st.sampled_from([values[0], *bad])))
    return values


@st.composite
def sweep_invocations(draw):
    """`hks sweep` argument lists on tiny blob tasks: 1-3 methods, and the
    granularity, R and seed lists absent or holding 1-3 entries. Rarely an
    entry repeats, does not parse or is out of range, a list goes to no
    listed method, or the step size diverges."""
    methods = sweep_entries(draw, [m.value for m in Method], [], min_size=1)
    n_clients = draw(st.integers(1, 4))
    batch_size = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 2))
    # every client gets at least 5 samples, so it keeps one to test on
    per_class = -(-n_clients * 5 * draw(st.integers(2, 4)) // 3)
    argv = [
        "sweep",
        "--synthetic", f"3,{per_class},3,0.3",
        "--methods", ",".join(methods),
        "--n-clients", str(n_clients),
        "--batch-size", str(batch_size),
        "--min-per-client", "5",
        "--rounds", str(rounds),
        "--warmup-rounds", str(draw(st.integers(0, rounds))),
        "--lr", "1e300" if rarely(draw) else "0.1",
    ]
    lists = (
        ("--granularities", "hks", [g.value for g in Granularity], ["coarse"]),
        ("--R-values", "fedcache", ["1", "2", "3"], ["0", "x"]),
        ("--seeds", None, ["0", "1", "2"], ["-1"]),
    )
    for flag, reader, valid, bad in lists:
        values = sweep_entries(draw, valid, bad)
        if values and (reader in (None, *methods) or rarely(draw)):
            argv += [flag, ",".join(values)]
    return argv


def swept_rows(argv):
    """The (method, hyperparameter, n_seeds) rows that a successful sweep's
    comparison.csv holds, worked out from its argument list."""
    args = dict(zip(argv[1::2], argv[2::2]))
    n_seeds = len(args.get("--seeds", "0").split(","))
    swept = {
        "hks": [f"granularity={g}" for g in args.get("--granularities", "all").split(",")],
        "fedcache": [f"R={r}" for r in sorted(map(int, args.get("--R-values", "4").split(",")))],
        "fedavg": ["fedavg_tier=small"],
    }
    return sorted(
        (method, label, str(n_seeds))
        for method in args["--methods"].split(",")
        for label in swept.get(method, ["-"])
    )


class TestSweepInvocations:
    """Every `hks sweep`, and `hks report` over what it leaves, ends in exit
    0 with one comparison row per method and swept value, or in one
    `error:` line and a code from the README table."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sweep_invocations())
    def test_exit_codes_and_comparison_rows(self, argv):
        codes = {0, *EXIT_CODES.values(), *OTHER_EXIT_CODES.values()}
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep_dir, report_file = Path(tmp) / "sweep", Path(tmp) / "report.csv"
            results = []
            for command in ([*argv, "--out", str(sweep_dir)],
                            ["report", str(sweep_dir), "--out", str(report_file)]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(command)
                assert code in codes, command
                lines = err.getvalue().splitlines(keepends=True)
                if code != 0:
                    assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                    assert lines[0].endswith("\n")
                else:
                    assert lines == [], command
                results.append(code)
            if results[0] != 0:
                return
            assert results[1] == 0, argv
            comparison = (sweep_dir / "comparison.csv").read_bytes()
            assert report_file.read_bytes() == comparison
            rows = list(csv.DictReader(comparison.decode("ascii").splitlines()))
            got = sorted((row["method"], row["hyperparameter"], row["n_seeds"]) for row in rows)
            assert got == swept_rows(argv), argv
