"""BENCHMARK.json agrees with run.py, run.py refuses a bare directory, and
the host-speed-adjusted clock behaves.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

from hostclock import CALIB_REF_S, HostClock, calibrate  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_run_py_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


def test_run_py_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "fedcache-ref", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _clock(samples):
    clock = HostClock()
    clock.samples = samples
    clock._build()
    return clock


def test_adjusted_time_leaves_out_the_kernel_and_follows_its_speed():
    # Kernel at reference speed: wall time minus the time spent sampling.
    clock = _clock([(t, t + 0.01, CALIB_REF_S) for t in (0.0, 1.0, 2.0, 3.0)])
    assert clock.adjusted(0.5, 2.5) == pytest.approx(2.0 - 2 * 0.01)
    assert clock.adjusted(1.002, 1.008) == 0.0
    # Kernel twice as slow everywhere: half the wall time.
    clock = _clock([(t, t + 0.01, 2 * CALIB_REF_S) for t in (0.0, 1.0, 2.0, 3.0)])
    assert clock.adjusted(0.5, 2.5) == pytest.approx((2.0 - 2 * 0.01) / 2)
    # Beyond the first and last sample the nearest factor applies.
    assert clock.adjusted(-1.0, 0.0) == pytest.approx(0.5)
    assert clock.adjusted(3.01, 4.01) == pytest.approx(0.5)


def test_each_stretch_takes_the_speed_of_its_nearest_sample():
    clock = _clock([(0.0, 0.01, CALIB_REF_S), (1.0, 1.01, 2 * CALIB_REF_S)])
    # 0.01 to 0.505 at full speed, 0.505 to 1.0 at half speed.
    assert clock.adjusted(0.01, 1.0) == pytest.approx(0.495 + 0.495 / 2)


def test_clock_samples_while_the_program_runs():
    clock = HostClock(period=0.05).start()
    import time

    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.4:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.stop()
    assert len(clock.samples) >= 4
    assert 0.0 < clock.adjusted(t0, t1) < 10 * (t1 - t0)


def test_calibration_kernel_takes_milliseconds():
    calibrate()
    assert 0.0001 < calibrate() < 0.1
