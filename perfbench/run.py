"""hks benchmark runner.

    python3 perfbench/run.py --workload hks-scaled [--seed 0] [--seconds 40] [--trace 0|1]
    python3 perfbench/run.py --workload all

Runs one workload (see workloads.py) for about `--seconds` seconds as a
sequence of repetitions. Each repetition is a fresh child process
(`rep.py`) that runs the whole simulation once, with BLAS pinned to one
thread. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics (medians over repetitions; times in
reference-host seconds, see hostclock.py). With `--trace 1`
repetitions alternate untraced and traced, and the metrics are the
per-layer ones from the traced repetitions plus `trace.overhead_s`.

A repetition fails when it raises, when an accuracy is non-finite or
outside [0, 1], when its `rounds.csv` differs from the run's first
repetition, or (traced) when its spans do not nest. Details of every
repetition, the `rounds.csv` sha256 and the environment are written to
`.perfbench_out/<workload>-seed<seed>-trace<t>/result.json` in the
checkout. Run from the root of a checkout that contains `src/hks`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Every child must be done before the run's exit deadline.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "rounds_s": "s",
    "run_s": "s",
    "distill_round_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "maua": "fraction",
    "final_global_acc": "fraction",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_rep(workload: str, seed: int, out_dir: Path, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out", str(out_dir)] + (["--trace"] if traced else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "wall_s": time.perf_counter() - start,
                "problems": [f"repetition timed out after {timeout:.0f} s"]}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"traced": traced, "wall_s": wall, "problems": [f"repetition raised: {tail[0]}"]}
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"traced": traced, "wall_s": wall, "problems": ["repetition printed no result"]}
    rep["wall_s"] = wall
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions for about `seconds`; returns the result with every repetition."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    reps: list[dict] = []
    longest = 0.0
    while True:
        # Traced runs alternate an untraced and a traced repetition.
        step_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            elapsed = time.perf_counter() - start
            reps.append(
                run_rep(workload, seed, run_dir / f"rep{len(reps)}", traced, HARD_LIMIT_S - elapsed)
            )
        longest = max(longest, time.perf_counter() - step_start)
        elapsed = time.perf_counter() - start
        # Start another step only if it should end less than half a step
        # past the deadline.
        if elapsed + longest / 2 > seconds or elapsed + longest > HARD_LIMIT_S:
            break

    reference = next((r["rounds_csv_sha256"] for r in reps if "rounds_csv_sha256" in r), None)
    for r in reps:
        if "rounds_csv_sha256" in r and r["rounds_csv_sha256"] != reference:
            r["problems"].append("rounds.csv differs from the first repetition of this seed")
    ok = [r for r in reps if not r["problems"]]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "rounds_csv_sha256": reference,
        "host_factor": statistics.median(r["host_factor"] for r in ok) if ok else None,
        "environment": next((r["environment"] for r in reps if "environment" in r), None),
        "repetitions": reps,
    }
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if trace:
        if traced and untraced:
            layers = {
                name: statistics.median(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            layers["trace.overhead_s"] = statistics.median(
                r["metrics"]["run_s"] for r in traced
            ) - statistics.median(r["metrics"]["run_s"] for r in untraced)
            result["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    elif untraced:
        result["metrics"] = {
            name: {"value": statistics.median(r["metrics"][name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        result["raw_metrics"] = {
            name: statistics.median(r["raw_metrics"][name] for r in untraced)
            for name in untraced[0]["raw_metrics"]
        }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    return result


def summary_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0 and "metrics" in result,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result.get("metrics", {}),
    }


def print_details(result: dict) -> None:
    env = result["environment"] or {}
    print(
        f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
        f"repetitions={result['attempted']} failed={result['failed']} "
        f"rounds.csv sha256={result['rounds_csv_sha256']}"
    )
    print(f"# nproc={env.get('nproc')} python={env.get('python')} numpy={env.get('numpy')} "
          f"blas={env.get('blas')} host_factor={result['host_factor'] or 0:.4f}")
    for r in result["repetitions"]:
        for problem in r["problems"]:
            print(f"# FAILED repetition: {problem}")
    for name, m in result.get("metrics", {}).items():
        print(f"{result['workload']:>14}  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.get("raw_metrics", {}).items():
        print(f"{result['workload']:>14}  {name + ' (wall clock)':<34} {value:>14.6g}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hks" / "__init__.py").is_file():
        print(f"error: no hks sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        print_details(result)
    if len(results) == 1:
        line = summary_line(results[0])
    else:
        lines = [summary_line(r) for r in results]
        line = {
            "correct": all(s["correct"] for s in lines),
            "attempted": sum(s["attempted"] for s in lines),
            "failed": sum(s["failed"] for s in lines),
            "metrics": {
                f"{r['workload']}/{name}": m for r, s in zip(results, lines) for name, m in s["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
