"""One repetition: run one workload's simulation to completion in this process.

    python3 perfbench/rep.py --workload hks-scaled --seed 0 --out DIR [--trace]

Goes through the public library API in the order a `hks run` user pays for:
data generation, `init_federation`, `run_round` for every round, `summarize`
and `hks.cli.write_run_outputs`. Prints one JSON object with the
end-to-end metrics of this repetition, its per-round times, the accuracy
checks and the sha256 of `rounds.csv`.

Times are reported in reference-host seconds: `hostclock.HostClock`
samples the host's speed throughout the run and weights each stretch of wall
time by it (see hostclock.py). The wall-clock seconds are kept under
`raw_metrics`. With `--trace` every
layer boundary is wrapped by `tracer.Tracer` and the JSON also carries the
per-layer metrics; the spans go to `DIR/spans.jsonl`.

`run.py` starts this in a fresh process per repetition; `src/` of the
checkout must be on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostclock import HostClock
from tracer import Tracer, check_spans, layer_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def accuracy_problems(reports, summary) -> list[str]:
    values = [("maua", summary.maua), ("final_global_acc", summary.final_global_acc)]
    for r in reports:
        values += [(f"round {r.round} local", v) for v in r.per_client_local_acc]
        values += [(f"round {r.round} global", v) for v in r.global_acc_per_client]
    return [
        f"{what} accuracy {v!r} is not a finite value in [0, 1]"
        for what, v in values
        if v is None or not math.isfinite(v) or not 0.0 <= v <= 1.0
    ]


def run(spec: Workload, seed: int, out_dir: Path, trace: bool) -> dict:
    import hks

    if Path(hks.__file__).resolve().parent != ROOT / "src" / "hks":
        raise RuntimeError(f"imported hks from {hks.__file__}, not from this checkout's src/")
    import hks.cli as cli
    import hks.federation as federation
    import hks.metrics as metrics

    rc = cli.RunConfig(
        federation=federation.FederationConfig(seed=seed, **spec.federation),
        synthetic=spec.synthetic,
        out=str(out_dir),
    )
    cfg = rc.federation
    tracer = Tracer().install() if trace else None
    clock = HostClock().start()
    try:
        t0 = time.perf_counter()
        train, global_test = cli.load_experiment_data(rc)
        state = federation.init_federation(cfg, train, global_test)
        t1 = time.perf_counter()
        if tracer:
            tracer.label_reads = lambda: state.cache.label_reads
        reports, round_marks = [], []
        for _ in range(cfg.rounds):
            r0 = time.perf_counter()
            reports.append(federation.run_round(state))
            round_marks.append((r0, time.perf_counter()))
        t2 = time.perf_counter()
        summary = metrics.summarize(reports)
        result = federation.ExperimentResult(reports=reports, summary=summary, state=state)
        cli.write_run_outputs(out_dir, rc, result, t2 - t0)
        t3 = time.perf_counter()
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()

    rounds_csv = (out_dir / "rounds.csv").read_bytes()
    (out_dir / "hostclock.json").write_text(json.dumps({
        "samples": clock.samples, "setup": [t0, t1], "rounds": round_marks, "write": [t2, t3],
    }), encoding="ascii")
    train_samples = sum(len(c.shard.train) for c in state.clients) * cfg.local_epochs * cfg.rounds

    def times(span) -> dict:
        setup_s, rounds = span(t0, t1), [span(r0, r1) for r0, r1 in round_marks]
        rounds_s = sum(rounds)
        return {
            "setup_s": setup_s,
            "rounds_s": rounds_s,
            "run_s": setup_s + rounds_s + span(t2, t3),
            "distill_round_s": statistics.median(rounds[cfg.warmup_rounds:] or rounds),
            "samples_per_s": train_samples / rounds_s,
        }

    out = {
        "workload": spec.name,
        "seed": seed,
        "traced": trace,
        "metrics": {
            **times(clock.adjusted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "maua": summary.maua,
            "final_global_acc": summary.final_global_acc,
        },
        "raw_metrics": times(lambda a, b: b - a),
        "host_factor": clock.factor(),
        "host_samples": len(clock.samples),
        "round_s": [clock.adjusted(r0, r1) for r0, r1 in round_marks],
        "rounds_csv_sha256": hashlib.sha256(rounds_csv).hexdigest(),
        "problems": accuracy_problems(reports, summary),
        "environment": environment(),
    }
    if tracer:
        out["problems"] += check_spans(tracer.spans)
        # Span bounds in adjusted time; the map is monotone, so nesting holds.
        spans = [[i, p, n, clock.adjusted(t0, a), clock.adjusted(t0, b), x]
                 for i, p, n, a, b, x in tracer.spans]
        out["layers"] = layer_metrics(spans, state.cache.label_reads)
        with open(out_dir / "spans.jsonl", "w", encoding="ascii") as f:
            for s in tracer.spans:
                f.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end", "attrs"), s))) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
