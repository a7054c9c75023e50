#!/usr/bin/env python3
"""Synthetic method comparison mirroring the headline results table.

Sweeps every method (FedAvg homogeneous, FedDistill, FedCache over R, the
hierarchical method over all four granularities, plus the local-only control)
across seeds on one synthetic task. The sweep prints the MAUA /
global-accuracy table of its runs and writes it to OUT/comparison.csv.

Usage:
    python scripts/compare_methods.py [--out runs/comparison] [--seeds 0,1,2]
                                      [--alpha-dir 0.5] [--rounds 18]
"""
import argparse
import sys

from hks.cli import main as hks_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/comparison")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--alpha-dir", default="0.5")
    parser.add_argument("--rounds", default="18")
    parser.add_argument("--synthetic", default="4,200,16,0.3")
    parser.add_argument("--n-clients", default="10")
    args = parser.parse_args(argv)

    base = [
        "--synthetic", args.synthetic,
        "--n-clients", args.n_clients,
        "--rounds", args.rounds,
        "--alpha-dir", args.alpha_dir,
        "--seeds", args.seeds,
        "--out", args.out,
    ]
    return hks_main(
        [
            "sweep",
            *base,
            "--methods", "local_only,fedavg,feddistill,fedcache,hks",
            "--granularities", "top,middle,bottom,all",
            "--R-values", "1,4,16",
        ]
    )


if __name__ == "__main__":
    sys.exit(run())
