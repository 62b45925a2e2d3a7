#!/usr/bin/env python3
"""Run the analytic-vs-partition rank scatter experiment for a few desk-scale
ensembles and write one CSV per configuration.

Usage:
    python scripts/run_scatter.py [--outdir scatter_out] [--seed 0]

Each CSV embeds its configuration in '#' header lines; rows hold the exact
bias as num/den, the analytic rank, the search interval and the witness size.
Re-running with the same arguments reproduces the files byte for byte.
"""

import argparse
from pathlib import Path

from rankforge.cli import main as cli_main

CONFIGS = [
    # (p, dims, exhaustive, count)
    (2, "2,2", True, 0),
    (2, "2,2,2", True, 0),
    (3, "2,2,2", True, 0),
    (2, "3,3", False, 200),
    (3, "2,2", False, 200),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="scatter_out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for p, dims, exhaustive, count in CONFIGS:
        tag = f"p{p}_dims{dims.replace(',', 'x')}" + ("_exhaustive" if exhaustive else f"_n{count}")
        out = outdir / f"scatter_{tag}.csv"
        argv = ["scatter", "--p", str(p), "--dims", dims, "--seed", str(args.seed), "--out", str(out)]
        argv += ["--exhaustive"] if exhaustive else ["--count", str(count)]
        code = cli_main(argv)
        if code != 0:
            raise SystemExit(code)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
