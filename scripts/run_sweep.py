#!/usr/bin/env python3
"""Method-by-bit-width sweep on the standard toy problem.

Quantizes one trained toy model with every method at each requested
bit width and prints the end-loss table; optionally writes the rows as
CSV.  A quick way to eyeball how the quantizers rank at a given
precision before running the full multi-seed experiment
(scripts/run_pilot.py).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from glq.artifacts import report_csv_text
from glq.calib_model import toy_problem
from glq.experiments import PROTOCOL
from glq.guidedquant import METHODS, QuantJob, format_table, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bits", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--g", type=int, default=PROTOCOL["g"])
    ap.add_argument("--task", default=PROTOCOL["task"])
    ap.add_argument("--steps", type=int, default=PROTOCOL["steps"])
    ap.add_argument("--out", type=Path, help="CSV output path")
    args = ap.parse_args(argv)

    model, data = toy_problem(seed=args.seed, loss=args.task, steps=args.steps)
    jobs = [
        QuantJob(method=m, bits=b, g=args.g, seed=args.seed)
        for b in args.bits
        for m in METHODS
    ]
    rows = sweep(model, data, jobs)
    print(format_table(rows))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report_csv_text(rows))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
