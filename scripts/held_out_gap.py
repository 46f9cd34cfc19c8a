#!/usr/bin/env python3
"""Per-sample end loss of the generalizing regime, on and off its training set.

For each seed, draws `experiments.teacher_split(seed, ...)`, trains a
fresh model of `experiments.GENERALIZING_REGIME` (initialized from
seed + 1, as `toy_problem` does) on the training split, and prints its
per-sample end loss on the training, held-out and calibration splits,
then the means over seeds. A model that memorizes its training set reads
far lower on it than on the other two.

    PYTHONPATH=src python3 scripts/held_out_gap.py --seeds 10
"""

from __future__ import annotations

import argparse

import numpy as np

from glq.calib_model import end_loss, random_model, train
from glq.experiments import GENERALIZING_REGIME, teacher_split


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    p.add_argument("--n-test", type=int, default=8192)
    p.add_argument("--n-cal", type=int, default=1024)
    args = p.parse_args(argv)
    r = GENERALIZING_REGIME
    dims = r["dims"]
    rows = []
    print("seed  train  held_out  calibration  (per-sample loss)")
    for seed in range(args.seeds):
        splits = teacher_split(seed, r["n_train"], args.n_test, args.n_cal, dims[0], dims[-1],
                               r["task"])
        model = train(random_model(dims, seed + 1, loss=r["task"]), splits[0],
                      steps=r["steps"], lr=r["lr"])
        rows.append([end_loss(model, d) / d.n for d in splits])
        print(f"{seed:4d}  " + "  ".join(f"{v:.4f}" for v in rows[-1]))
    print("mean  " + "  ".join(f"{v:.4f}" for v in np.mean(rows, axis=0)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
