#!/usr/bin/env python3
"""Calibrate acceptance thresholds for the end-loss ranking experiment.

Runs the locked comparison protocol once and records the measured
margins plus derived thresholds (half the margin, floored at zero) in
a JSON file the acceptance test reads back, together with every seed's
end losses and each margin's paired mean, standard error and wins,
which the acceptance test does not read.  Exit status is 0 only if
both orderings held (every margin positive).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from glq.experiments import (
    MARGIN_KEYS,
    MARGIN_PAIRS,
    PROTOCOL,
    end_loss_comparison,
    thresholds_from_margins,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "results" / "pilot_thresholds.json"


def paired_margins(per_seed: dict) -> dict:
    """Each margin over the seeds as paired differences: their mean, its
    standard error (sample standard deviation over sqrt(n)) and the
    number of seeds on which the better method won."""
    out = {}
    for k, (worse, better) in MARGIN_PAIRS.items():
        diff = np.asarray(per_seed[worse]) - np.asarray(per_seed[better])
        se = float(diff.std(ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else float("nan")
        out[k] = {"mean": float(diff.mean()), "se": se, "wins": int((diff > 0).sum()),
                  "n": int(diff.size)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=len(PROTOCOL["seeds"]),
                    help="number of seeds (0..n-1)")
    ap.add_argument("--bits", type=int, default=PROTOCOL["bits"])
    ap.add_argument("--g", type=int, default=PROTOCOL["g"])
    ap.add_argument("--steps", type=int, default=PROTOCOL["steps"])
    ap.add_argument("--task", default=PROTOCOL["task"])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    result = end_loss_comparison(
        seeds=range(args.seeds), bits=args.bits, g=args.g,
        task=args.task, steps=args.steps,
    )
    record = {
        "protocol": result["protocol"],
        "means": result["means"],
        "margins": result["margins"],
        "thresholds": thresholds_from_margins(result["margins"]),
        "per_seed": result["per_seed"],
        "paired": paired_margins(result["per_seed"]),
        "runtime_s": round(result["runtime_s"], 2),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"pilot protocol: {record['protocol']}")
    for m, v in record["means"].items():
        print(f"  mean end loss {m:12s} {v:10.4f}")
    ok = True
    for k in MARGIN_KEYS:
        margin = record["margins"][k]
        held = margin > 0.0
        ok = ok and held
        status = "holds" if held else "VIOLATED"
        p = record["paired"][k]
        print(f"  ordering {k:22s} margin {margin:+9.4f}  threshold "
              f"{record['thresholds'][k]:.4f}  ({status}; paired {p['mean']:+.3f} "
              f"+- {p['se']:.3f} SE, {p['wins']}/{p['n']} wins)")
    print(f"  runtime {record['runtime_s']:.1f} s")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
