"""End-loss ranking experiment: does curvature-aware rounding help?

Compares three quantizers at equal bit width on the standard toy
problem and measures the end loss (the model's own training loss on
calibration data) after quantization:

* ``squeezellm``  -- per-channel sensitivity-weighted k-means, no
  cross-weight curvature,
* ``lnq_plain``   -- alternating codebook / coordinate-descent rounding
  on the unweighted layer Hessian,
* ``lnq_guided``  -- the same solver on gradient-weighted grouped
  Hessians.

The claim under test is the ordering

    mean end loss:  lnq_guided <= lnq_plain <= squeezellm

over a fixed set of seeds, where each seed draws a fresh dataset,
model initialization, and quantizer initialization.  Margins are the
pairwise differences of seed-mean end losses; a positive margin means
the ordering holds.

The experiment task is cross entropy: under squared error the output
curvature is the same constant for every sample and channel, so the
gradient-weighted Hessian cannot encode anything the plain Hessian
does not, and the comparison would be vacuous.  Training runs well
past the loss plateau so that calibration gradients reflect the
fitted task rather than initialization noise.

Acceptance thresholds for the margins are calibrated once by
``scripts/run_pilot.py`` (half the pilot margin, floored at zero so a
violated ordering can never pass) and recorded in
``results/pilot_thresholds.json``; the acceptance test replays the
same protocol and checks the recorded thresholds.
"""

from __future__ import annotations

import time

import numpy as np

from .calib_model import toy_problem
from .guidedquant import QuantJob, run_job

COMPARED_METHODS = ("squeezellm", "lnq_plain", "lnq_guided")

#: Each margin as (worse, better): the margin is the worse method's
#: end loss minus the better one's.
MARGIN_PAIRS = {
    "plain_vs_squeezellm": ("squeezellm", "lnq_plain"),
    "guided_vs_plain": ("lnq_plain", "lnq_guided"),
}
MARGIN_KEYS = tuple(MARGIN_PAIRS)

#: Locked protocol for the ranking experiment.  ``seeds`` jointly vary
#: dataset, model initialization, and quantizer seed.
PROTOCOL = {
    "seeds": list(range(20)),
    "bits": 2,
    "g": 4,
    "T": 2,
    "K": 4,
    "task": "softmax_cross_entropy",
    "steps": 4000,
}


def end_loss_comparison(
    seeds=None,
    bits: int = PROTOCOL["bits"],
    g: int = PROTOCOL["g"],
    T: int = PROTOCOL["T"],
    K: int = PROTOCOL["K"],
    task: str = PROTOCOL["task"],
    steps: int = PROTOCOL["steps"],
) -> dict:
    """Run the three-method comparison; defaults are the locked protocol
    (`PROTOCOL`, its seeds when `seeds` is None).

    Returns a dict with the protocol, per-seed end losses, seed means,
    and the two ordering margins (positive = ordering holds).
    """
    if seeds is None:
        seeds = PROTOCOL["seeds"]
    seeds = [int(s) for s in seeds]
    t0 = time.monotonic()
    per_seed = {m: [] for m in COMPARED_METHODS}
    for s in seeds:
        model, data = toy_problem(seed=s, loss=task, steps=steps)
        for m in COMPARED_METHODS:
            job = QuantJob(method=m, bits=bits, g=g, seed=s, T=T, K=K)
            _, _, report = run_job(model, data, job)
            per_seed[m].append(report.end_loss_after)
    means = {m: float(np.mean(per_seed[m])) for m in COMPARED_METHODS}
    margins = {k: means[worse] - means[better] for k, (worse, better) in MARGIN_PAIRS.items()}
    return {
        "protocol": {
            "seeds": seeds, "bits": bits, "g": g, "T": T, "K": K,
            "task": task, "steps": steps,
        },
        "per_seed": per_seed,
        "means": means,
        "margins": margins,
        "runtime_s": time.monotonic() - t0,
    }


def thresholds_from_margins(margins: dict) -> dict:
    """Half of each pilot margin, floored at zero.

    The floor matters: a negative pilot margin (ordering violated)
    must yield a threshold the violated ordering still fails, not a
    negative bar that would wave it through.
    """
    return {k: max(0.0, 0.5 * float(margins[k])) for k in MARGIN_KEYS}
