"""End-to-end quantization jobs over a calibrated model.

A job names a method, a bit width, and (for the guided method) a group
count g. Methods:

* ``rtn``: per-channel uniform grid, round to nearest. No Hessian.
* ``squeezellm``: per-channel weighted k-means with diagonal-Fisher
  sensitivities. No Hessian.
* ``lnq_plain``: alternating minimization against the plain Hessian
  X^T X (one group), initialized from the squeezellm solution.
* ``lnq_guided``: alternating minimization against the grouped
  loss-guided Hessians, same initialization, one run per group.

Layers, and the groups within a layer, are quantized one at a time in
(layer, group) order. Reported objectives per layer: the plain
reconstruction error ||X (W - What)||_F^2, the gradient-weighted error
||gradZ * (X (W - What))||_F^2 (elementwise product), and the damped
quadratic under the Hessian set the method used (plain Hessians for the
Hessian-free baselines, unit gradient scale). The gradient-weighted
error equals the sum of per-channel Fisher quadratic forms
n * delta^T F_j delta with n F_j = X^T Diag(gradZ[:, j]^2) X, so the
`fisher_quadratic` column is filled from that identity: it is the
guided objective. The independent channel-by-channel route is
`oracle.full_fisher_quadratic`, which the tests and `glq verify` check
the guided objective against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .calib_model import Dataset, LayerCalibration, MlpModel, calibrate, end_loss
from .errors import ConfigError, DimensionMismatch
from .hessian import (
    DEFAULT_DAMPING_REL,
    DEFAULT_GRAD_SCALE,
    HessianCache,
    HessianSet,
    fisher_diag,
    layer_hessians,
    plain_hessian,
)
from .linalg import Matrix, quad_form
from .lnq import LnqConfig, lnq_quantize
from .scalar_quant import ChannelQuantState, QuantizedLayer, rtn_quantize, squeezellm_quantize

METHODS = ("rtn", "squeezellm", "lnq_plain", "lnq_guided")

CSV_COLUMNS = (
    "method", "bits", "g", "seed",
    "end_loss_before", "end_loss_after",
    "plain_objective", "guided_objective", "damped_objective",
    "fisher_quadratic",
)


@dataclass
class QuantJob:
    """One quantization request. g is forced to 1 for every method that
    does not use grouped Hessians."""

    method: str
    bits: int
    g: int = 1
    seed: int = 0
    grad_scale: float = DEFAULT_GRAD_SCALE
    damping_rel: float = DEFAULT_DAMPING_REL
    T: int = 2
    K: int = 4

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method != "lnq_guided":
            self.g = 1
        if self.g < 1:
            raise ConfigError(f"g must be >= 1, got {self.g}")

    def lnq_config(self) -> LnqConfig:
        return LnqConfig(bits=self.bits, T=self.T, K=self.K)


@dataclass
class QuantReport:
    """Objectives and end losses for one finished job."""

    method: str
    bits: int
    g: int
    seed: int
    end_loss_before: float
    end_loss_after: float
    layers: list[dict]
    fisher_quadratic: float
    runtime_s: dict = field(default_factory=dict)

    def totals(self) -> dict:
        return {
            "plain_objective": sum(e["plain_objective"] for e in self.layers),
            "guided_objective": sum(e["guided_objective"] for e in self.layers),
            "damped_objective": sum(e["damped_objective"] for e in self.layers),
        }

    def csv_row(self) -> dict:
        t = self.totals()
        return {
            "method": self.method,
            "bits": self.bits,
            "g": self.g,
            "seed": self.seed,
            "end_loss_before": self.end_loss_before,
            "end_loss_after": self.end_loss_after,
            "plain_objective": t["plain_objective"],
            "guided_objective": t["guided_objective"],
            "damped_objective": t["damped_objective"],
            "fisher_quadratic": self.fisher_quadratic,
        }


def _quantize_group(
    W: Matrix,
    F: Matrix | None,
    job: QuantJob,
    hset: HessianSet | None,
    layer_idx: int,
    group_idx: int,
) -> tuple[int, int, tuple[int, ...], list[ChannelQuantState]]:
    """Quantize the channels of one (layer, group) task. `F` is the
    layer's diagonal Fisher (None for rtn); the task slices its group's
    columns."""
    if job.method == "rtn":
        ql = rtn_quantize(W, job.bits, layer_idx=layer_idx)
        return layer_idx, group_idx, tuple(range(W.shape[1])), ql.channels
    if job.method == "squeezellm":
        ql = squeezellm_quantize(W, F, job.bits, seed=job.seed, layer_idx=layer_idx)
        return layer_idx, group_idx, tuple(range(W.shape[1])), ql.channels
    channels = hset.partition.groups[group_idx]
    cols = np.array(channels, dtype=np.int64)
    init_full = squeezellm_quantize(
        W[:, cols], F[:, cols], job.bits, seed=job.seed, layer_idx=layer_idx
    )
    ql = lnq_quantize(
        hset.hessians[group_idx],
        W[:, cols],
        job.lnq_config(),
        init_full.channels,
        layer_idx=layer_idx,
    )
    return layer_idx, group_idx, channels, ql.channels


def _quantize_tasks(
    model: MlpModel,
    calib: list[LayerCalibration],
    job: QuantJob,
    hsets: list[HessianSet] | None,
) -> list[tuple[int, int, tuple[int, ...], list[ChannelQuantState]]]:
    """Run one `_quantize_group` task per (layer, group), in (layer,
    group) order. Each layer's diagonal Fisher is built once and shared
    by its groups; it is freed on return, before the caller's
    evaluation stage."""
    results = []
    for l, W in enumerate(model.layers):
        hset = hsets[l] if hsets is not None else None
        F = fisher_diag(calib[l]) if job.method != "rtn" else None
        n_groups = hset.partition.g if (hset is not None and job.method == "lnq_guided") else 1
        for k in range(n_groups):
            results.append(_quantize_group(W, F, job, hset, l, k))
    return results


def run_job(
    model: MlpModel,
    data: Dataset,
    job: QuantJob,
    hessian_cache: HessianCache | None = None,
) -> tuple[MlpModel, list[QuantizedLayer], QuantReport]:
    """Quantize every layer of `model` per `job`.

    Returns the quantized model, the per-layer quantization states, and
    the report.
    """
    t0 = time.perf_counter()
    calib = calibrate(model, data)
    t_calib = time.perf_counter() - t0

    t0 = time.perf_counter()
    hsets = None
    if job.method in ("lnq_plain", "lnq_guided"):
        kind = "plain" if job.method == "lnq_plain" else "guided"
        entries = layer_hessians(model, data, calib, kind, job.g, job.grad_scale,
                                 job.damping_rel, cache=hessian_cache)
        hsets = [hset for _key, hset in entries]
    t_hess = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = _quantize_tasks(model, calib, job, hsets)
    t_quant = time.perf_counter() - t0

    per_layer_states: list[list[ChannelQuantState | None]] = [
        [None] * W.shape[1] for W in model.layers
    ]
    for l, _k, channels, states in results:
        for j, st in zip(channels, states):
            per_layer_states[l][j] = st
    qlayers = [
        QuantizedLayer(layer_idx=l, bits=job.bits, channels=list(states))
        for l, states in enumerate(per_layer_states)
    ]

    quantized = model.with_layers([ql.W_hat for ql in qlayers])

    t0 = time.perf_counter()
    layer_rows = eval_objectives(model, [ql.W_hat for ql in qlayers], calib)
    damped_sets = hsets
    if damped_sets is None:
        damped_sets = [
            plain_hessian(c, layer_idx=l, damping_rel=job.damping_rel)
            for l, c in enumerate(calib)
        ]
    for l, row in enumerate(layer_rows):
        row["damped_objective"] = damped_quadratic(
            damped_sets[l], model.layers[l], qlayers[l].W_hat
        )
    fisher_q = sum(row["fisher_quadratic"] for row in layer_rows)
    report = QuantReport(
        method=job.method,
        bits=job.bits,
        g=job.g,
        seed=job.seed,
        end_loss_before=end_loss(model, data),
        end_loss_after=end_loss(quantized, data),
        layers=layer_rows,
        fisher_quadratic=fisher_q,
        runtime_s={
            "calibrate": t_calib,
            "hessian": t_hess,
            "quantize": t_quant,
            "eval": time.perf_counter() - t0,
        },
    )
    return quantized, qlayers, report


def eval_objectives(
    model: MlpModel, w_hat_layers: list[Matrix], calib: list[LayerCalibration]
) -> list[dict]:
    """Per-layer reconstruction objectives (see module docstring).

    Each row's `fisher_quadratic` is its `guided_objective`: by the
    identity sum_j n delta_j^T F_j delta_j = ||gradZ * (X delta)||_F^2
    the channel-by-channel Fisher sum is the elementwise error, so it
    is not rebuilt here. `oracle.full_fisher_quadratic` computes it the
    independent way.
    """
    if len(w_hat_layers) != model.n_layers:
        raise DimensionMismatch("one quantized matrix per layer required")
    rows = []
    for l, (W, Wh, c) in enumerate(zip(model.layers, w_hat_layers, calib)):
        if Wh.shape != W.shape:
            raise DimensionMismatch(f"layer {l}: {Wh.shape} vs {W.shape}")
        E = c.X @ (W - Wh)
        plain = float(np.sum(E * E))
        GE = c.gradZ * E
        guided = float(np.sum(GE * GE))
        rows.append(
            {
                "layer": l,
                "plain_objective": plain,
                "guided_objective": guided,
                "fisher_quadratic": guided,
            }
        )
    return rows


def damped_quadratic(hset: HessianSet, W: Matrix, W_hat: Matrix) -> float:
    """sum over groups and their channels of delta^T Hbar_k delta."""
    total = 0.0
    for k, grp in enumerate(hset.partition.groups):
        H = hset.hessians[k]
        for j in grp:
            total += quad_form(H, W_hat[:, j] - W[:, j])
    return total


def sweep(
    model: MlpModel,
    data: Dataset,
    jobs: list[QuantJob],
    hessian_cache: HessianCache | None = None,
) -> list[dict]:
    """Run jobs in order and return one CSV row dict per job.

    Rows follow CSV_COLUMNS and contain no timing, so a repeated sweep
    over the same inputs is identical byte for byte. An empty job list
    yields an empty table.
    """
    rows = []
    for job in jobs:
        _, _, report = run_job(model, data, job, hessian_cache=hessian_cache)
        rows.append(report.csv_row())
    return rows


def format_table(rows: list[dict]) -> str:
    """Fixed-width text table over CSV_COLUMNS for terminal output."""
    if not rows:
        return "(no rows)"
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)
    cells = [[fmt(r[c]) for c in CSV_COLUMNS] for r in rows]
    widths = [
        max(len(CSV_COLUMNS[i]), max(len(row[i]) for row in cells))
        for i in range(len(CSV_COLUMNS))
    ]
    head = "  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths))
    lines = [head, "-" * len(head)]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
