"""End-to-end quantization jobs over a calibrated model.

A job names a method, a bit width, and (for the guided method) a group
count g. Methods:

* ``rtn``: per-channel uniform grid, round to nearest. No Hessian.
* ``squeezellm``: per-channel weighted k-means with diagonal-Fisher
  sensitivities. No Hessian.
* ``lnq_plain``: alternating minimization against the plain Hessian
  X^T X (one group), initialized from the squeezellm solution.
* ``lnq_guided``: alternating minimization against the grouped
  loss-guided Hessians, same initialization, one run per group; g is
  clipped to each layer's output width.

Layers are quantized one at a time, each against its own Hessian set
(`job_hessians` hands them out one layer at a time), and a layer's set
is dropped once the layer is solved and its damped objective taken, so
one set is live at a time. For the LNQ methods one ``squeezellm_init``
call (arrays, no SSE trace) covers the layer, channel j seeded by
(seed, j) as in the squeezellm baseline, so every method and every g
starts a layer from the same init. One ``lnq_quantize`` call then
solves the layer's groups on its row-major arrays (see ``lnq``). A
group Hessian that does not factor raises SingularHessian naming the
layer, the group and the cause. Reported objectives per
layer: the plain reconstruction error ||X (W - What)||_F^2, the
gradient-weighted error ||gradZ * (X (W - What))||_F^2 (elementwise
product), and the damped quadratic under the method's Hessian sets (`job_hessians`: plain ones,
unit gradient scale, for every method but lnq_guided). `glq eval`
rebuilds those sets from the job recorded in the artifact, so it
reproduces every column of the quantize report. The gradient-weighted
error equals the sum of per-channel Fisher quadratic forms
n * delta^T F_j delta with n F_j = X^T Diag(gradZ[:, j]^2) X; the
independent channel-by-channel route is `oracle.full_fisher_quadratic`,
which the tests check the guided objective against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from operator import itemgetter

import numpy as np

from .calib_model import Dataset, LayerCalibration, MlpModel, calibrate, end_loss
from .errors import ConfigError, DimensionMismatch
from .hessian import (
    DEFAULT_DAMPING_REL,
    DEFAULT_GRAD_SCALE,
    HessianCache,
    HessianSet,
    check_settings,
    fisher_diag,
    layer_hessians,
)
from .linalg import Matrix, ensure_matrix
from .lnq import lnq_quantize
from .scalar_quant import QuantizedLayer, rtn_quantize, squeezellm_init, squeezellm_quantize

METHODS = ("rtn", "squeezellm", "lnq_plain", "lnq_guided")

CSV_COLUMNS = (
    "method", "bits", "g", "seed",
    "end_loss_before", "end_loss_after",
    "plain_objective", "guided_objective", "damped_objective",
)


# The value types a QuantJob field accepts, keyed by its annotation; a
# bool is never accepted, although Python counts it as an int.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}
_TYPE_NAMES = {"str": "a string", "int": "an integer", "float": "a number"}


@dataclass
class QuantJob:
    """One quantization request, type- and range-checked on
    construction. g is forced to 1 for every method that does not use
    grouped Hessians. The fields are the keys of a `glq quantize
    --config` file."""

    method: str
    bits: int
    g: int = 1
    seed: int = 0
    grad_scale: float = DEFAULT_GRAD_SCALE
    damping_rel: float = DEFAULT_DAMPING_REL
    T: int = 2
    K: int = 4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[f.type]}, "
                                  f"got {type(value).__name__} {value!r}")
        checks = [
            (self.method in METHODS, f"method must be one of {METHODS}, got {self.method!r}"),
            (1 <= self.bits <= 8, f"bits must be in 1..8, got {self.bits}"),
            (self.g >= 1, f"g must be >= 1, got {self.g}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.T >= 1, f"T must be >= 1, got {self.T}"),
            (self.K >= 1, f"K must be >= 1, got {self.K}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        check_settings(self.grad_scale, self.damping_rel)
        if self.method != "lnq_guided":
            self.g = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "QuantJob":
        """A job from a flat dict of field values; an unknown key or a
        value of the wrong type raises ConfigError."""
        unknown = set(raw) - set(JOB_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# The QuantJob fields: the keys of a `glq quantize --config` file, the
# names of its flags, and the job keys that quant.json records.
JOB_KEYS = tuple(f.name for f in fields(QuantJob))


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

    def totals(self) -> dict:
        return {
            "plain_objective": sum(e["plain_objective"] for e in self.layers),
            "guided_objective": sum(e["guided_objective"] for e in self.layers),
            "damped_objective": sum(e["damped_objective"] for e in self.layers),
        }

    def csv_row(self) -> dict:
        """The report's CSV_COLUMNS."""
        return {
            "method": self.method,
            "bits": self.bits,
            "g": self.g,
            "seed": self.seed,
            "end_loss_before": self.end_loss_before,
            "end_loss_after": self.end_loss_after,
            **self.totals(),
        }


def job_hessians(
    model: MlpModel,
    data: Dataset,
    calib: list[LayerCalibration],
    job: QuantJob,
    cache: HessianCache | None = None,
) -> Iterator[HessianSet]:
    """Each layer's HessianSet for `job`'s method in turn, from
    `layer_hessians`: the grouped guided Hessians for lnq_guided, the
    plain ones (one group, unit grad scale) for every other method. The
    LNQ methods quantize against them and every method reports its
    damped objective under them. `cache` is consulted only for the LNQ
    methods. No set is held here once the next is asked for."""
    kind = "guided" if job.method == "lnq_guided" else "plain"
    cache = cache if job.method in ("lnq_plain", "lnq_guided") else None
    return map(itemgetter(1), layer_hessians(model, data, calib, kind, job.g, job.grad_scale,
                                             job.damping_rel, cache=cache))


def run_job(
    model: MlpModel,
    data: Dataset,
    job: QuantJob,
    hessian_cache: HessianCache | None = None,
) -> tuple[MlpModel, list[QuantizedLayer], QuantReport]:
    """Quantize every layer of `model` per `job`.

    Layers are quantized in order, each against its own Hessian set,
    which is dropped once the layer is solved and its damped objective
    taken. For the LNQ methods `squeezellm_init` on the layer's weights
    and diagonal Fisher, channel j seeded by (seed, j), gives the init
    of one `lnq_quantize` call over the layer's consecutive groups.
    Returns the quantized model, one QuantizedLayer per layer, and the
    report.
    """
    calib = calibrate(model, data)
    hsets = job_hessians(model, data, calib, job, cache=hessian_cache)
    qlayers, damped = [], []
    for l, W in enumerate(model.layers):
        hset = next(hsets)
        if job.method == "rtn":
            ql = rtn_quantize(W, job.bits, layer_idx=l)
        elif job.method == "squeezellm":
            ql = squeezellm_quantize(W, fisher_diag(calib[l]), job.bits, seed=job.seed,
                                     layer_idx=l)
        else:
            seeds = [(job.seed, j) for j in range(W.shape[1])]
            init = squeezellm_init(W, fisher_diag(calib[l]), job.bits, seeds)
            ql = lnq_quantize(hset.hessians, W, job.bits, job.T, job.K, init, layer_idx=l,
                              sizes=hset.partition.sizes)
        qlayers.append(ql)
        damped.append(damped_quadratic(hset, W, ql.W_hat))
        del hset  # one layer's set at a time
    quantized = model.with_layers([ql.W_hat for ql in qlayers])
    return quantized, qlayers, job_report(model, quantized, data, calib, job, damped)


def job_report(
    model: MlpModel,
    quantized: MlpModel,
    data: Dataset,
    calib: list[LayerCalibration],
    job: QuantJob,
    damped: list[float],
) -> QuantReport:
    """The report of `job` for `quantized`: per-layer objectives, the
    damped ones given per layer (`damped_quadratic` under the layer's
    `job_hessians` set), and the end loss of both models. `glq eval`
    rebuilds it from an artifact."""
    rows = eval_objectives(model, quantized.layers, calib)
    for row, value in zip(rows, damped):
        row["damped_objective"] = value
    return QuantReport(
        method=job.method,
        bits=job.bits,
        g=job.g,
        seed=job.seed,
        end_loss_before=end_loss(model, data),
        end_loss_after=end_loss(quantized, data),
        layers=rows,
    )


def eval_objectives(
    model: MlpModel, w_hat_layers: list[Matrix], calib: list[LayerCalibration]
) -> list[dict]:
    """Per-layer reconstruction objectives (see module docstring).

    By the identity sum_j n delta_j^T F_j delta_j = ||gradZ * (X delta)||_F^2
    the channel-by-channel Fisher sum is the `guided_objective`, so it
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
            }
        )
    return rows


def damped_quadratic(hset: HessianSet, W: Matrix, W_hat: Matrix) -> float:
    """sum over groups and their channels of delta^T Hbar_k delta.

    `W_hat` and each group Hessian are validated once, not once per
    channel; every term is float(v @ H @ v) with v = What_j - W_j."""
    W_hat = ensure_matrix(W_hat, "W_hat")
    if W_hat.shape != W.shape:
        raise DimensionMismatch(f"W_hat is {W_hat.shape}, W is {W.shape}")
    total = 0.0
    for H, (o, e) in zip(hset.hessians, hset.partition.bounds):
        H = ensure_matrix(H, "H")
        if H.shape != (W.shape[0], W.shape[0]):
            raise DimensionMismatch(f"H is {H.shape}, weights have d_in={W.shape[0]}")
        for j in range(o, e):
            v = W_hat[:, j] - W[:, j]
            total += float(v @ H @ v)
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
