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

Layers are quantized one at a time on one walk (`_walk`, shared by
`run_job` and `job_report`), which holds one layer's calibration: one
``calibrate`` pass, of which only the output gradients are kept, and
each layer's input formed from the one before when the walk reaches it
(``calib_model.walk_calibration``). Each layer is solved against its
own Hessian set, which one `job_hessians` call makes from the layer's
record. A layer's set is taken after anything that does not read it
and dropped once the layer is solved and its damped objective taken;
the layer's report row follows at once, so at most one set is live, and
none while a row is made. The end loss before quantization comes from
the last layer's input, with `end_loss`'s bits.
For the LNQ methods one ``squeezellm_init`` call (arrays, no SSE trace)
covers the layer; it seeds channel j by (seed, j), as for the
squeezellm baseline, so every method and every g starts a layer from
the same init; it runs before the set is taken, and ``lnq_quantize``
solves the layer's groups in place on the init's row-major arrays (see
``lnq``).
Arrays are freed at their last use (README gives the measured peaks).
``lnq_quantize`` takes the layer's set itself, which checked its
matrices when it was made. A group Hessian that does not factor raises
SingularHessian naming the layer, the group and the cause.
Reported objectives per layer: the plain reconstruction error
||X (W - What)||_F^2, the gradient-weighted error
||gradZ * (X (W - What))||_F^2 (elementwise product), and the damped
quadratic under the method's Hessian sets (`job_hessians`: plain ones
for every method but lnq_guided), the sum of every channel's
`lnq.damped_objectives` value: the one a trace records, so an LNQ
layer's damped objective is the sum of its final trace entries. `glq
eval` rebuilds those sets from the job recorded in the artifact, so it
reproduces every column of the quantize report. The gradient-weighted
error equals the sum of per-channel Fisher quadratic forms
n * delta^T F_j delta with n F_j = X^T Diag(gradZ[:, j]^2) X; the
independent channel-by-channel route is `oracle.full_fisher_quadratic`,
which the tests check the guided objective against.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .calib_model import (
    Dataset,
    LayerCalibration,
    MlpModel,
    calibrate,
    end_loss,
    end_loss_from_input,
    walk_calibration,
)
from .errors import ConfigError, DimensionMismatch
from .hessian import (
    DEFAULT_DAMPING_REL,
    HessianCache,
    HessianSet,
    check_settings,
    fisher_diag,
    layer_hessians,
)
from .linalg import Matrix, ensure_matrix
from .lnq import damped_objectives, lnq_quantize
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
        check_settings(self.damping_rel)
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
    """Objectives and end losses for one finished `job`. The job is the
    report's only record of its settings: `csv_row` reads method, bits,
    g and seed from it, and `artifacts.save_quantized` writes it as
    quant.json."""

    job: QuantJob
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
            "method": self.job.method,
            "bits": self.job.bits,
            "g": self.job.g,
            "seed": self.job.seed,
            "end_loss_before": self.end_loss_before,
            "end_loss_after": self.end_loss_after,
            **self.totals(),
        }


def job_hessians(
    model: MlpModel,
    data: Dataset,
    job: QuantJob,
    cache: HessianCache | None = None,
) -> Callable[[int, LayerCalibration], HessianSet]:
    """The function `(l, c) -> HessianSet` that gives layer `l`'s set for
    `job`'s method from its record `c` (`layer_hessians`): the grouped
    guided Hessians for lnq_guided, the plain ones (one group) for every
    other method. The LNQ methods quantize against them and every method
    reports its damped objective under them. `cache` is consulted only
    for the LNQ methods."""
    kind = "guided" if job.method == "lnq_guided" else "plain"
    cache = cache if job.method in ("lnq_plain", "lnq_guided") else None
    layer_set = layer_hessians(model, data, kind, job.g, job.damping_rel, cache=cache)
    return lambda l, c: layer_set(l, c)[1]


def _walk(
    model: MlpModel,
    data: Dataset,
    job: QuantJob,
    step: Callable[[int, Matrix, LayerCalibration, Callable[[], HessianSet]],
                   tuple[Matrix, HessianSet]],
    cache: HessianCache | None = None,
) -> tuple[list[dict], float]:
    """The layer walk of `run_job` and `job_report`: the report rows of
    `job` and the end loss before quantization, holding one layer's
    calibration at a time.

    `calibrate` runs once, and only its output gradients are kept: each
    layer's input is formed from the one before when the walk reaches it
    (`walk_calibration`). For each layer in order, `step(l, W, c,
    take_set)` gets the layer's index, weights and record, and calls
    `take_set()` for the layer's `job_hessians` set when it needs it; it
    returns the quantized weights and the set. The layer's damped
    objective is taken under the set, the set is dropped, and then its
    `eval_objectives` row is made, so no set is alive while a row is
    made; the record goes when the walk moves on. The end loss comes
    from the last layer's input (`end_loss_from_input`), with
    `end_loss`'s bits."""
    hessians = job_hessians(model, data, job, cache)
    records = walk_calibration(model, calibrate(model, data))
    rows = []
    for l, W in enumerate(model.layers):
        c = next(records)
        W_hat, hset = step(l, W, c, lambda: hessians(l, c))
        damped = damped_quadratic(hset, W, W_hat)
        del hset  # no set is alive while the row is made
        (row,) = eval_objectives(model, [W_hat], [c], layers=[l])
        del W_hat  # not held into the next layer
        row["damped_objective"] = damped
        rows.append(row)
    return rows, end_loss_from_input(model, c.X, data)


def run_job(
    model: MlpModel,
    data: Dataset,
    job: QuantJob,
    hessian_cache: HessianCache | None = None,
) -> tuple[MlpModel, list[QuantizedLayer], QuantReport]:
    """Quantize every layer of `model` per `job`.

    Layers are quantized in order on one walk (`_walk`), each against
    its own Hessian set, which is taken once the layer's init is made
    (LNQ) or its weights quantized (rtn, squeezellm) and dropped once
    the layer is solved and its damped objective taken; the layer's
    report row follows. For the LNQ methods `squeezellm_init` on the
    layer's weights and diagonal Fisher gives the init of one
    `lnq_quantize` call over the layer's consecutive groups, which
    solves the layer in place on the init's arrays. Returns the
    quantized model, one QuantizedLayer per layer, and the report.
    """
    qlayers = []

    def step(l, W, c, take_set):
        if job.method == "rtn":
            ql = rtn_quantize(W, job.bits, layer_idx=l)
        elif job.method == "squeezellm":
            ql = squeezellm_quantize(W, fisher_diag(c), job.bits, seed=job.seed, layer_idx=l)
        else:
            init = squeezellm_init(W, fisher_diag(c), job.bits, job.seed, layer_idx=l)
        hset = take_set()
        if job.method in ("lnq_plain", "lnq_guided"):
            ql = lnq_quantize(hset, W, job.bits, job.T, job.K, init)
        qlayers.append(ql)
        return ql.W_hat, hset

    rows, before = _walk(model, data, job, step, hessian_cache)
    quantized = model.with_layers([ql.W_hat for ql in qlayers])
    return quantized, qlayers, QuantReport(job, before, end_loss(quantized, data), rows)


def job_report(model: MlpModel, quantized: MlpModel, data: Dataset, job: QuantJob) -> QuantReport:
    """The report of `job` for `quantized`, as `run_job` makes it, on one
    walk over the layers (`_walk`): per-layer objectives, the damped
    ones under the layer's `job_hessians` set, and the end loss of both
    models. `glq eval` rebuilds it from an artifact."""
    rows, before = _walk(model, data, job,
                         lambda l, W, c, take_set: (quantized.layers[l], take_set()))
    return QuantReport(job, before, end_loss(quantized, data), rows)


def eval_objectives(
    model: MlpModel,
    w_hat_layers: list[Matrix],
    calib: list[LayerCalibration],
    layers: Sequence[int] | None = None,
) -> list[dict]:
    """Per-layer reconstruction objectives (see module docstring) of the
    layers of `model` indexed by `layers`, every layer by default: one
    row per index, from its quantized matrix in `w_hat_layers` and its
    record in `calib`.

    By the identity sum_j n delta_j^T F_j delta_j = ||gradZ * (X delta)||_F^2
    the channel-by-channel Fisher sum is the `guided_objective`, so it
    is not rebuilt here. `oracle.full_fisher_quadratic` computes it the
    independent way.
    """
    layers = range(model.n_layers) if layers is None else layers
    if len(w_hat_layers) != len(layers) or len(calib) != len(layers):
        raise DimensionMismatch("one quantized matrix and one record per layer required")
    rows = []
    for l, Wh, c in zip(layers, w_hat_layers, calib):
        W = model.layers[l]
        if Wh.shape != W.shape:
            raise DimensionMismatch(f"layer {l}: {Wh.shape} vs {W.shape}")
        plain, guided = _errors(c, W, Wh)
        rows.append(
            {
                "layer": l,
                "plain_objective": plain,
                "guided_objective": guided,
            }
        )
    return rows


def _errors(c: LayerCalibration, W: Matrix, Wh: Matrix) -> tuple[float, float]:
    """||E||_F^2 and ||gradZ * E||_F^2 for E = X (W - Wh), with the bits
    of sum(E * E) and sum(GE * GE): E^2 and then (gradZ * E)^2 go to one
    scratch and gradZ * E into E, so one layer's two n x d_out arrays are
    alive at a time, and none once it returns."""
    E = c.X @ (W - Wh)
    sq = np.multiply(E, E)
    plain = float(np.sum(sq))
    GE = np.multiply(c.gradZ, E, out=E)
    return plain, float(np.sum(np.multiply(GE, GE, out=sq)))


def damped_quadratic(hset: HessianSet, W: Matrix, W_hat: Matrix) -> float:
    """sum over groups and their channels of delta^T Hbar_k delta.

    `W_hat` is validated once, and the set's matrices were checked when
    it was made. Each channel's term is `lnq.damped_objectives`' value,
    the one its trace records, and the terms are added in channel order
    from 0, so an LNQ layer's result is the sum of its final trace
    entries."""
    W_hat = ensure_matrix(W_hat, "W_hat")
    if W_hat.shape != W.shape:
        raise DimensionMismatch(f"W_hat is {W_hat.shape}, W is {W.shape}")
    if hset.hessians[0].shape != (W.shape[0], W.shape[0]):  # the set holds one d
        raise DimensionMismatch(f"H is {hset.hessians[0].shape}, weights have d_in={W.shape[0]}")
    deltas = (W_hat[:, o:e] - W[:, o:e] for o, e in hset.partition.bounds)
    return sum(damped_objectives(hset.hessians, deltas).tolist())


def sweep(model: MlpModel, data: Dataset, jobs: list[QuantJob]) -> list[dict]:
    """Run jobs in order and return one CSV row dict per job.

    Rows follow CSV_COLUMNS and contain no timing, so a repeated sweep
    over the same inputs is identical byte for byte. An empty job list
    yields an empty table.
    """
    rows = []
    for job in jobs:
        _, _, report = run_job(model, data, job)
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
