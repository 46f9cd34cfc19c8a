"""Tiny bias-free MLP, synthetic datasets, and per-sample calibration.

The model is a stack of weight matrices with tanh between layers and no
activation after the last one. Two end losses are supported, both sums
over samples so that per-sample terms add up exactly:

* ``squared_error``:          l_i = ||Z_i - Y_i||^2
* ``softmax_cross_entropy``:  l_i = logsumexp(Z_i) - Z_i . Y_i  (Y one-hot)

``calibrate`` runs one forward/backward pass and records, per layer, the
layer input X^(l) (n x d_in) and the per-sample output gradient
G^(l) = d l_i / d Z^(l) (n x d_out). The weight gradient of the summed
loss is then X^(l)^T G^(l), which ``train`` uses for full-batch descent.
Backprop through tanh uses G^(l) = (G^(l+1) W_{l+1}^T) * (1 - X^(l+1)^2),
valid because X^(l+1) stores the post-tanh values.

``walk_calibration`` hands out the same records one layer at a time,
from a ``calibrate`` list whose hidden inputs it drops: each hidden
input is formed from the one before when the walk reaches its layer, so
a caller (``run_job``, ``glq eval``, ``glq hessian``) holds one layer's
input at a time. ``end_loss`` forms the hidden inputs by the same step,
one alive at a time, and hands the last to ``end_loss_from_input``, the
one routine that turns a last-layer input into the end loss; a walk's
caller calls it on the last record's input and gets ``end_loss``'s bits.

``calibrate`` and ``train`` share that pass (``_forward_backward``, the
only place the recursion lives), and the pass allocates nothing. It
writes, with ``out=``, into a workspace made by ``_workspace``: per
hidden layer a buffer for the post-tanh activations, per layer one for
the output gradients, and one scratch block that the (1 - X^2) factors
and the cross-entropy gradient's transposed copy of Z share. Its last
product writes Z into a row of a loss store (``_rows``), where the
output gradient (``_output_grad``) leaves the loss inputs it forms on
its way: R = Z - Y in place of Z, or Z with its row maxima and totals.
The pass computes no loss: ``_losses`` turns the inputs of one pass, or
of a stack of passes, into per-sample losses with the same operations
for each pass; ``end_loss_from_input`` uses it on one, whose last
product it writes into a one-pass store row in the same way.
``calibrate`` runs the pass on a fresh workspace, whose arrays its
records then own. ``train`` makes one workspace and one store per call
and reuses them on every step, so a step allocates no array: on the
64-256-256-16 mid model a 300-step train takes about 2 K minor page
faults, not 370 K.

Every matrix product, in the pass, in ``train``'s weight gradients and
in ``end_loss_from_input``, is ``np.dot(a, b, out=...)``. On the toy
model numpy's cost per call, not the flops, sets a step's time, and
``np.dot`` costs less per call than ``np.matmul`` (1.4 against 1.9 us
for a 64 x 16 by 16 x 16 product, one BLAS thread) while it calls the
same BLAS routines, with the same bits: the training tests compare it
with a pass written with ``@``. Every operand is C-contiguous or the
transpose of a C-contiguous array, so ``np.dot`` never takes its
non-BLAS loop.

``train`` runs the pass once per step: the pass over the weights after
update s yields both the summed loss that update s is checked against
and the gradients of update s + 1, and one extra pass after the last
update gives the final loss and gradient norm for its log line. Its
layers are reshaped views of one flat parameter buffer and its gradients
views of a second, so a step makes one in-place update, however deep
the model. The checks run once per block of passes, as many as
LOSS_BLOCK_BYTES of loss inputs hold: one ``_losses`` call over the
block's stacked inputs checks every pass's summed loss, and one
finiteness check of the weights covers every update, as a non-finite
weight stays non-finite under W - lr * g. A block that fails is
replayed from its saved weights one pass at a time, checking each pass
as the ``train`` docstring lists, so the same error is raised at the
same step. Only then are the gradients checked and the layers walked
one by one to name the first non-finite layer. The loop runs with
numpy's overflow and invalid-value warnings off, as each such value is
caught by a check.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergedLoss,
    EmptyCalibration,
    InvalidSize,
)
from .linalg import Matrix, ensure_matrix

logger = logging.getLogger(__name__)

ACTIVATIONS = ("tanh",)
LOSSES = ("squared_error", "softmax_cross_entropy")

TOY_DIMS = [8, 16, 16, 4]
TOY_N = 64
# bytes of saved loss inputs per block of training passes (see `train`)
LOSS_BLOCK_BYTES = 256 * 1024


@dataclass
class MlpModel:
    """Bias-free MLP: Z = X W_1 -> tanh -> ... -> W_L, plus a loss tag."""

    layers: list[Matrix]
    activation: str = "tanh"
    loss: str = "squared_error"

    def __post_init__(self) -> None:
        if not self.layers:
            raise InvalidSize("model needs at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        self.layers = [ensure_matrix(W, f"layer {i}") for i, W in enumerate(self.layers)]
        _check_widths(W.shape for W in self.layers)
        for i in range(len(self.layers) - 1):
            if self.layers[i].shape[1] != self.layers[i + 1].shape[0]:
                raise DimensionMismatch(
                    f"layer {i} outputs {self.layers[i].shape[1]} channels but "
                    f"layer {i + 1} expects {self.layers[i + 1].shape[0]}"
                )

    @property
    def dims(self) -> list[int]:
        """[d_0, d_1, ..., d_L] along the stack."""
        return [self.layers[0].shape[0]] + [W.shape[1] for W in self.layers]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def with_layers(self, layers: list[Matrix]) -> "MlpModel":
        return MlpModel(layers=list(layers), activation=self.activation, loss=self.loss)


def _check_widths(shapes) -> None:
    """Refuse (InvalidSize, naming the layer) a layer shape d_in x d_out
    with a width below 1: an empty layer leaves nothing to quantize."""
    for i, (d_in, d_out) in enumerate(shapes):
        if min(d_in, d_out) < 1:
            raise InvalidSize(f"layer {i} is {d_in} x {d_out}: every width must be >= 1")


@dataclass
class Dataset:
    """Calibration inputs and targets. Targets are one-hot rows for the
    cross-entropy task and real-valued rows for squared error."""

    inputs: Matrix
    targets: Matrix
    seed: int

    def __post_init__(self) -> None:
        self.inputs = ensure_matrix(self.inputs, "inputs")
        self.targets = ensure_matrix(self.targets, "targets")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DimensionMismatch("inputs and targets disagree on sample count")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass
class LayerCalibration:
    """Per-layer record from one calibration pass."""

    X: Matrix  # layer input, n x d_in
    gradZ: Matrix  # per-sample d l_i / d Z, n x d_out


def gen_dataset(seed: int, n: int, d0: int, dt: int, task: str = "squared_error") -> Dataset:
    """Draw a synthetic dataset from a fixed random teacher.

    Inputs are standard normal. A two-layer tanh teacher (hidden width
    max(d0, dt, 8), weights scaled by 1/sqrt(fan_in)) produces base
    outputs. For ``squared_error`` the target column k is the base output
    scaled by (k + 1), which makes output channels carry unequal loss
    gradients on purpose. For ``softmax_cross_entropy`` the target is the
    one-hot argmax of the base output.

    Same seed, same byte-for-byte dataset.
    """
    return teacher_datasets(seed, [n], d0, dt, task)[0]


def teacher_datasets(seed: int, sizes: list[int], d0: int, dt: int,
                     task: str = "squared_error") -> list[Dataset]:
    """One dataset of each size in `sizes`, all labelled by the teacher of
    `gen_dataset(seed, ...)` and drawn from its one generator: the first
    set's inputs, then the teacher, then each later set's inputs in
    order. So the first set is `gen_dataset(seed, sizes[0], d0, dt,
    task)` byte for byte, and no set depends on the sizes after it."""
    if min(sizes, default=0) < 1:
        raise InvalidSize(f"need one or more sets of n >= 1 samples, got sizes {sizes}")
    if d0 < 1 or dt < 1:
        raise InvalidSize("dimensions must be >= 1")
    if task not in LOSSES:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((sizes[0], d0))]
    h = max(d0, dt, 8)
    Wt1 = rng.standard_normal((d0, h)) / np.sqrt(d0)
    Wt2 = rng.standard_normal((h, dt)) / np.sqrt(h)
    inputs += [rng.standard_normal((n, d0)) for n in sizes[1:]]
    sets = []
    for X in inputs:
        base = np.tanh(X @ Wt1) @ Wt2
        if task == "squared_error":
            Y = base * (1.0 + np.arange(dt, dtype=np.float64))
        else:
            Y = np.zeros((len(X), dt))
            Y[np.arange(len(X)), np.argmax(base, axis=1)] = 1.0
        sets.append(Dataset(inputs=X, targets=Y, seed=seed))
    return sets


def toy_problem(seed: int = 0, loss: str = "squared_error",
                steps: int = 150) -> tuple[MlpModel, Dataset]:
    """The standard toy problem: a TOY_DIMS model trained for `steps`
    full-batch steps (lr 2e-3) on TOY_N samples drawn with `seed`; the
    model is initialized from seed + 1."""
    data = gen_dataset(seed, TOY_N, TOY_DIMS[0], TOY_DIMS[-1], task=loss)
    model = random_model(TOY_DIMS, seed + 1, loss=loss)
    return train(model, data, steps=steps, lr=2e-3), data


def random_model(dims: list[int], seed: int, loss: str = "squared_error") -> MlpModel:
    """Fresh model with N(0, 1/d_in) weights, deterministic in `seed`; a
    width below 1 is refused before any weight is drawn."""
    if len(dims) < 2:
        raise InvalidSize("need at least [d_in, d_out]")
    _check_widths(zip(dims[:-1], dims[1:]))
    rng = np.random.default_rng(seed)
    layers = [
        rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
        for i in range(len(dims) - 1)
    ]
    return MlpModel(layers=layers, loss=loss)


def _forward(layers: list[Matrix], X: Matrix, acts: list[Matrix], Z: Matrix) -> Matrix:
    """Write each hidden layer's post-tanh output into its buffer in
    `acts` (n x d_l, l = 1..L-1) and the final output into Z."""
    cur = X
    for W, A in zip(layers, acts):
        cur = _hidden(cur, W, A)
    return np.dot(cur, layers[-1], out=Z)


def _hidden(X: Matrix, W: Matrix, out: Matrix) -> Matrix:
    """tanh(X W), the input of the layer after W, written into `out`."""
    return np.tanh(np.dot(X, W, out=out), out=out)


_Row = tuple[np.ndarray, ...]


def _output_grad(loss: str, Y: Matrix, row: _Row, dZ: Matrix, ZT: Matrix) -> tuple[_Row, Matrix]:
    """The per-sample output gradient of one pass, written into dZ, and
    the inputs `_losses` needs for its per-sample losses, which the
    gradient forms on its way, written into the pass's store row `row`
    (`_rows`), whose first slot holds the pass's output Z: the residual
    R = Z - Y for squared error (dZ = 2R); for cross entropy, Z with its
    row maxima and the row totals of the shifted exponentials
    (dZ = softmax(Z) - Y). Returns the row and dZ."""
    if loss == "squared_error":
        (R,) = row
        np.subtract(R, Y, out=R)
        return row, np.multiply(R, 2.0, out=dZ)
    # softmax cross entropy, stable via the logsumexp shift. The row
    # maxima come from an elementwise reduce over the transposed copy ZT
    # (d x n), which costs less than numpy's row-by-row reduce over a few
    # columns. A maximum is exact whatever the order, and the sign of a
    # zero maximum reaches neither Z - zmax nor zmax + log(total).
    Z, zmax, total = row
    np.copyto(ZT, Z.T)
    np.maximum.reduce(ZT, out=zmax)
    np.subtract(Z, zmax[:, None], out=dZ)
    np.exp(dZ, out=dZ)
    np.add.reduce(dZ, axis=1, out=total)
    np.divide(dZ, total[:, None], out=dZ)
    return row, np.subtract(dZ, Y, out=dZ)


def _losses(loss: str, inputs: tuple[np.ndarray, ...], Y: Matrix) -> np.ndarray:
    """Per-sample losses from the `_output_grad` inputs of one pass
    (shape n) or of N passes stacked on a leading axis (shape N x n).
    Every pass gets the same elementwise operations and row sums, so
    each row holds the bits that pass alone would give."""
    if loss == "squared_error":
        (R,) = inputs
        return (R * R).sum(axis=-1)
    Z, zmax, total = inputs
    return zmax + np.log(total) - (Z * Y).sum(axis=-1)


def end_loss(model: MlpModel, data: Dataset) -> float:
    """Summed loss over all samples (no 1/n). Each hidden input is formed
    from the one before by `_hidden`, the step `walk_calibration` takes,
    so one is alive at a time; `end_loss_from_input` takes the loss from
    the last."""
    X = ensure_matrix(data.inputs, "X")
    for W in model.layers[:-1]:
        X = _hidden(X, W, np.empty((X.shape[0], W.shape[1])))
    return end_loss_from_input(model, X, data)


def end_loss_from_input(model: MlpModel, X: Matrix, data: Dataset) -> float:
    """The summed loss of `model` on `data` from X, the last layer's input
    on `data` (`end_loss`'s last hidden input, or the last
    `walk_calibration` record's), with `end_loss`'s bits: the last
    product writes Z into a one-pass store row (`_rows`), where
    `_output_grad` forms the loss inputs that `_losses` turns into the
    per-sample losses this sums.

    Raises DimensionMismatch when Z would not have the targets' shape."""
    n, d = X.shape[0], model.layers[-1].shape[1]
    (row,) = _rows(_loss_store(model.loss, n, d, passes=1), data.targets)
    np.dot(X, model.layers[-1], out=row[0])
    inputs, _ = _output_grad(model.loss, data.targets, row, np.empty((n, d)), np.empty((d, n)))
    return float(np.sum(_losses(model.loss, inputs, data.targets)))


_Workspace = tuple[list[Matrix], list[Matrix], list[Matrix]]


def _workspace(n: int, dims: list[int]) -> _Workspace:
    """Uninitialised buffers for passes over n samples through a model of
    widths `dims` = [d_0, ..., d_L]: per hidden layer l = 1..L-1 its
    post-tanh output X^(l), per layer the output gradient G^(l-1), each
    n x d_l, and the scratches: per hidden layer a (1 - X^(l)^2) block,
    n x d_l, and last the d_L x n transposed copy of Z that the
    cross-entropy gradient reduces (`_output_grad`). A pass uses one
    scratch at a time, so the scratches are views of one block sized
    for the widest.

    Raises EmptyCalibration when n is zero.
    """
    if n == 0:
        raise EmptyCalibration("calibration requires at least one sample")
    hidden = dims[1:-1]
    block = np.empty(n * max(dims[1:]))
    scratch = [block[:n * d].reshape(n, d) for d in hidden]
    scratch.append(block[:n * dims[-1]].reshape(dims[-1], n))
    return [np.empty((n, d)) for d in hidden], [np.empty((n, d)) for d in dims[1:]], scratch


def _forward_backward(
    layers: list[Matrix], loss: str, X: Matrix, Y: Matrix, ws: _Workspace, row: _Row
) -> tuple[_Row, Matrix]:
    """One forward/backward pass over plain weight arrays, written into
    the workspace `ws` = (acts, grads, scratch) of `_workspace` and the
    store row `row` of `_rows`: the last product writes Z into the row,
    `_output_grad` turns it into the row's loss inputs, the hidden
    inputs X^(1..L-1) are left in acts and the gradients G^(0..L-1) in
    grads. Returns the row's loss inputs and the last layer's output
    gradient grads[-1]."""
    acts, grads, scratch = ws
    _forward(layers, X, acts, row[0])
    inputs, G = _output_grad(loss, Y, row, grads[-1], scratch[-1])
    # Walk backwards: gradient w.r.t. the input of layer i+1 is
    # (G W^T) * (1 - X^2) because acts[i] holds the post-tanh values.
    for i in range(len(layers) - 2, -1, -1):
        S = np.subtract(1.0, np.square(acts[i], out=scratch[i]), out=scratch[i])
        G = np.multiply(np.dot(G, layers[i + 1].T, out=grads[i]), S, out=grads[i])
    return inputs, grads[-1]


def calibrate(model: MlpModel, data: Dataset) -> list[LayerCalibration]:
    """One forward/backward pass recording (X, gradZ) per layer.

    Raises EmptyCalibration when the dataset has zero rows.
    """
    X = ensure_matrix(data.inputs, "X")
    ws = acts, grads, _ = _workspace(X.shape[0], model.dims)
    (row,) = _rows(_loss_store(model.loss, X.shape[0], model.dims[-1], passes=1), data.targets)
    _forward_backward(model.layers, model.loss, X, data.targets, ws, row)
    return [LayerCalibration(X=A, gradZ=Gz) for A, Gz in zip([X, *acts], grads)]


def walk_calibration(model: MlpModel,
                     calib: list[LayerCalibration]) -> Iterator[LayerCalibration]:
    """Each layer's LayerCalibration in turn, from `calib`, a `calibrate`
    list, with the bits of its records: a hidden layer's input is formed
    from the one before when the walk reaches it, by `_forward`'s own
    step.

    The walk takes `calib` over when it starts: it keeps the model's
    input and the output gradients and empties the list, so the hidden
    inputs go. It drops each gradient as it moves past its record and
    holds no record, and between records only the input of the layer it
    last handed out. So a caller that drops each record before asking
    for the next holds one layer's input, and no input of a layer it has
    not reached."""
    X, grads = calib[0].X, [c.gradZ for c in calib]
    calib.clear()
    for l, W in enumerate(model.layers):
        yield LayerCalibration(X=X, gradZ=grads[l])
        grads[l] = None
        if l + 1 < model.n_layers:
            X = _hidden(X, W, np.empty((X.shape[0], W.shape[1])))


def _loss_store(loss: str, n: int, d: int, passes: int | None = None) -> tuple[np.ndarray, ...]:
    """Uninitialised stacks for the `_output_grad` loss inputs of one
    block of `passes` passes over n samples with d outputs; by default
    as many passes as LOSS_BLOCK_BYTES holds, and at least one."""
    shapes = [(n, d)] if loss == "squared_error" else [(n, d), (n,), (n,)]
    if passes is None:
        passes = max(1, LOSS_BLOCK_BYTES // (8 * sum(math.prod(s) for s in shapes)))
    return tuple(np.empty((passes, *s)) for s in shapes)


def _rows(store: tuple[np.ndarray, ...], Y: Matrix) -> list[_Row]:
    """Each pass's row of `store`, as `_output_grad` fills it: the views
    of the pass's loss inputs, the first of which the pass's last
    product writes Z into.

    Raises DimensionMismatch when a pass's output Z would not have the
    shape of the targets Y."""
    if store[0].shape[1:] != Y.shape:
        raise DimensionMismatch(f"outputs {store[0].shape[1:]} vs targets {Y.shape}")
    return [tuple(a[j] for a in store) for j in range(len(store[0]))]


def _flat_buffer(shapes: list[tuple[int, int]]) -> tuple[np.ndarray, list[Matrix]]:
    """A zeroed contiguous float64 vector and, in order, one C-contiguous
    view of it reshaped to each of `shapes`."""
    buf = np.zeros(sum(r * c for r, c in shapes))
    views, start = [], 0
    for r, c in shapes:
        views.append(buf[start:start + r * c].reshape(r, c))
        start += r * c
    return buf, views


def train(model: MlpModel, data: Dataset, steps: int, lr: float) -> MlpModel:
    """Full-batch gradient descent on the summed loss, W <- W - lr * grad.

    Returns a new model holding copies of the trained layers; the input
    model is never mutated. steps=0 returns an identical copy. Each step
    runs one forward/backward pass (`_forward_backward`), and one more
    pass follows the last update, so `steps` updates cost steps + 1
    passes. Pass s yields the summed loss of the weights after update
    s - 1 and the gradients for update s.

    An lr that is not > 0 (NaN included) raises ConfigError before the
    first pass. The layers are reshaped views of one flat parameter
    vector P and the gradients views of a second vector G. Every pass
    writes into one workspace made for this call and its loss inputs
    into its own row of one store (`_loss_store`), whose row views, like
    the operands of the weight-gradient products, are made once per
    call; the targets' shape is checked once, as the rows are made
    (DimensionMismatch). P is updated in place by the same two rounded
    operations as W - lr * g. The checks, one pass at a time, in the
    order they are made:

    * pass s > 0: a non-finite summed loss raises DivergedLoss
      "non-finite loss at step s - 1" (the update that produced it);
    * update s, when the updated P is not all finite: a non-finite G
      raises DivergedLoss "non-finite gradient at step s"; otherwise
      ValueError "layer i: non-finite entries" names the first bad
      layer, found by walking the layer views through `ensure_matrix`.

    Checking G only after P fails gives the same error at the same step
    as checking it before the update: as lr > 0, a NaN or infinite entry
    of G makes the same entry of P - lr * G NaN or infinite, whatever P
    held, and P is discarded when the step raises.

    The passes run in blocks, as many as `_loss_store` holds the loss
    inputs of (LOSS_BLOCK_BYTES; 85 passes on the cross-entropy toy, 3 on
    the 64-256-256-16 mid model), and the checks run once per block: P
    is saved, the block's passes and updates run unchecked, each pass
    leaving its loss inputs in its store row, and then one `_losses`
    call sums every pass's loss and one test sees whether P is finite.
    A non-finite entry of P stays non-finite under P - lr * G (inf -
    finite = inf, inf - inf = NaN, NaN - x = NaN), so a finite P at the
    end of a block means that no update in it failed; every loss is
    checked, not just the last.
    When the block fails, P is restored and the block is replayed one
    pass at a time with the checks above, which raises the same error at
    the same step as checking every pass; the replay costs at most one
    block of extra passes.

    The final pass's loss and gradient norm go to the ``train:`` log line.
    The loop and that norm run under ``np.errstate(over="ignore",
    invalid="ignore")``: the checks catch every overflow and NaN, so
    numpy's RuntimeWarning would only repeat the error.
    """
    if steps < 0:
        raise InvalidSize(f"steps must be >= 0, got {steps}")
    if not lr > 0:
        raise ConfigError(f"lr must be > 0, got {lr}")
    X = ensure_matrix(data.inputs, "X")
    shapes = [W.shape for W in model.layers]
    P, layers = _flat_buffer(shapes)
    for view, W in zip(layers, model.layers):
        view[...] = W
    G, grads = _flat_buffer(shapes)
    scaled = np.empty_like(G)
    saved = np.empty_like(P)
    ws = _workspace(X.shape[0], model.dims)
    store = _loss_store(model.loss, X.shape[0], model.dims[-1])
    rows = _rows(store, data.targets)
    # every pass rewrites the same buffers, so the transposed layer
    # inputs X^(l)^T and the operands of each weight gradient are taken
    # once
    products = list(zip([A.T for A in [X, *ws[0]]], ws[1], grads))
    step, replay_end = 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step <= steps:
            k = 1 if step < replay_end else min(len(store[0]), steps + 1 - step)
            if k > 1:
                np.copyto(saved, P)
            for j in range(k):
                _forward_backward(layers, model.loss, X, data.targets, ws, rows[j])
                for A_T, Gl, g in products:
                    np.dot(A_T, Gl, out=g)
                if step + j < steps:
                    np.multiply(G, lr, out=scaled)
                    np.subtract(P, scaled, out=P)
            losses = _losses(model.loss, tuple(a[:k] for a in store), data.targets).sum(axis=1)
            loss_ok = np.isfinite(losses[1:] if step == 0 else losses).all()
            if loss_ok and np.isfinite(P).all():
                step += k
            elif k > 1:
                np.copyto(P, saved)
                replay_end = step + k
            elif not loss_ok:
                raise DivergedLoss(f"non-finite loss at step {step - 1}")
            elif not np.isfinite(G).all():
                raise DivergedLoss(f"non-finite gradient at step {step}")
            else:
                for i, W in enumerate(layers):
                    ensure_matrix(W, f"layer {i}")
        loss = float(losses[-1])
        gnorm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    logger.info("train: steps=%d lr=%g final_loss=%.6g grad_norm=%.3g",
                steps, lr, loss, gnorm)
    return model.with_layers([W.copy() for W in layers])
