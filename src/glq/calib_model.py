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

``calibrate`` and ``train`` share that pass (``_forward_backward``, the
only place the recursion lives). It writes into a workspace made by
``_workspace``: per hidden layer one buffer each for the post-tanh
activations and the output gradients, and one (1 - X^2) scratch block
that every hidden layer shares, filled with ``out=``. Only the small
n x d_out output arrays are allocated per pass. The pass computes no
loss: it returns the output gradient and the loss inputs that gradient
forms on its way (``_output_grad``), and ``_losses`` turns the inputs of
one pass, or of a stack of passes, into per-sample losses with the same
operations for each pass; ``end_loss`` and ``per_sample_losses`` use it
on one. ``calibrate`` runs the pass on a fresh workspace, whose arrays
its records then own. ``train`` makes one workspace per call and reuses
it on every step, so a step allocates no activation-sized array: on the
64-256-256-16 mid model a 300-step train takes about 2 K minor page
faults, not 370 K.

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

    def copy(self) -> "MlpModel":
        return MlpModel(
            layers=[W.copy() for W in self.layers],
            activation=self.activation,
            loss=self.loss,
        )

    def with_layers(self, layers: list[Matrix]) -> "MlpModel":
        return MlpModel(layers=list(layers), activation=self.activation, loss=self.loss)


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
    if n < 1:
        raise InvalidSize(f"need n >= 1 samples, got {n}")
    if d0 < 1 or dt < 1:
        raise InvalidSize("dimensions must be >= 1")
    if task not in LOSSES:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d0))
    h = max(d0, dt, 8)
    Wt1 = rng.standard_normal((d0, h)) / np.sqrt(d0)
    Wt2 = rng.standard_normal((h, dt)) / np.sqrt(h)
    base = np.tanh(X @ Wt1) @ Wt2
    if task == "squared_error":
        Y = base * (1.0 + np.arange(dt, dtype=np.float64))
    else:
        labels = np.argmax(base, axis=1)
        Y = np.zeros((n, dt))
        Y[np.arange(n), labels] = 1.0
    return Dataset(inputs=X, targets=Y, seed=seed)


def toy_problem(seed: int = 0, loss: str = "squared_error",
                steps: int = 150) -> tuple[MlpModel, Dataset]:
    """The standard toy problem: a TOY_DIMS model trained for `steps`
    full-batch steps (lr 2e-3) on TOY_N samples drawn with `seed`; the
    model is initialized from seed + 1."""
    data = gen_dataset(seed, TOY_N, TOY_DIMS[0], TOY_DIMS[-1], task=loss)
    model = random_model(TOY_DIMS, seed + 1, loss=loss)
    return train(model, data, steps=steps, lr=2e-3), data


def random_model(dims: list[int], seed: int, loss: str = "squared_error") -> MlpModel:
    """Fresh model with N(0, 1/d_in) weights, deterministic in `seed`."""
    if len(dims) < 2:
        raise InvalidSize("need at least [d_in, d_out]")
    rng = np.random.default_rng(seed)
    layers = [
        rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
        for i in range(len(dims) - 1)
    ]
    return MlpModel(layers=layers, loss=loss)


def forward(model: MlpModel, X: Matrix) -> tuple[list[Matrix], Matrix]:
    """Return ([X^(0), ..., X^(L-1)] layer inputs, final output Z)."""
    X = ensure_matrix(X, "X")
    acts = [np.empty((X.shape[0], d)) for d in model.dims[1:-1]]
    return [X, *acts], _forward(model.layers, X, acts)


def _forward(layers: list[Matrix], X: Matrix, acts: list[Matrix]) -> Matrix:
    """Write each hidden layer's post-tanh output into its buffer in
    `acts` (n x d_l, l = 1..L-1) and return the final output Z."""
    cur = X
    for W, A in zip(layers, acts):
        cur = np.tanh(np.matmul(cur, W, out=A), out=A)
    return cur @ layers[-1]


def _output_grad(loss: str, Z: Matrix, Y: Matrix) -> tuple[tuple[Matrix, ...], Matrix]:
    """The per-sample output gradient dZ of one pass, and the inputs
    `_losses` needs for its per-sample losses, which the gradient forms
    on its way: the residual R = Z - Y for squared error (dZ = 2R); for
    cross entropy, Z with its row maxima and the row totals of the
    shifted exponentials (dZ = softmax(Z) - Y)."""
    if Z.shape != Y.shape:
        raise DimensionMismatch(f"outputs {Z.shape} vs targets {Y.shape}")
    if loss == "squared_error":
        R = Z - Y
        return (R,), 2.0 * R
    # softmax cross entropy, stable via the logsumexp shift. The row
    # maxima come from an elementwise reduce over a transposed copy, which
    # costs less than numpy's row-by-row reduce over a few columns. A
    # maximum is exact whatever the order, and the sign of a zero maximum
    # reaches neither Z - zmax nor zmax + log(total).
    zmax = np.maximum.reduce(np.ascontiguousarray(Z.T))
    soft = np.subtract(Z, zmax[:, None])
    np.exp(soft, out=soft)
    total = soft.sum(axis=1)
    soft /= total[:, None]
    return (Z, zmax, total), np.subtract(soft, Y, out=soft)


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
    """Summed loss over all samples (no 1/n)."""
    return float(np.sum(per_sample_losses(model, data)))


def per_sample_losses(model: MlpModel, data: Dataset) -> np.ndarray:
    """Vector of l_i; end_loss is its exact sum."""
    _, Z = forward(model, data.inputs)
    inputs, _ = _output_grad(model.loss, Z, data.targets)
    return _losses(model.loss, inputs, data.targets)


_Workspace = tuple[list[Matrix], list[Matrix], list[Matrix]]


def _workspace(n: int, dims: list[int]) -> _Workspace:
    """Uninitialised buffers for passes over n samples through a model of
    widths `dims`: per hidden layer l = 1..L-1, its post-tanh output
    X^(l), the output gradient G^(l-1) of the layer before it, and a
    (1 - X^(l)^2) scratch, each n x d_l. The backward pass uses one
    scratch at a time, so the scratches are views of one block sized
    for the widest hidden layer.

    Raises EmptyCalibration when n is zero.
    """
    if n == 0:
        raise EmptyCalibration("calibration requires at least one sample")
    hidden = dims[1:-1]
    block = np.empty(n * max(hidden, default=0))
    scratch = [block[:n * d].reshape(n, d) for d in hidden]
    return [np.empty((n, d)) for d in hidden], [np.empty((n, d)) for d in hidden], scratch


def _forward_backward(
    layers: list[Matrix], loss: str, X: Matrix, Y: Matrix, ws: _Workspace
) -> tuple[tuple[Matrix, ...], Matrix]:
    """One forward/backward pass over plain weight arrays, written into
    the workspace `ws` = (acts, grads, scratch) of `_workspace`: the
    `_output_grad` loss inputs and the last layer's output gradient are
    returned, the hidden inputs X^(1..L-1) are left in acts and the
    gradients G^(0..L-2) in grads."""
    acts, grads, scratch = ws
    inputs, G_last = _output_grad(loss, _forward(layers, X, acts), Y)
    # Walk backwards: gradient w.r.t. the input of layer i+1 is
    # (G W^T) * (1 - X^2) because acts[i] holds the post-tanh values.
    G = G_last
    for i in range(len(layers) - 2, -1, -1):
        S = np.subtract(1.0, np.square(acts[i], out=scratch[i]), out=scratch[i])
        G = np.multiply(np.matmul(G, layers[i + 1].T, out=grads[i]), S, out=grads[i])
    return inputs, G_last


def calibrate(model: MlpModel, data: Dataset) -> list[LayerCalibration]:
    """One forward/backward pass recording (X, gradZ) per layer.

    Raises EmptyCalibration when the dataset has zero rows.
    """
    X = ensure_matrix(data.inputs, "X")
    ws = _workspace(X.shape[0], model.dims)
    _, G = _forward_backward(model.layers, model.loss, X, data.targets, ws)
    acts, grads, _ = ws
    return [LayerCalibration(X=A, gradZ=Gz) for A, Gz in zip([X, *acts], [*grads, G])]


def weight_gradients(model: MlpModel, data: Dataset) -> list[Matrix]:
    """Gradient of the summed loss w.r.t. each weight matrix."""
    calib = calibrate(model, data)
    return [c.X.T @ c.gradZ for c in calib]


def _loss_store(loss: str, n: int, d: int) -> tuple[np.ndarray, ...]:
    """Uninitialised stacks for the `_output_grad` loss inputs of one
    block of passes over n samples with d outputs: as many passes as
    LOSS_BLOCK_BYTES holds, and at least one."""
    shapes = [(n, d)] if loss == "squared_error" else [(n, d), (n,), (n,)]
    passes = max(1, LOSS_BLOCK_BYTES // (8 * sum(math.prod(s) for s in shapes)))
    return tuple(np.empty((passes, *s)) for s in shapes)


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
    vector P and the gradients views of a second vector G, and every
    pass writes into one workspace made for this call. P is updated in
    place by the same two rounded operations as W - lr * g. The checks,
    one pass at a time, in the order they are made:

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
    is saved, the block's passes and updates run unchecked, each pass's
    loss inputs are kept, and then one `_losses` call sums every pass's
    loss and one test sees whether P is finite. A non-finite entry of P
    stays non-finite under P - lr * G (inf - finite = inf, inf - inf =
    NaN, NaN - x = NaN), so a finite P at the end of a block means that
    no update in it failed; every loss is checked, not just the last.
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
    # every pass rewrites the same buffers, so the transposed layer
    # inputs X^(l)^T are taken once
    inputs_T = [A.T for A in [X, *ws[0]]]
    step, replay_end = 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step <= steps:
            k = 1 if step < replay_end else min(len(store[0]), steps + 1 - step)
            if k > 1:
                np.copyto(saved, P)
            for j in range(k):
                inputs, Gz = _forward_backward(layers, model.loss, X, data.targets, ws)
                for stack, a in zip(store, inputs):
                    stack[j] = a
                for A_T, Gl, g in zip(inputs_T, [*ws[1], Gz], grads):
                    np.matmul(A_T, Gl, out=g)
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
