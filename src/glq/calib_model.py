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
only place the recursion lives). ``train`` runs it once per step: the
pass over the weights after update s yields both the summed loss that
update s is checked against and the gradients of update s + 1, and one
extra pass after the last update gives the final loss and gradient norm
for its log line. Its layers are reshaped views of one flat parameter
buffer and its gradients views of a second, so a step makes one
finiteness check per buffer and one in-place update, however deep the
model. Only when the weight check fails are the layers walked one by one
to name the first non-finite layer. The loop runs with numpy's overflow
and invalid-value warnings off, as each such value is caught by a check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivergedLoss, EmptyCalibration, InvalidSize
from .linalg import Matrix, ensure_matrix

logger = logging.getLogger(__name__)

ACTIVATIONS = ("tanh",)
LOSSES = ("squared_error", "softmax_cross_entropy")

TOY_DIMS = [8, 16, 16, 4]
TOY_N = 64


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
    return _forward(model.layers, ensure_matrix(X, "X"))


def _forward(layers: list[Matrix], X: Matrix) -> tuple[list[Matrix], Matrix]:
    acts = []
    cur = X
    for i, W in enumerate(layers):
        acts.append(cur)
        cur = cur @ W
        if i < len(layers) - 1:
            cur = np.tanh(cur)
    return acts, cur


def _loss_and_grad(loss: str, Z: Matrix, Y: Matrix) -> tuple[np.ndarray, Matrix]:
    """Per-sample losses (length n) and per-sample output gradient dZ."""
    if Z.shape != Y.shape:
        raise DimensionMismatch(f"outputs {Z.shape} vs targets {Y.shape}")
    if loss == "squared_error":
        R = Z - Y
        return (R * R).sum(axis=1), 2.0 * R
    # softmax cross entropy, stable via the logsumexp shift
    zmax = Z.max(axis=1, keepdims=True)
    soft = np.exp(Z - zmax)
    total = soft.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    per = lse - (Z * Y).sum(axis=1)
    soft /= total
    return per, soft - Y


def end_loss(model: MlpModel, data: Dataset) -> float:
    """Summed loss over all samples (no 1/n)."""
    _, Z = forward(model, data.inputs)
    per, _ = _loss_and_grad(model.loss, Z, data.targets)
    return float(np.sum(per))


def per_sample_losses(model: MlpModel, data: Dataset) -> np.ndarray:
    """Vector of l_i; end_loss is its exact sum."""
    _, Z = forward(model, data.inputs)
    per, _ = _loss_and_grad(model.loss, Z, data.targets)
    return per


def _forward_backward(
    layers: list[Matrix], loss: str, X: Matrix, Y: Matrix
) -> tuple[np.ndarray, list[LayerCalibration]]:
    """One forward/backward pass over plain weight arrays: the per-sample
    losses and, per layer, the input X^(l) and output gradient G^(l).

    Raises EmptyCalibration when X has zero rows.
    """
    if X.shape[0] == 0:
        raise EmptyCalibration("calibration requires at least one sample")
    acts, Z = _forward(layers, X)
    per, G = _loss_and_grad(loss, Z, Y)
    out: list[LayerCalibration] = [LayerCalibration(X=acts[-1], gradZ=G)]
    # Walk backwards: gradient w.r.t. the input of layer i+1 is
    # (G W^T) * (1 - X^2) because acts[i+1] holds the post-tanh values.
    for i in range(len(layers) - 2, -1, -1):
        G = (G @ layers[i + 1].T) * (1.0 - acts[i + 1] ** 2)
        out.append(LayerCalibration(X=acts[i], gradZ=G))
    out.reverse()
    return per, out


def calibrate(model: MlpModel, data: Dataset) -> list[LayerCalibration]:
    """One forward/backward pass recording (X, gradZ) per layer.

    Raises EmptyCalibration when the dataset has zero rows.
    """
    X = ensure_matrix(data.inputs, "X")
    return _forward_backward(model.layers, model.loss, X, data.targets)[1]


def weight_gradients(model: MlpModel, data: Dataset) -> list[Matrix]:
    """Gradient of the summed loss w.r.t. each weight matrix."""
    calib = calibrate(model, data)
    return [c.X.T @ c.gradZ for c in calib]


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

    The layers are reshaped views of one flat parameter vector P and the
    gradients views of a second vector G, so each check below tests one
    whole buffer, and P is updated in place by the same two rounded
    operations as W - lr * g. Checks, in the order they are made:

    * pass s > 0: a non-finite loss raises DivergedLoss "non-finite loss
      at step s - 1" (the update that produced it);
    * pass s < steps: a non-finite G raises DivergedLoss "non-finite
      gradient at step s";
    * update s: a non-finite P raises ValueError "layer i: non-finite
      entries" for the first bad layer, found by walking the layer views
      through `ensure_matrix` only once the check over P has failed.

    The final pass's loss and gradient norm go to the ``train:`` log line.
    The loop and that norm run under ``np.errstate(over="ignore",
    invalid="ignore")``: the checks catch every overflow and NaN, so
    numpy's RuntimeWarning would only repeat the error.
    """
    if steps < 0:
        raise InvalidSize(f"steps must be >= 0, got {steps}")
    X = ensure_matrix(data.inputs, "X")
    shapes = [W.shape for W in model.layers]
    P, layers = _flat_buffer(shapes)
    for view, W in zip(layers, model.layers):
        view[...] = W
    G, grads = _flat_buffer(shapes)
    scaled = np.empty_like(G)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            per, calib = _forward_backward(layers, model.loss, X, data.targets)
            loss = float(per.sum())
            if step > 0 and not np.isfinite(loss):
                raise DivergedLoss(f"non-finite loss at step {step - 1}")
            for c, g in zip(calib, grads):
                np.matmul(c.X.T, c.gradZ, out=g)
            if step == steps:
                break
            if not np.isfinite(G).all():
                raise DivergedLoss(f"non-finite gradient at step {step}")
            np.multiply(G, lr, out=scaled)
            np.subtract(P, scaled, out=P)
            if not np.isfinite(P).all():
                for i, W in enumerate(layers):
                    ensure_matrix(W, f"layer {i}")
        gnorm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    logger.info("train: steps=%d lr=%g final_loss=%.6g grad_norm=%.3g",
                steps, lr, loss, gnorm)
    return model.with_layers([W.copy() for W in layers])
