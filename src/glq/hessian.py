"""Layer-wise proxy Hessians from calibration data.

For a layer with input X (n x d_in) and per-sample output gradients
G (n x d_out), the empirical Fisher block of output channel j satisfies

    n * F_j = X^T Diag(G[:, j]^2) X.

The guided proxy groups output channels into g consecutive blocks
J_1..J_g and shares one Hessian per block, built from the within-block
average of squared gradients (the n x g ``squared_grad_averages``):

    s_k[i] = mean_{j in J_k} (grad_scale * G[i, j])^2
    Hbar_k = X^T Diag(s_k) X + lambda_k I,
    lambda_k = damping_rel * mean(diag(X^T Diag(s_k) X)).

``grad_scale`` (default 1e3) guards against underflow in the squared
gradients of a well-trained model; scaling all gradients by s multiplies
Hbar_k and lambda_k by s^2 and therefore changes no quantization
decision downstream. The plain (loss-agnostic) Hessian is X^T X + l I
with a single group covering every channel.

Each Hbar_k is assembled as B^T B with B = Diag(sqrt(s_k)) X, so it is
positive semidefinite by construction; the relative damping makes it
positive definite whenever B has a nonzero row. A group whose s_k is
zero on every sample (a zero-gradient group) would get Hbar_k = 0 and
lambda_k = 0; ``guided_hessians`` refuses it with ZeroGradientGroup.

``layer_hessians`` hands out one layer's set at a time and keeps none
once it is handed out, so a caller that drops each set before asking
for the next (``run_job``, ``glq eval``, ``glq hessian``) holds one
layer's set at a time: at g = d_out a set holds d_out d x d matrices.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calib_model import Dataset, LayerCalibration, MlpModel
from .errors import (
    ConfigError,
    CorruptFile,
    EmptyCalibration,
    InvalidSize,
    PartitionMismatch,
    SingularHessian,
    ZeroGradientGroup,
)
from .linalg import Matrix, ensure_matrix, zero_curvature

DEFAULT_GRAD_SCALE = 1e3
DEFAULT_DAMPING_REL = 1e-7


@dataclass(frozen=True)
class ChannelPartition:
    """Disjoint cover of output channels 0..d_out-1 by consecutive groups."""

    d_out: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = [j for grp in self.groups for j in grp]
        if sorted(seen) != list(range(self.d_out)):
            raise PartitionMismatch(
                f"groups must cover 0..{self.d_out - 1} exactly once"
            )
        if any(len(grp) == 0 for grp in self.groups):
            raise PartitionMismatch("empty group")

    @property
    def g(self) -> int:
        return len(self.groups)

    @staticmethod
    def consecutive(d_out: int, g: int) -> "ChannelPartition":
        """g consecutive blocks; the first d_out % g blocks get one extra
        channel when g does not divide d_out."""
        if not 1 <= g <= d_out:
            raise InvalidSize(f"need 1 <= g <= d_out, got g={g}, d_out={d_out}")
        base, extra = divmod(d_out, g)
        groups = []
        start = 0
        for k in range(g):
            size = base + (1 if k < extra else 0)
            groups.append(tuple(range(start, start + size)))
            start += size
        return ChannelPartition(d_out=d_out, groups=tuple(groups))


@dataclass
class HessianSet:
    """Damped proxy Hessians for one layer, one matrix per channel group.

    ``hessians[k]`` already includes its diagonal shift ``lambdas[k]``;
    ``damping_rel`` records the relative rule that produced the shifts.
    """

    layer_idx: int
    partition: ChannelPartition
    hessians: list[Matrix]
    lambdas: list[float]
    grad_scale: float
    damping_rel: float
    kind: str  # "plain" or "guided"

    def __post_init__(self) -> None:
        if self.kind not in ("plain", "guided"):
            raise ValueError(f"unknown hessian kind {self.kind!r}")
        if len(self.hessians) != self.partition.g or len(self.lambdas) != self.partition.g:
            raise PartitionMismatch("one hessian and one lambda per group required")


def _check_calib(calib: LayerCalibration) -> tuple[Matrix, Matrix]:
    X = ensure_matrix(calib.X, "X")
    G = ensure_matrix(calib.gradZ, "gradZ")
    if X.shape[0] == 0:
        raise EmptyCalibration("calibration has zero samples")
    if G.shape[0] != X.shape[0]:
        raise EmptyCalibration("X and gradZ disagree on sample count")
    return X, G


def _damped(M: Matrix, damping_rel: float) -> tuple[Matrix, float]:
    lam = damping_rel * float(np.mean(np.diag(M)))
    return M + lam * np.eye(M.shape[0]), lam


def plain_hessian(
    calib: LayerCalibration,
    layer_idx: int = 0,
    damping_rel: float = DEFAULT_DAMPING_REL,
) -> HessianSet:
    """X^T X + damping_rel * mean(diag) * I, one group over all channels."""
    X, G = _check_calib(calib)
    M = X.T @ X
    M = 0.5 * (M + M.T)
    H, lam = _damped(M, damping_rel)
    part = ChannelPartition.consecutive(G.shape[1], 1)
    return HessianSet(
        layer_idx=layer_idx,
        partition=part,
        hessians=[H],
        lambdas=[lam],
        grad_scale=1.0,
        damping_rel=damping_rel,
        kind="plain",
    )


def squared_grad_averages(
    calib: LayerCalibration,
    partition: ChannelPartition,
    grad_scale: float = DEFAULT_GRAD_SCALE,
) -> Matrix:
    """The n x g array s[i, k] = mean over j in J_k of
    (grad_scale * gradZ[i, j])^2."""
    _, G = _check_calib(calib)
    if partition.d_out != G.shape[1]:
        raise PartitionMismatch(
            f"partition covers {partition.d_out} channels, layer has {G.shape[1]}"
        )
    if grad_scale <= 0.0:
        raise ValueError(f"grad_scale must be > 0, got {grad_scale}")
    sq = (grad_scale * G) ** 2
    cols = [np.mean(sq[:, list(grp)], axis=1) for grp in partition.groups]
    return np.stack(cols, axis=1)


def guided_hessians(
    calib: LayerCalibration,
    partition: ChannelPartition,
    layer_idx: int = 0,
    grad_scale: float = DEFAULT_GRAD_SCALE,
    damping_rel: float = DEFAULT_DAMPING_REL,
) -> HessianSet:
    """One damped Hbar_k per channel group (see module docstring).

    Raises ZeroGradientGroup when a group's scaled squared gradients are
    zero on every sample: its Hbar_k and lambda_k would both be 0, which
    no solver downstream can factor.
    """
    X, _ = _check_calib(calib)
    s = squared_grad_averages(calib, partition, grad_scale)
    hessians, lambdas = [], []
    for k in range(partition.g):
        if not np.any(s[:, k]):
            grp = partition.groups[k]
            raise ZeroGradientGroup(
                f"layer {layer_idx} group {k} (channels {grp[0]}..{grp[-1]}): "
                f"zero gradient on every sample, so its guided Hessian and "
                f"damping would both be 0"
            )
        B = X * np.sqrt(s[:, k])[:, None]
        M = B.T @ B
        M = 0.5 * (M + M.T)
        H, lam = _damped(M, damping_rel)
        hessians.append(H)
        lambdas.append(lam)
    return HessianSet(
        layer_idx=layer_idx,
        partition=partition,
        hessians=hessians,
        lambdas=lambdas,
        grad_scale=grad_scale,
        damping_rel=damping_rel,
        kind="guided",
    )


def fisher_diag(calib: LayerCalibration) -> Matrix:
    """Diagonal empirical Fisher per weight, d_in x d_out.

    Entry (i, j) = (1/n) sum_s (gradZ[s, j] * X[s, i])^2. Used as the
    per-weight sensitivity for the weighted k-means baseline.
    """
    X, G = _check_calib(calib)
    n = X.shape[0]
    return ((X ** 2).T @ (G ** 2)) / n


def model_hash(model: MlpModel) -> str:
    """Content hash of a model: header plus layer bytes, order fixed."""
    h = hashlib.sha256()
    header = json.dumps(
        {"activation": model.activation, "loss": model.loss,
         "dims": model.dims},
        sort_keys=True,
    ).encode()
    h.update(header)
    for W in model.layers:
        h.update(np.ascontiguousarray(W, dtype="<f8").tobytes())
    return h.hexdigest()


def dataset_hash(data: Dataset) -> str:
    """Content hash of a dataset: header (shapes) plus inputs and targets
    bytes. The seed is left out: two datasets drawn with one seed but a
    different n are different data."""
    h = hashlib.sha256()
    header = json.dumps(
        {"inputs": list(data.inputs.shape), "targets": list(data.targets.shape)},
        sort_keys=True,
    ).encode()
    h.update(header)
    for M in (data.inputs, data.targets):
        h.update(np.ascontiguousarray(M, dtype="<f8").tobytes())
    return h.hexdigest()


def hessian_cache_key(
    model_digest: str,
    dataset_digest: str,
    layer_idx: int,
    g: int,
    grad_scale: float,
    damping_rel: float,
    kind: str,
) -> str:
    """Deterministic cache key for one layer's HessianSet, from the
    content hashes of the model and the calibration dataset."""
    payload = json.dumps(
        {
            "model": model_digest,
            "dataset": dataset_digest,
            "layer": layer_idx,
            "g": g,
            "grad_scale": repr(float(grad_scale)),
            "damping_rel": repr(float(damping_rel)),
            "kind": kind,
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


class HessianCache:
    """Disk cache of HessianSets under ``root/<key>/``.

    Each entry holds ``hess.L<layer>.G<k>.gqt`` tensor files plus a
    ``manifest.json`` recording the partition, grad scale, damping rule
    and per-file content hashes. A reload checks those hashes first and
    raises CorruptFile on a mismatch, so it is bit-exact or refused.
    A set with an input feature of zero curvature, which no solver can
    factor, is never stored: ``store`` raises SingularHessian first.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _dir(self, key: str) -> Path:
        return self.root / key

    def load(self, key: str) -> HessianSet | None:
        from .tensorio import read_tensor, verify_manifest

        d = self._dir(key)
        man = d / "manifest.json"
        if not man.exists():
            return None
        meta = json.loads(man.read_text())
        part = ChannelPartition(
            d_out=meta["d_out"],
            groups=tuple(tuple(grp) for grp in meta["groups"]),
        )
        names = [f"hess.L{meta['layer_idx']}.G{k}.gqt" for k in range(part.g)]
        bad = verify_manifest(d) + [n for n in names if n not in meta.get("files", {})]
        if bad:
            raise CorruptFile(f"{d}: hessian cache entry fails its manifest: {bad}")
        hessians = [read_tensor(d / name) for name in names]
        return HessianSet(
            layer_idx=meta["layer_idx"],
            partition=part,
            hessians=hessians,
            lambdas=[float(x) for x in meta["lambdas"]],
            grad_scale=meta["grad_scale"],
            damping_rel=meta["damping_rel"],
            kind=meta["kind"],
        )

    def store(self, key: str, hset: HessianSet) -> Path:
        from .tensorio import file_sha256, write_json_atomic, write_tensor

        for k, H in enumerate(hset.hessians):
            cause = zero_curvature(H)
            if cause is not None:
                raise SingularHessian(hset.layer_idx, k, cause)
        d = self._dir(key)
        d.mkdir(parents=True, exist_ok=True)
        files = {}
        for k, H in enumerate(hset.hessians):
            name = f"hess.L{hset.layer_idx}.G{k}.gqt"
            write_tensor(d / name, H)
            files[name] = file_sha256(d / name)
        meta = {
            "layer_idx": hset.layer_idx,
            "d_out": hset.partition.d_out,
            "groups": [list(grp) for grp in hset.partition.groups],
            "lambdas": [float(x) for x in hset.lambdas],
            "grad_scale": hset.grad_scale,
            "damping_rel": hset.damping_rel,
            "kind": hset.kind,
            "files": files,
        }
        write_json_atomic(d / "manifest.json", meta)
        return d


def layer_hessians(
    model: MlpModel,
    data: Dataset,
    calib: list[LayerCalibration],
    kind: str,
    g: int = 1,
    grad_scale: float = DEFAULT_GRAD_SCALE,
    damping_rel: float = DEFAULT_DAMPING_REL,
    cache: HessianCache | None = None,
    reuse: bool = True,
) -> Iterator[tuple[str, HessianSet]]:
    """(cache key, HessianSet) of each layer of `model` in turn.

    kind "plain" builds X^T X with one group, keyed with g = 1 and unit
    grad scale; kind "guided" builds the grouped Hessians over
    min(g, d_out) consecutive channel groups, so a layer narrower than g
    gets one group per channel, and keys each layer with that clipped
    count. A layer with d_out >= g keeps the key of its unclipped g.
    With a `cache`, an existing entry is
    loaded when `reuse` is set, and every set built here is stored under
    its key. This is the only place a layer Hessian is built and keyed,
    so a quantize run finds exactly the entries a hessian run wrote.

    The sets come one layer at a time and nothing here keeps one once it
    is handed out, so a caller that drops each set before asking for the
    next holds one layer's set at a time. An unknown kind is refused
    before the first set (ConfigError).
    """
    if kind not in ("plain", "guided"):
        raise ConfigError(f"unknown hessian kind {kind!r}")
    if kind == "plain":
        g, grad_scale = 1, 1.0
    return _layer_sets(model, data, calib, kind, g, grad_scale, damping_rel, cache, reuse)


def _layer_sets(model, data, calib, kind, g, grad_scale, damping_rel, cache, reuse):
    digest, data_digest = model_hash(model), dataset_hash(data)
    for l, c in enumerate(calib):
        g_l = min(g, c.gradZ.shape[1])
        key = hessian_cache_key(digest, data_digest, l, g_l, grad_scale, damping_rel, kind)
        hset = cache.load(key) if cache is not None and reuse else None
        if hset is None:
            if kind == "plain":
                hset = plain_hessian(c, layer_idx=l, damping_rel=damping_rel)
            else:
                part = ChannelPartition.consecutive(c.gradZ.shape[1], g_l)
                hset = guided_hessians(
                    c, part, layer_idx=l, grad_scale=grad_scale, damping_rel=damping_rel
                )
            if cache is not None:
                cache.store(key, hset)
        yield key, hset
        del hset  # not held while the next layer's set is built
