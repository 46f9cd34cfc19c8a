"""Layer-wise proxy Hessians from calibration data.

For a layer with input X (n x d_in) and per-sample output gradients
G (n x d_out), the empirical Fisher block of output channel j satisfies

    n * F_j = X^T Diag(G[:, j]^2) X.

The guided proxy groups output channels into g consecutive blocks
J_1..J_g (a ``ChannelPartition``: the block sizes, in channel order) and
shares one Hessian per block, built from the within-block average of
squared gradients (the n x g ``squared_grad_averages``):

    s_k[i] = mean_{j in J_k} G[i, j]^2
    Hbar_k = X^T Diag(s_k) X + lambda_k I,
    lambda_k = damping_rel * mean(diag(X^T Diag(s_k) X)).

The plain (loss-agnostic) Hessian is X^T X + l I with a single group
covering every channel: the same build with unit weights, since
B = X * 1.0 is X bit for bit.

Each Hbar_k is assembled as B^T B with B = Diag(sqrt(s_k)) X, so it is
positive semidefinite by construction; the relative damping makes it
positive definite whenever B has a nonzero row. A group whose s_k is
zero on every sample (a zero-gradient group) would get Hbar_k = 0 and
lambda_k = 0; ``guided_hessians`` refuses it with ZeroGradientGroup.
A gradient so large (from huge targets in the data, say) that its
square overflows gives a Hessian with non-finite entries. A
``HessianSet`` checks its matrices once, when it is made, so such a set
is refused (SingularHessian, naming the layer and the group) before it
is returned or stored, and so is a cache entry that holds one, when it
is loaded. The solvers take the set itself and do not check its
matrices again.

A cache entry records the request it was built for
(``hessian_request``: model and dataset digests, layer, clipped g,
damping rule, kind), which its key hashes; ``HessianCache.load``
refuses an entry whose recorded request is not the one asked for, and
builds the set on the partition the caller already holds.

``layer_hessians`` checks the settings, hashes the model and dataset
once when a cache is given, and returns one function that builds or
loads one layer's set from that layer's calibration record. It keeps no
set and no record, so a caller that drops each set before it asks for
the next (``run_job``, ``glq eval``, ``glq hessian``) holds one layer's
set at a time: at g = d_out a set holds d_out d x d matrices. A set's
build holds one n x d buffer beside the set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calib_model import Dataset, LayerCalibration, MlpModel
from .errors import (
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    EmptyCalibration,
    InvalidSize,
    PartitionMismatch,
    SingularHessian,
    ZeroGradientGroup,
)
from .linalg import Matrix, ensure_matrix, zero_curvature

DEFAULT_DAMPING_REL = 1e-7


@dataclass(frozen=True)
class ChannelPartition:
    """Output channels 0..d_out-1 split into consecutive groups: group k
    holds the ``sizes[k]`` channels after those of groups 0..k-1, so the
    groups cover the layer by construction and d_out is their sum."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(type(k) is not int or k < 1 for k in self.sizes):
            raise PartitionMismatch(f"group sizes must be positive integers, got {self.sizes}")

    @property
    def g(self) -> int:
        return len(self.sizes)

    @property
    def d_out(self) -> int:
        return sum(self.sizes)

    @property
    def bounds(self) -> list[tuple[int, int]]:
        """(first, end) channel of each group."""
        ends = list(itertools.accumulate(self.sizes))
        return list(zip([0] + ends[:-1], ends))

    @staticmethod
    def consecutive(d_out: int, g: int) -> "ChannelPartition":
        """g consecutive blocks; the first d_out % g blocks get one extra
        channel when g does not divide d_out."""
        if not 1 <= g <= d_out:
            raise InvalidSize(f"need 1 <= g <= d_out, got g={g}, d_out={d_out}")
        base, extra = divmod(d_out, g)
        return ChannelPartition(tuple(base + (1 if k < extra else 0) for k in range(g)))


@dataclass
class HessianSet:
    """Damped proxy Hessians for one layer, one matrix per channel group;
    ``hessians[k]`` already includes its diagonal shift lambda_k.

    The one check of a set's matrices, made when it is constructed (by
    the build and by a cache load alike): each is held as a C-contiguous
    float64 d x d array, one d for the whole set (DimensionMismatch
    otherwise), and a matrix with a NaN or infinite entry, which cannot
    be factored, raises SingularHessian. Both errors name the layer and
    the group, and the solvers read the set unchecked."""

    layer_idx: int
    partition: ChannelPartition
    hessians: list[Matrix]

    def __post_init__(self) -> None:
        if len(self.hessians) != self.partition.g:
            raise PartitionMismatch("one hessian per group required")
        self.hessians = [np.ascontiguousarray(H, dtype=np.float64) for H in self.hessians]
        first = self.hessians[0].shape
        for k, H in enumerate(self.hessians):
            where = f"layer {self.layer_idx} group {k}"
            if H.ndim != 2 or H.shape[0] != H.shape[1]:
                raise DimensionMismatch(f"{where}: Hessian is {H.shape}, not d x d")
            if H.shape != first:
                raise DimensionMismatch(f"{where}: Hessian is {H.shape}, group 0's is {first}")
            if not np.all(np.isfinite(H)):
                raise SingularHessian(self.layer_idx, k, "non-finite entries")


def check_settings(damping_rel: float) -> None:
    """Refuse (ConfigError) a negative relative damping, NaN included:
    the one check of it, which `QuantJob`, `layer_hessians` and both
    builders make."""
    if not damping_rel >= 0:
        raise ConfigError(f"damping_rel must be >= 0, got {damping_rel}")


def check_calib(calib: LayerCalibration) -> tuple[Matrix, Matrix]:
    """A record's X and gradZ as checked matrices; a record with no
    samples, or whose two arrays disagree on the count, raises
    EmptyCalibration."""
    X = ensure_matrix(calib.X, "X")
    G = ensure_matrix(calib.gradZ, "gradZ")
    if X.shape[0] == 0:
        raise EmptyCalibration("calibration has zero samples")
    if G.shape[0] != X.shape[0]:
        raise EmptyCalibration("X and gradZ disagree on sample count")
    return X, G


def _damped(M: Matrix, damping_rel: float) -> Matrix:
    """M + lam * I in place, with the bits of that formula, for lam =
    damping_rel * mean(diag(M)): the off-diagonal entries add lam * 0.0
    (which turns -0.0 into 0.0) and the diagonal adds lam."""
    lam = damping_rel * float(np.mean(M.diagonal()))
    shifted = M.diagonal() + lam
    M += lam * 0.0
    M.flat[::M.shape[0] + 1] = shifted
    return M


def weighted_hessians(X: Matrix, s: Matrix, partition: ChannelPartition, layer_idx: int,
                      damping_rel: float) -> HessianSet:
    """The set of damped B^T B, B = X * sqrt(s[:, k]) row by row, one per
    group k of `partition`, from the n x g per-sample weights `s`: the
    one build of every layer Hessian, which `plain_hessian` (unit
    weights) and `guided_hessians` (`squared_grad_averages`) call. The
    caller checks X (`check_calib`) and the damping (`check_settings`).
    B is one n x d buffer rewritten for each group, and each Hessian is
    damped where B^T B put it, so a group adds one d x d matrix to the
    set and no scratch. numpy forms B^T B with one symmetric rank-k
    update and mirrors its triangle, so the product is exactly
    symmetric. An infinite weight makes non-finite entries, which
    `HessianSet` refuses, so numpy's warnings would only repeat the
    error. Weights `s` whose shape is not (n, g) raise DimensionMismatch,
    naming both shapes."""
    if s.shape != (X.shape[0], partition.g):
        raise DimensionMismatch(f"weights {s.shape} for X {X.shape}: want (n, g) = "
                                f"{(X.shape[0], partition.g)}")
    hessians = []
    B = np.empty_like(X)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(partition.g):
            np.multiply(X, np.sqrt(s[:, k])[:, None], out=B)
            hessians.append(_damped(B.T @ B, damping_rel))
    return HessianSet(layer_idx, partition, hessians)


def plain_hessian(
    calib: LayerCalibration,
    layer_idx: int = 0,
    damping_rel: float = DEFAULT_DAMPING_REL,
) -> HessianSet:
    """X^T X + damping_rel * mean(diag) * I, one group over all channels:
    the guided build with one group and unit weights. A negative (or
    NaN) damping raises ConfigError (`check_settings`)."""
    check_settings(damping_rel)
    X, G = check_calib(calib)
    return weighted_hessians(X, np.ones((X.shape[0], 1)),
                             ChannelPartition.consecutive(G.shape[1], 1), layer_idx, damping_rel)


def squared_grad_averages(calib: LayerCalibration, partition: ChannelPartition) -> Matrix:
    """The n x g array s[i, k] = mean over j in J_k of gradZ[i, j]^2.

    Each group's mean runs over a column-major copy of its columns, so
    it adds the channels one after another; a row-major slice would sum
    them pairwise and move the last bits. A square that overflows is
    left infinite, without numpy's warning: the Hessians built from it
    are refused (`HessianSet`)."""
    _, G = check_calib(calib)
    if partition.d_out != G.shape[1]:
        raise PartitionMismatch(
            f"partition covers {partition.d_out} channels, layer has {G.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        sq = G ** 2
        cols = [np.mean(np.asfortranarray(sq[:, o:e]), axis=1) for o, e in partition.bounds]
    return np.stack(cols, axis=1)


def guided_hessians(
    calib: LayerCalibration,
    partition: ChannelPartition,
    layer_idx: int = 0,
    damping_rel: float = DEFAULT_DAMPING_REL,
) -> HessianSet:
    """One damped Hbar_k per channel group (see module docstring).

    Raises ZeroGradientGroup when a group's squared gradients are zero
    on every sample: its Hbar_k and lambda_k would both be 0, which no
    solver downstream can factor. A negative damping, NaN included,
    raises ConfigError (`check_settings`) before anything is built.
    """
    check_settings(damping_rel)
    X, _ = check_calib(calib)
    s = squared_grad_averages(calib, partition)
    for k, (o, e) in enumerate(partition.bounds):
        if not np.any(s[:, k]):
            raise ZeroGradientGroup(
                f"layer {layer_idx} group {k} (channels {o}..{e - 1}): "
                f"zero gradient on every sample, so its guided Hessian and "
                f"damping would both be 0"
            )
    return weighted_hessians(X, s, partition, layer_idx, damping_rel)


def fisher_diag(calib: LayerCalibration) -> Matrix:
    """Diagonal empirical Fisher per weight, d_in x d_out.

    Entry (i, j) = (1/n) sum_s (gradZ[s, j] * X[s, i])^2. Used as the
    per-weight sensitivity for the weighted k-means baseline. An entry
    that overflows is left infinite, without numpy's warning: the
    squeezellm init refuses it (NonFiniteFisher).
    """
    X, G = check_calib(calib)
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
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


def hessian_request(
    model_digest: str,
    dataset_digest: str,
    layer_idx: int,
    g: int,
    damping_rel: float,
    kind: str,
) -> dict:
    """What one layer's HessianSet is built from, as plain JSON values:
    the content hashes of the model and the calibration dataset, the
    layer, its clipped group count and the Hessian settings. A cache
    entry is keyed by its hash and records it."""
    return {
        "model": model_digest,
        "dataset": dataset_digest,
        "layer": layer_idx,
        "g": g,
        "damping_rel": repr(float(damping_rel)),
        "kind": kind,
    }


def hessian_cache_key(request: dict) -> str:
    """Deterministic cache key of a `hessian_request`."""
    return hashlib.sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()[:24]


class HessianCache:
    """Disk cache of HessianSets under ``root/<key>/``.

    Each entry holds ``hess.L<layer>.G<k>.gqt`` tensor files plus a
    ``manifest.json`` of the ``request`` the entry was built for (whose
    hash is its key) and per-file content hashes. A load reads the
    manifest once and refuses with CorruptFile an entry whose request is
    not the one asked for (copied in from another model's or dataset's
    cache, or moved to another layer's key), or whose files fail their
    hashes, so it is bit-exact or refused. The ``lambdas`` key that older
    entries carry is not read. A set with an input feature
    of zero curvature, which no solver can factor, is never stored:
    ``store`` raises SingularHessian first. A set with a non-finite
    matrix cannot be made at all (``HessianSet``), so it is neither
    stored nor loaded.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def load(self, request: dict, partition: ChannelPartition) -> HessianSet | None:
        """The set stored for `request`, on `partition` (the request's
        layer split into its g groups), or None when there is none."""
        from .tensorio import read_manifest, read_tensor, stale_files

        d = self.root / hessian_cache_key(request)
        if not (d / "manifest.json").exists():
            return None
        meta = read_manifest(d)
        if "request" not in meta:
            raise CorruptFile(f"{d}: hessian cache entry records no request (written before "
                              f"entries recorded one); rerun `glq hessian` to rebuild it")
        if meta["request"] != request:
            built, asked = (json.dumps(r, sort_keys=True) for r in (meta["request"], request))
            raise CorruptFile(f"{d}: hessian cache entry was built for {built}, "
                              f"requested {asked}")
        names = [f"hess.L{request['layer']}.G{k}.gqt" for k in range(partition.g)]
        bad = stale_files(d, meta) + [n for n in names if n not in meta.get("files", {})]
        if bad:
            raise CorruptFile(f"{d}: hessian cache entry fails its manifest: {bad}")
        return HessianSet(request["layer"], partition, [read_tensor(d / n) for n in names])

    def store(self, request: dict, hset: HessianSet) -> Path:
        from .tensorio import write_manifest, write_tensor

        for k, H in enumerate(hset.hessians):
            cause = zero_curvature(H)
            if cause is not None:
                raise SingularHessian(hset.layer_idx, k, cause)
        d = self.root / hessian_cache_key(request)
        d.mkdir(parents=True, exist_ok=True)
        names = [f"hess.L{hset.layer_idx}.G{k}.gqt" for k in range(hset.partition.g)]
        for name, H in zip(names, hset.hessians):
            write_tensor(d / name, H)
        write_manifest(d, {"request": request}, names)
        return d


def layer_hessians(
    model: MlpModel,
    data: Dataset,
    kind: str,
    g: int = 1,
    damping_rel: float = DEFAULT_DAMPING_REL,
    cache: HessianCache | None = None,
    reuse: bool = True,
) -> Callable[[int, LayerCalibration], tuple[str | None, HessianSet]]:
    """The function `(l, c) -> (cache key, HessianSet)` that builds or
    loads the set of layer `l` of `model`, calibrated by the record `c`.

    kind "plain" builds X^T X with one group, keyed with g = 1; kind
    "guided" builds the grouped Hessians over min(g, d_out) consecutive
    channel groups, so a layer narrower than g gets one group per
    channel, and keys each layer with that clipped count. A layer with d_out >= g keeps the key of its unclipped g.
    With a `cache`, an existing entry is loaded when `reuse` is set, and
    refused (CorruptFile) unless it records this layer's request
    (`hessian_request`); every set built here is stored under its key.
    Without one, no request is made and the key is None, so the model
    and dataset are not hashed; with one, they are hashed once, here.
    This is the only place a layer Hessian is built and keyed, so a
    quantize run finds exactly the entries a hessian run wrote, and
    stores each set it has to build itself (`glq quantize
    --hessian-cache` adds, say, plain entries to a cache of guided
    ones); the cache's `index.json` lists only what `glq hessian` wrote.

    The function keeps no set or record, so a caller holds exactly the
    sets it keeps. An unknown kind and a negative damping are refused
    here, before any set (ConfigError), with `QuantJob`'s text
    (`check_settings`).
    """
    if kind not in ("plain", "guided"):
        raise ConfigError(f"unknown hessian kind {kind!r}")
    check_settings(damping_rel)
    if kind == "plain":
        g = 1
    digests = (model_hash(model), dataset_hash(data)) if cache is not None else None

    def layer_set(l: int, c: LayerCalibration) -> tuple[str | None, HessianSet]:
        part = ChannelPartition.consecutive(c.gradZ.shape[1], min(g, c.gradZ.shape[1]))
        request = None if cache is None else hessian_request(*digests, l, part.g,
                                                             damping_rel, kind)
        hset = cache.load(request, part) if cache is not None and reuse else None
        if hset is None:
            if kind == "plain":
                hset = plain_hessian(c, layer_idx=l, damping_rel=damping_rel)
            else:
                hset = guided_hessians(c, part, layer_idx=l, damping_rel=damping_rel)
            if cache is not None:
                cache.store(request, hset)
        return (None if request is None else hessian_cache_key(request)), hset

    return layer_set
