"""Per-channel scalar codebooks: rounding, weighted k-means, baselines.

A layer quantized to b bits is a `QuantizedLayer`: one sorted codebook
row of m = 2**b values per output channel (C, c x m), the slot of every
weight (A, d x c) and one objective trace per channel, checked once per
layer. Rounding always resolves distance ties toward the smaller
codebook value, implemented as first-occurrence argmin over the sorted
values; every consumer in the package rounds through the same helper so
tie behavior is uniform.

``kmeans_pp_init`` and ``lloyd`` implement weighted k-means over r x n
stacks of values X and weights Wt, one channel per row, the
sensitivity-weighted baseline for quantizing a channel with
diagonal-Fisher weights. Each checks its stacks once at entry and runs
a layer's channels in one call with the bits of one run per channel.
``kmeans_pp_init`` stacks the channels with equal distinct counts and
makes each draw as ``Generator.choice`` does, from the channel's own
generator. ``lloyd`` runs a pool of at most LLOYD_STACK // (n m)
channels, each at its own iteration: a channel leaves the pool at its
fixed point and the next channel not yet started takes its row, so the
pool stays full until the queue runs dry; kmeans_pp_init's stacks hold
at most that many channels too. Each cluster sum adds the cluster's
points in index order from 0.0, one ``np.bincount`` over every
cluster of the pool. The SSE traces rest on one rule of numpy's: a sum
along the contiguous last axis adds each row as that row's ``.sum()``.
``squeezellm_init`` is the one squeezellm path: codebooks and
assignments of a d x c layer as arrays, one seed per channel, with the
SSE traces only when asked for (then one ``lloyd`` call per channel,
the form ``bench/spans.py`` reads); ``squeezellm_quantize`` wraps them
into a layer, and ``run_job`` calls it once per layer for the LNQ
init.
The exact 1-D k-means DP they are checked against is
``oracle.kmeans_1d_exact``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSize,
    NonFiniteFisher,
    NonFiniteMass,
    TooFewDistinctPoints,
)

DEFAULT_LLOYD_ITERS = 50
# Point-to-center distances (1 MiB of float64) Lloyd's pool of live
# channels holds; kmeans_pp_init's stacks take as many channels. On the
# 64-256-256-16 benchmark model (64 channels of 256 points and 8
# centers) this pool ran the init 18 % faster than a 16-channel one, for
# about 0.5 MiB of peak RSS, which holding one layer's Hessian set at a
# time instead of all of them more than pays for.
LLOYD_STACK = 1 << 17


def round_rows(u: np.ndarray, codebooks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized nearest-value rounding of every entry of u.

    `codebooks` ends in the codebook axis (sorted ascending) and
    broadcasts against u[..., None]: a c x m matrix gives one codebook
    row per entry of a length-c u, a 1-D codebook of length m is shared
    by every entry, and an r x 1 x m stack gives row i of an r x n u
    the codebook of row i. Every form does the same elementwise
    arithmetic. First-occurrence argmin sends a tie to the smaller
    value, the rule of the scalar reference `oracle.round_to_codebook`.
    `out`, of the broadcast shape, holds the distances when given, so a
    caller that rounds many times reuses one buffer.
    """
    dist = np.subtract(codebooks, u[..., None], out=out)
    np.abs(dist, out=dist)
    return dist.argmin(axis=-1)


def _check_points(X: np.ndarray, Wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and Wt (one channel's values and weights per row) as C-contiguous
    float64 r x n stacks; refuses unequal shapes, rows of no points,
    non-finite entries, negative weights and a row of zero weights."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Wt = np.ascontiguousarray(Wt, dtype=np.float64)
    if X.ndim != 2 or X.shape != Wt.shape:
        raise DimensionMismatch("points and weights must be r x n stacks of equal shape")
    if X.shape[1] == 0:
        raise InvalidSize("need at least one point")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Wt))):
        raise ValueError("points and weights must be finite")
    if np.any(Wt < 0):
        raise ValueError("weights must be >= 0")
    if not np.all(np.any(Wt > 0, axis=1)):
        raise ValueError("weights must not all be zero")
    return X, Wt


def _distinct(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of one channel with aggregated weights, ascending.
    bincount adds each value's weights in index order, as np.add.at
    does."""
    vals, inv = np.unique(x, return_inverse=True)
    return vals, np.bincount(inv, weights=w, minlength=vals.shape[0])


def kmeans_pp_init(X: np.ndarray, Wt: np.ndarray, m: int, seed: Sequence) -> np.ndarray:
    """Weighted k-means++ seeding over the distinct values of a stack of
    channels in one pass.

    `X` and `Wt` are r x n stacks of one channel's values and weights
    per row, checked once here, and `seed` holds one seed per channel:
    any SeedSequence entropy (int or tuple) or a Generator, which is
    drawn from in place. Each channel draws from its own
    generator, so its centers depend only on its points and its seed.
    Returns the c x m centers, each row sorted; one channel is a stack
    of one.

    The first center is drawn proportional to aggregated weight; each
    later center proportional to weight times squared distance to the
    nearest chosen center. When every remaining candidate has zero
    sampling mass the draw falls back to uniform over the distinct
    values not yet chosen.

    Channels with the same number of distinct values run as stacks of
    at most LLOYD_STACK // (n m) (n points per channel), Lloyd's pool
    width: row i holds channel i's sorted distinct values and their
    summed weights. Each draw is the one Generator.choice(n, p=mass/total)
    makes: cdf = p.cumsum(), cdf /= cdf[-1], and the index is the count
    of cdf <= rng.random(), with every total and cumsum taken along the
    last axis of the stack, the order a 1-D array sums in. Channels,
    their centers and their generators end in the state of one run per
    channel.

    Raises TooFewDistinctPoints when m exceeds a channel's distinct
    count, and NonFiniteMass, naming the channel, when a draw's total
    mass is not finite (huge weights or squared distances overflow).
    """
    X, Wt = _check_points(X, Wt)
    if m < 1:
        raise InvalidSize(f"need m >= 1, got {m}")
    if len(seed) != X.shape[0]:
        raise DimensionMismatch(f"{len(seed)} seeds for {X.shape[0]} channels")
    rows = [_distinct(x, w) for x, w in zip(X, Wt)]
    sizes = np.array([vals.shape[0] for vals, _ in rows], dtype=np.int64)
    if sizes.size and m > sizes.min():
        raise TooFewDistinctPoints(
            f"asked for {m} centers but only {sizes.min()} distinct values"
        )
    rngs = [np.random.default_rng(s) for s in seed]
    out = np.empty((len(rows), m))
    width = _pool_width(X.shape[1], m)
    for n in np.unique(sizes):
        same = np.flatnonzero(sizes == n)
        for s in range(0, same.size, width):
            stack = same[s:s + width]
            out[stack] = _kmeans_pp_stack(np.stack([rows[i][0] for i in stack]),
                                          np.stack([rows[i][1] for i in stack]),
                                          m, [rngs[i] for i in stack], stack)
    return out


def _kmeans_pp_stack(vals: np.ndarray, wsum: np.ndarray, m: int, rngs: list,
                     ids: np.ndarray) -> np.ndarray:
    """k-means++ over r channels of n distinct values each (r x n rows of
    sorted values and weights), one generator per row; r x m sorted
    centers. `ids` numbers the rows' channels for errors."""
    r, n = vals.shape
    rows = np.arange(r)
    chosen = np.empty((r, m), dtype=np.int64)
    d2 = np.full((r, n), np.inf)
    # an overflow makes some row's total inf or NaN (0 * inf), which is
    # refused below, so numpy's warnings would only repeat the error
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            mass = wsum * d2 if k else wsum.copy()
            mass[rows[:, None], chosen[:, :k]] = 0.0
            total = mass.sum(axis=-1)
            bad = ~np.isfinite(total)
            if bad.any():
                i = int(np.argmax(bad))
                raise NonFiniteMass(f"channel {ids[i]}: k-means++ draw {k} has sampling "
                                    f"mass {float(total[i])}")
            drawn = total > 0.0
            if drawn.any():
                cdf = (mass[drawn] / total[drawn, None]).cumsum(axis=-1)
                cdf /= cdf[:, -1:]
                u = np.array([rngs[i].random() for i in np.flatnonzero(drawn)])
                chosen[drawn, k] = (cdf <= u[:, None]).sum(axis=-1)
            for i in np.flatnonzero(~drawn):  # zero mass: uniform over the rest
                chosen[i, k] = rngs[i].choice(np.setdiff1d(np.arange(n), chosen[i, :k]))
            d2 = np.minimum(d2, (vals - vals[rows, chosen[:, k], None]) ** 2)
    return np.sort(np.take_along_axis(vals, chosen, axis=1), axis=1)


def _weighted_sse(x: np.ndarray, w: np.ndarray, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Weighted SSE of every row, sum(w * r * r) with r = x - c[a]. A sum
    along the contiguous last axis adds each row as its ``.sum()`` does."""
    resid = x - np.take_along_axis(c, a, axis=1)
    return np.sum(w * resid * resid, axis=1)


def _cluster_means(w: np.ndarray, wx: np.ndarray, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each row's weighted cluster means under assignment a (k x n); a
    cluster with zero total weight keeps its center from c (k x m)."""
    k, m = c.shape
    keys = (a + m * np.arange(k)[:, None]).ravel()
    # bincount adds each cluster's points in index order, from 0.0
    tw = np.bincount(keys, weights=w.ravel(), minlength=k * m)
    twx = np.bincount(keys, weights=wx.ravel(), minlength=k * m)
    out = c.ravel().copy()
    pos = tw > 0.0
    out[pos] = twx[pos] / tw[pos]
    return out.reshape(k, m)


def _pool_width(n: int, m: int) -> int:
    """Channels of n points and m centers one stack holds: LLOYD_STACK
    point-to-center distances, and at least one channel."""
    return max(1, LLOYD_STACK // (n * m))


def lloyd(
    X: np.ndarray,
    Wt: np.ndarray,
    centers: np.ndarray,
    iters: int,
    trace: list[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Lloyd iterations over a stack of channels in one pass.

    `X` and `Wt` are r x n stacks of one channel's values and weights
    per row, checked once here, and `centers` their r x m starting
    codebooks (rows sorted); one channel is a stack of one.
    Returns the r x m codebooks and the r x n assignments.

    Each iteration assigns every point to its nearest center (ties to
    the smaller value) and then moves each center to the weighted mean
    of its points; a center whose points carry zero total weight stays
    put. Centers are re-sorted after every update. The returned
    assignment is the nearest-center rule under the final codebook.
    `iters` below 1 raises InvalidSize. When `trace` is
    given, each channel's weighted SSE after every half-step (2 * iters
    + 1 values, never increasing) is appended to it, channel after
    channel.

    An iteration is a pure function of the centers, so once one leaves
    a channel's centers bitwise unchanged every later iteration would
    repeat it: the channel stops there, and its last assignment is its
    final one. Its trace still gets all 2 * iters + 1 values, the
    skipped half-steps padded with the last SSE, the value they would
    have recomputed. The channels run in a pool of at most
    LLOYD_STACK // (n m) at a time, each at its own iteration; a channel
    that stops is replaced by the next one not yet started. Every step
    is a function of each row alone, so results equal running all
    `iters` on each channel alone, bit for bit.

    Each cluster sum adds its points in index order starting from 0.0
    (``np.bincount``), and each SSE is its row's ``.sum()``.
    """
    if iters < 1:
        raise InvalidSize(f"iters must be >= 1, got {iters}")
    X, Wt = _check_points(X, Wt)
    centers = np.array(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"{centers.shape} codebooks for {X.shape[0]} channels")
    r, n = X.shape
    width = _pool_width(n, centers.shape[1])
    A = np.empty(X.shape, dtype=np.int64)
    sse = None if trace is None else np.empty((r, 2 * iters + 1))
    dist = np.empty((min(width, r), n, centers.shape[1]))  # one buffer: fewer large heap blocks
    nxt = dist.shape[0]  # the next channel to start
    live = np.arange(nxt)  # the pool's channels, at iteration `it` each
    it = np.zeros(nxt, dtype=np.int64)
    x, w, c = X[:nxt], Wt[:nxt], centers[:nxt].copy()  # their rows
    wx = w * x
    while live.size:
        a = round_rows(x, c[:, None, :], out=dist[:live.size])
        if sse is not None:
            sse[live, 2 * it] = _weighted_sse(x, w, c, a)
        new = np.sort(_cluster_means(w, wx, a, c), axis=1)
        if sse is not None:
            sse[live, 2 * it + 1] = _weighted_sse(x, w, new, a)
        moved = np.any(new.view(np.int64) != c.view(np.int64), axis=1)  # bits: -0.0 != 0.0
        centers[live] = new
        it += 1
        stop = ~moved | (it == iters)
        if not stop.any():
            c = new
            continue
        settled = ~moved
        A[live[settled]] = a[settled]  # the centers did not move: a is final
        if sse is not None:
            for i, k in zip(live[settled].tolist(), it[settled].tolist()):
                sse[i, 2 * k:] = sse[i, 2 * k - 1]
        last = moved & stop  # ran all iterations, still moving
        if last.any():
            ids = live[last]
            A[ids] = round_rows(x[last], new[last][:, None, :], out=dist[:ids.size])
            if sse is not None:
                sse[ids, -1] = _weighted_sse(x[last], w[last], new[last], A[ids])
        keep = ~stop
        enter = np.arange(nxt, min(nxt + int(stop.sum()), r))
        nxt += enter.size
        live = np.concatenate([live[keep], enter])
        it = np.concatenate([it[keep], np.zeros(enter.size, dtype=np.int64)])
        x = np.concatenate([x[keep], X[enter]])
        w = np.concatenate([w[keep], Wt[enter]])
        wx = np.concatenate([wx[keep], Wt[enter] * X[enter]])
        c = np.concatenate([new[keep], centers[enter]])
    if trace is not None:
        trace.extend(sse.ravel().tolist())
    return centers, A


def check_codebooks(C: np.ndarray) -> None:
    """Refuse a codebook array (rows along the last axis) with a
    non-finite value or a row that is not sorted ascending."""
    if not np.all(np.isfinite(C)):
        raise ValueError("codebook values must be finite")
    if np.any(np.diff(C, axis=-1) < 0):
        raise ValueError("codebook values must be sorted ascending")


@dataclass
class QuantizedLayer:
    """One quantized layer: codebooks C (c x m, float64, rows sorted,
    m = 2**bits), assignments A (d x c, int64 slots in 0..m-1) and one
    objective trace (a list of floats) per channel, checked once on
    construction."""

    layer_idx: int
    bits: int
    C: np.ndarray
    A: np.ndarray
    traces: list[list[float]]

    def __post_init__(self) -> None:
        m = _codebook_size(self.bits)
        C = np.ascontiguousarray(self.C, dtype=np.float64)
        A = np.ascontiguousarray(self.A, dtype=np.int64)
        if C.ndim != 2 or A.ndim != 2 or C.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"codebooks {C.shape} and assignments {A.shape} "
                                    "are not c x m and d x c")
        if C.shape[1] != m:
            raise InvalidSize(f"codebook size {C.shape[1]}, but {self.bits} bits need {m}")
        check_codebooks(C)
        if A.size and (A.min() < 0 or A.max() >= m):
            raise InvalidSize(f"assignment slots outside 0..{m - 1}")
        if len(self.traces) != C.shape[0]:
            raise DimensionMismatch(f"{len(self.traces)} objective traces for "
                                    f"{C.shape[0]} channels")
        self.C, self.A = C, A

    @property
    def W_hat(self) -> np.ndarray:
        """d x c quantized weights, C[j, A[i, j]]."""
        return np.take_along_axis(self.C.T, self.A, axis=0)

    @property
    def channels(self) -> list[SimpleNamespace]:
        """One view per channel whose `objective_trace` is that channel's
        stored trace list itself."""
        return [SimpleNamespace(objective_trace=tr) for tr in self.traces]

    def codebook_matrix(self) -> np.ndarray:
        """The c x m codebooks."""
        return self.C

    def assign_matrix(self) -> np.ndarray:
        """The d x c slot indices."""
        return self.A


def _pad_codebook(vals: np.ndarray, m: int) -> np.ndarray:
    """Pad a short sorted value list to m entries by repeating the last
    value; padded duplicates are unreachable under first-occurrence
    rounding."""
    if vals.shape[0] >= m:
        return vals
    return np.concatenate([vals, np.full(m - vals.shape[0], vals[-1])])


def rtn_quantize(W: np.ndarray, bits: int, layer_idx: int = 0) -> QuantizedLayer:
    """Round-to-nearest baseline: per channel, a uniform grid over
    [min, max] (or the distinct values themselves when they fit), then
    every weight rounded in one broadcast `round_rows`."""
    W = np.asarray(W, dtype=np.float64)
    m = _codebook_size(bits)
    C = np.empty((W.shape[1], m))
    for j, col in enumerate(W.T):
        distinct = np.unique(col)
        if distinct.shape[0] <= m:
            C[j] = _pad_codebook(distinct, m)
        else:
            C[j] = np.linspace(float(col.min()), float(col.max()), m)
    return QuantizedLayer(layer_idx, bits, C, round_rows(W, C), [[] for _ in C])


def _codebook_size(bits: int) -> int:
    if not 1 <= bits <= 8:
        raise InvalidSize(f"bits must be in 1..8, got {bits}")
    return 2 ** bits


def squeezellm_init(
    W: np.ndarray,
    fisher_diag: np.ndarray,
    bits: int,
    seeds: Sequence,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivity-weighted k-means, one codebook per channel, as arrays.

    Channel j clusters the weights W[:, j] with diagonal-Fisher weights
    fisher_diag[:, j] (uniform weights if none is positive); a Fisher
    column with a NaN or infinite entry is refused first, with
    NonFiniteFisher naming the channel. The d x c arrays are checked
    once, as `lloyd` checks its points, and one sort counts each
    channel's distinct values: a channel with no more of them than
    codebook slots is represented exactly. The others are seeded by
    k-means++ in one `kmeans_pp_init` pass, channel j from `seeds[j]`
    (one SeedSequence entropy per channel), and refined by one `lloyd`
    call of DEFAULT_LLOYD_ITERS iterations (with `traces`, one call per
    channel, a stack of one; the same bits). `run_job` calls it once per
    layer. Returns the codebooks
    (c x m, rows sorted) and the assignments (d x c). When `traces` is
    given, one list per channel is appended to it: Lloyd's weighted SSE
    trace, or [0.0] for an exact channel; without it no SSE is
    computed.
    """
    m = _codebook_size(bits)
    Wt = np.array(np.transpose(fisher_diag), dtype=np.float64, order="C")  # the fallback writes
    if Wt.ndim == 2:
        bad = np.argwhere(~np.isfinite(Wt))
        if bad.size:
            j, i = bad[0].tolist()
            raise NonFiniteFisher(f"channel {j}: Fisher diagonal entry {i} is {Wt[j, i]}")
    Wt[~np.any(Wt > 0, axis=-1)] = 1.0
    X, Wt = _check_points(np.transpose(W), Wt)
    c, d = X.shape
    if len(seeds) != c:
        raise DimensionMismatch(f"{len(seeds)} seeds for {c} channels")
    # distinct values per channel, counted as np.unique counts them (-0.0 == 0.0)
    exact = np.count_nonzero(np.diff(np.sort(X, axis=1), axis=1), axis=1) < m
    C = np.empty((c, m))
    A = np.empty((d, c), dtype=np.int64)
    for j in np.flatnonzero(exact):
        C[j] = _pad_codebook(np.unique(X[j]), m)
        A[:, j] = round_rows(X[j], C[j])
    chan_traces = [[0.0] for _ in range(c)]
    clustered = np.flatnonzero(~exact)
    if clustered.size:
        if clustered.size < c:
            X, Wt = X[clustered], Wt[clustered]
        inits = kmeans_pp_init(X, Wt, m, [seeds[j] for j in clustered.tolist()])
        if traces is None:
            C[clustered], assign = lloyd(X, Wt, inits, DEFAULT_LLOYD_ITERS)
            A[:, clustered] = assign.T
        else:
            # a stack of one per channel: each call's trace is then one
            # channel's, the form bench/spans.py counts useful Lloyd
            # iterations from
            for i, j in enumerate(clustered.tolist()):
                chan_traces[j] = []
                cb, assign = lloyd(X[i:i + 1], Wt[i:i + 1], inits[i:i + 1],
                                   DEFAULT_LLOYD_ITERS, chan_traces[j])
                C[j], A[:, j] = cb[0], assign[0]
    if traces is not None:
        traces.extend(chan_traces)
    return C, A


def squeezellm_quantize(
    W: np.ndarray,
    fisher_diag: np.ndarray,
    bits: int,
    seed: int,
    layer_idx: int = 0,
) -> QuantizedLayer:
    """The squeezellm baseline layer: `squeezellm_init`'s codebooks and
    assignments, channel j seeded by (seed, j), with each channel's SSE
    trace."""
    traces: list[list[float]] = []
    seeds = [(seed, j) for j in range(np.shape(W)[1])]
    C, A = squeezellm_init(W, fisher_diag, bits, seeds, traces)
    return QuantizedLayer(layer_idx, bits, C, A, traces)
